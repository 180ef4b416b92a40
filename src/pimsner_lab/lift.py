"""Lifting machinery and completely positive approximation certificates.

Three constructions live here:

* the bimodule (n = 1) lift: compression of bilateral Toeplitz operators to
  the one-sided Fock module, which reproduces the one-sided generators on
  their whole band and leaves only finitely many low-degree blocks behind;

* the finite-level bimodule over B = M_{n^K}(A): coordinates, both inner
  products, the nonunital band representations pi_i and the defect identity
  eps-hat(t_{mu (x) b} t_{nu (x) c}*) - t_mu pi_i(b c*) t_nu*  which must be
  supported strictly below the compact level i;

* CPAP certificates: the finite-section pipeline factored through the
  matrix algebra M_D(A) of a compressed window, with CP witnesses for both
  factor maps, measured Schur coefficients and a Fejer-rate error bound,
  all serializable and re-runnable from the recorded seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .star_core import ConfigurationError, DEFAULT_TOL, SpecMismatchError
from .hilbert_mod import (
    CHOI_CAP,
    AMatrix,
    cp_check_auto,
    json_float,
    rank_one,
    tol_grid,
)
from .correspondence import CorrespondenceSpec, ValidationError
from .expectation import eps_hat
from .fock import (
    FockWindow,
    GradedOperator,
    band_powers,
    compress,
    compress_table,
    creation_op,
    psi_amplify,
    schur_oracle,
    toeplitz_op,
    v_n_runs,
    window_table,
)

__all__ = [
    "EInftyContext",
    "CPAPCertificate",
    "pi_i",
    "toeplitz_infty",
    "lift_defect",
    "bilateral_lift",
    "cpap_certificate",
]

TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# the finite-level bimodule over B = M_{n^K}(A)
# ---------------------------------------------------------------------------

@dataclass
class EInftyContext:
    """Coordinates of the extended module E^m (x) B at tower level K, for
    B = M_{n^K}(A).

    A vector is a column over B, stored as an (n^m * n^K) x n^K matrix over
    A, so the module is plain matrices over A: xi (x) b is
    (xi (x) I_{E^K}) b, the right inner product is x* y, the left one x y*,
    and the left action of B, one level up the tower, is b (x) I_E
    (:meth:`CorrespondenceSpec.amplify`)."""

    spec: CorrespondenceSpec
    level: int

    def __post_init__(self):
        if self.level < 0 or self.level > self.spec.max_degree:
            raise ConfigurationError("level outside [0, max_degree]")

    def embed_compact(self, t: AMatrix, i: int) -> AMatrix:
        """K(E^i) = M_{n^i}(A) -> B via T -> T (x) 1 (requires i <= K)."""
        if i > self.level:
            raise ConfigurationError("compact level exceeds the context level")
        return self.spec.amplify(t, self.level - i)

    def vector(self, xi: AMatrix, b: AMatrix) -> AMatrix:
        """Coordinates of xi (x) b: its i-th B-entry is phi_K(xi_i) b."""
        return self.spec.amplify(xi, self.level) @ b


def pi_i(spec: CorrespondenceSpec, i: int, t: AMatrix,
         window: FockWindow) -> GradedOperator:
    """Nonunital band representation of K(E^i): acts on the first i tensor
    components of every degree >= i."""
    if i > window.hi:
        raise ConfigurationError("compact level exceeds the window")
    if t.rows != spec.fiber_dim(i) or t.cols != spec.fiber_dim(i):
        raise SpecMismatchError("compact has wrong side for level i")
    out = GradedOperator(spec, window)
    for k, tk in band_powers(spec, {0: t}, 0, window.hi - i):
        out.set_block(i + k, i + k, tk)
    return out


def toeplitz_infty(ctx: EInftyContext, mu: AMatrix, b: AMatrix,
                   nu: AMatrix, c: AMatrix, window: FockWindow,
                   r: int, s: int) -> dict:
    """t_{mu (x) b} t_{nu (x) c}* for mu in E^r and nu in E^s on the extended
    Fock module, as a dict of graded blocks over B keyed by degree pairs
    (r+k, s+k)."""
    if r > window.hi or s > window.hi:
        raise ConfigurationError("generator degree exceeds window")
    xb = ctx.vector(mu, b)
    yc = ctx.vector(nu, c)
    e_inf = xb @ yc.adjoint()
    return {(r + k, s + k): ek for k, ek in
            band_powers(ctx.spec, {0: e_inf}, 0, window.hi - max(r, s))}


def eps_hat_graded(ctx: EInftyContext, blocks: dict,
                   window: FockWindow) -> GradedOperator:
    """Apply the induced expectation blockwise, landing on the base Fock window."""
    out = GradedOperator(ctx.spec, window)
    for (i, j), val in blocks.items():
        out.set_block(i, j, eps_hat(ctx.spec, ctx.level, val))
    return out


def lift_defect(ctx: EInftyContext, mu: AMatrix, nu: AMatrix,
                b0: AMatrix, c0: AMatrix, i: int, window: FockWindow,
                r: int, s: int):
    """Defect of the lifted generator against t_mu pi_i(b c*) t_nu*.

    b0, c0 are level-i compacts (n^i x n^i over A); they are embedded into
    B along the tower.  Returns the defect operator together with a support
    report: offsets k >= i must vanish, the compact part sits below i."""
    spec = ctx.spec
    b = ctx.embed_compact(b0, i)
    c = ctx.embed_compact(c0, i)
    lifted = eps_hat_graded(
        ctx, toeplitz_infty(ctx, mu, b, nu, c, window, r, s), window)
    band = creation_op(spec, mu, window, r) \
        @ pi_i(spec, i, b0 @ c0.adjoint(), window) \
        @ creation_op(spec, nu, window, s).adjoint()
    defect = lifted - band
    # per band offset k; a NaN lands in the support and in the tail maximum
    devs = np.array([defect.block(r + k, s + k).max_abs()
                     for k in range(0, window.hi - max(r, s) + 1)])
    support = [k for k, dev in enumerate(devs.tolist()) if not (dev <= DEFAULT_TOL.eq_tol)]
    max_dev_tail = float(np.max(devs[i:], initial=0.0))
    report = {
        "i": i,
        "level": ctx.level,
        "r": r,
        "s": s,
        "max_dev_at_or_above_i": json_float(max_dev_tail),
        "support": support,
        "pass": max_dev_tail <= DEFAULT_TOL.eq_tol and all(k < i for k in support),
    }
    return defect, report


# ---------------------------------------------------------------------------
# the bimodule lift (n = 1)
# ---------------------------------------------------------------------------

def bilateral_lift(spec: CorrespondenceSpec, mu: AMatrix, nu: AMatrix,
                   r: int, s: int, two_sided: FockWindow):
    """Compression of the bilateral generator to nonnegative degrees.

    Returns (compressed operator on the one-sided window, report).  On the
    band of the one-sided generator (offsets k >= 0) the compression equals
    t_mu t_nu* on the nose; offsets -min(r,s) <= k < 0 survive as finitely
    many extra blocks (they are compact, and vanish in the quotient), which
    the report lists rather than hiding.  The one-sided band (``band_dev``)
    and the whole bilateral band (``bilateral_tail_dev``) are checked against
    blocks built by :meth:`CorrespondenceSpec.phi_tower_direct` (k >= 0), the
    direct recursion run once up the band, and by Ex_{-k} (k < 0)."""
    if spec.n != 1:
        raise ConfigurationError("bimodule lift requires n = 1")
    if not two_sided.two_sided:
        raise ConfigurationError("need a two-sided window")
    bilateral = toeplitz_op(spec, mu, nu, two_sided, r, s)
    lifted = compress(bilateral, two_sided.hi)
    # the band e (x) I_{E^k} from code that shares none with the
    # amplification that built the bilateral band: the direct tower for k >= 0,
    # and for k < 0 Ex_{-k} = Ex_1^{-k}, which for n = 1 is beta^k peeled
    # through the alpha inverses and U, one layer per step
    offsets = range(two_sided.lo - min(r, s), two_sided.hi - max(r, s) + 1)
    ref = dict(enumerate(spec.phi_tower_direct(rank_one(mu, nu), offsets.stop - 1)))
    for k in range(-1, offsets.start - 1, -1):
        ref[k] = eps_hat(spec, 1, ref[k + 1])
    band_dev = float(np.max([(lifted.block(r + k, s + k) - ref[k]).max_abs()
                             for k in offsets if k >= 0]))
    tail_dev = float(np.max([(bilateral.block(r + k, s + k) - ref[k]).max_abs()
                             for k in offsets]))
    # extra blocks are indexed by their (negative) band offset
    extra = sorted({j - s for (i, j) in lifted.blocks
                    if i - r == j - s and j - s < 0
                    and not (lifted.blocks[(i, j)].max_abs() <= DEFAULT_TOL.eq_tol)})
    report = {
        "r": r, "s": s,
        "band_dev": json_float(band_dev),
        "compact_offsets": extra,
        "bilateral_tail_dev": json_float(tail_dev),
        "pass": band_dev <= DEFAULT_TOL.eq_tol and tail_dev <= DEFAULT_TOL.eq_tol,
    }
    return lifted, report


# ---------------------------------------------------------------------------
# CPAP certificates
# ---------------------------------------------------------------------------

@dataclass
class GeneratorRecord:
    r: int
    s: int
    seed: int
    coeff_expected: Fraction
    coeff_measured: float
    error: float
    norm: float

    def to_dict(self):
        """The record as reported: ``coeff_measured`` and ``error`` on the
        eq_tol grid, as the Schur rows' ``measured`` is (:func:`tol_grid`)."""
        return {
            "r": self.r, "s": self.s, "seed": self.seed,
            "coeff_expected": [self.coeff_expected.numerator,
                               self.coeff_expected.denominator],
            "coeff_measured": tol_grid(self.coeff_measured, DEFAULT_TOL.eq_tol),
            "error": tol_grid(self.error, DEFAULT_TOL.eq_tol),
            "generator_norm": self.norm,
        }


@dataclass
class CPAPCertificate:
    spec_fingerprint: dict
    N: int
    D: int
    flatten_dim: int
    generators: list
    factor_maps: list          # (direction, CPReport) pairs
    seed: int
    created: str
    tool_version: str = TOOL_VERSION

    def to_dict(self):
        return {
            "spec": self.spec_fingerprint,
            "N": self.N,
            "D": self.D,
            "flatten_dim": self.flatten_dim,
            "generators": [g.to_dict() for g in self.generators],
            "factor_maps": [{"direction": direction, "cp": cp.to_dict(),
                             "norm": tol_grid(cp.norm_bound, DEFAULT_TOL.eq_tol),
                             "contractive": cp.contractive}
                            for direction, cp in self.factor_maps],
            "tolerances": asdict(DEFAULT_TOL),
            "seed": self.seed,
            "created": self.created,
            "tool_version": self.tool_version,
        }


def factor_tables(spec: CorrespondenceSpec, window: FockWindow, big_n: int):
    """The two factor maps of the pipeline and D: compress into the window
    algebra M_D(A) of [0, N], a corner view of the window matrix that reads
    [0, N] alone (:func:`compress_table`), and amplify back, Psi_N through
    :func:`window_table`.  On a two-sided window with N = window.hi, phi is
    the bilateral lift's compression."""
    phi = compress_table(spec, window, big_n)
    psi = window_table(spec, FockWindow.one_sided(big_n), window,
                       lambda g: psi_amplify(g, window))
    return phi, psi, phi.q


def generator_records(spec: CorrespondenceSpec, generators, runs, seed: int) -> list:
    """The generator records of each (N, window) in ``runs``, for the (r, s)
    pairs in ``generators`` that its window holds (s <= 2, refused else).  A
    pair's unit-norm vectors are drawn once, at seed ``seed + 100 (3 r + s)``
    (its own, and free of N), and its band built once (:func:`v_n_runs`).
    The error is || W_N(g) - g || on a two-sided window (the bimodule case),
    the tail deviation from the oracle symbol on a one-sided one; past the
    Fejer bound (band / (N + 1) ||g||), or NaN, it raises :class:`ValidationError`."""
    for r, s in generators:
        if s > 2:
            raise ConfigurationError(f"generator pair ({r}, {s}) has s > 2: its seed is not its own")
    seeds = {(r, s): seed + 100 * (3 * r + s) for r, s in generators}
    records = [[] for _ in runs]
    for k, r, s, (out, rows, target) in v_n_runs(spec, seeds, runs):
        (big_n, window), gnorm = runs[k], target.blocks[(r, s)].norm()  # of e_{mu,nu}
        if window.two_sided:
            err, coeff = (out - target).norm(), rows[0].measured if rows else 0.0
            expected, band = schur_oracle(big_n, r, s, 0, "two"), abs(r - s)
        else:  # the tail rows, at offsets l >= N - max(r, s)
            tail = [row.measured for row in rows if row.l >= big_n - max(r, s)]
            coeff = tail[0] if tail else 0.0
            err, band = abs(coeff - 1.0) * gnorm, max(r, s)
            expected = schur_oracle(big_n, r, s, big_n, "one")
        bound = band / (big_n + 1) * gnorm + DEFAULT_TOL.eq_tol
        if not (err <= bound + 1e-12) and band <= big_n + 1:  # a NaN error fails
            raise ValidationError(
                f"generator ({r},{s}): error {err:.3e} exceeds the Fejer bound {bound:.3e}")
        records[k].append(GeneratorRecord(r, s, seeds[r, s], expected, float(coeff),
                                          float(err), float(gnorm)))
    return records


def cpap_certificate(spec: CorrespondenceSpec, big_n: int, generators,
                     window: FockWindow, seed: int, created: str = "",
                     choi_cap: int = CHOI_CAP) -> CPAPCertificate:
    """Build and certify the degree-N approximation of the quotient map: CP
    records of both factor maps (:func:`factor_tables`) and the records of
    the (r, s) pairs in ``generators`` (:func:`generator_records`).  A run
    over several N, such as ``certificate``, passes no pairs here and
    measures them for all its N at once."""
    phi, psi, d_total = factor_tables(spec, window, big_n)
    gen_records = generator_records(spec, generators, [(big_n, window)], seed)[0]
    phi_cp = cp_check_auto(phi, choi_cap=choi_cap, seed=seed + 1)
    psi_cp = cp_check_auto(psi, choi_cap=choi_cap, seed=seed + 2)
    fingerprint = {"preset": spec.name, "block_dims": list(spec.algebra.block_dims),
                   "n": spec.n, "window": [window.lo, window.hi]}
    return CPAPCertificate(
        spec_fingerprint=fingerprint,
        N=big_n,
        D=d_total,
        flatten_dim=d_total * spec.algebra.total_dim,
        generators=gen_records,
        factor_maps=[("compress", phi_cp), ("amplify", psi_cp)],
        seed=seed,
        created=created,
    )
