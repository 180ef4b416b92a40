"""Truncated Fock modules and the finite section pipelines.

A :class:`GradedOperator` is a block operator on a degree window of the
(one- or two-sided) Fock module, blocks keyed by degree pairs and stored
sparsely.  Every operator the pipelines touch is a band, blocks
(r+k, s+k) = x (x) I_{E^k}, or a sum of bands along one diagonal:
:func:`band_powers` is the one place that amplifies along a band, by
Horner's rule over the blocks added along it, and :func:`band_op` builds the
band on a window (creation and Toeplitz operators are bands).  Bands are
degree-monotone, so every block whose degrees lie inside the window equals
its untruncated value; truncation error shows up only as absent blocks.

The pipelines are the compressions phi_N(x) = P_N x P_N followed by the
averaged amplifications Psi_N(x) = (N+1)^{-1} sum_k x (x) I_{E^k} (the sum
over k >= 0 one-sided, over all integers two-sided), one ``band_powers``
call per diagonal of x.  On canonical generators they act as Schur
multipliers; :func:`schur_oracle` computes the same coefficients by direct
counting with no operator machinery, and is the authority whenever the two
disagree.

:func:`window_table` applies such maps to stacks of window matrices, split
one way into degree blocks that are views (:meth:`GradedOperator.from_amatrix`);
:func:`compress_table` reads phi_N off a window matrix as its corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .star_core import ConfigurationError, DEFAULT_TOL, SpecMismatchError
from .hilbert_mod import AMatrix, LinearMapTable, rank_one, tol_grid
from .correspondence import CorrespondenceSpec, ValidationError

__all__ = [
    "FockWindow",
    "GradedOperator",
    "SchurRow",
    "band_powers",
    "band_op",
    "creation_op",
    "toeplitz_op",
    "compress",
    "psi_amplify",
    "v_n",
    "schur_oracle",
]


@dataclass(frozen=True)
class FockWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo <= 0 <= self.hi):
            raise ConfigurationError("window must contain degree 0")

    @property
    def two_sided(self) -> bool:
        return self.lo < 0

    def degrees(self):
        return range(self.lo, self.hi + 1)

    @classmethod
    def one_sided(cls, hi: int) -> "FockWindow":
        return cls(0, hi)

    @classmethod
    def two_sided_sym(cls, hi: int) -> "FockWindow":
        return cls(-hi, hi)


def _check_window(spec: CorrespondenceSpec, window: FockWindow):
    if window.two_sided and spec.n != 1:
        raise ConfigurationError("two-sided Fock modules require n = 1")


def _degree_offsets(spec: CorrespondenceSpec, window: FockWindow) -> np.ndarray:
    """Row offsets of the window's degrees in the window matrix over A, with
    the total side last."""
    dims = [spec.fiber_dim(d) for d in window.degrees()]
    return np.concatenate([[0], np.cumsum(dims)])


class GradedOperator:
    """Block operator on a Fock window; absent keys are zero blocks."""

    __slots__ = ("spec", "window", "blocks")

    def __init__(self, spec: CorrespondenceSpec, window: FockWindow, blocks=None):
        _check_window(spec, window)
        self.spec = spec
        self.window = window
        self.blocks: dict[tuple[int, int], AMatrix] = {}
        if blocks:
            for key, val in blocks.items():
                self.set_block(key[0], key[1], val)

    def _shape_of(self, i: int, j: int):
        return self.spec.fiber_dim(i), self.spec.fiber_dim(j)

    def set_block(self, i: int, j: int, val: AMatrix):
        if not (self.window.lo <= i <= self.window.hi
                and self.window.lo <= j <= self.window.hi):
            raise ConfigurationError(f"degrees ({i},{j}) outside window")
        if (val.rows, val.cols) != self._shape_of(i, j):
            raise SpecMismatchError(f"block ({i},{j}) has wrong shape")
        self.blocks[(i, j)] = val

    def add_block(self, i: int, j: int, val: AMatrix):
        if (i, j) in self.blocks:
            self.blocks[(i, j)] = self.blocks[(i, j)] + val
        else:
            self.set_block(i, j, val)

    def block(self, i: int, j: int) -> AMatrix:
        if (i, j) in self.blocks:
            return self.blocks[(i, j)]
        r, c = self._shape_of(i, j)
        return AMatrix.zeros(self.spec.algebra, r, c)

    def support(self):
        return sorted(self.blocks.keys())

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "GradedOperator"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operators over different correspondences")
        if self.window != other.window:
            raise SpecMismatchError("operators on different windows")

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        self._check(other)
        out = GradedOperator(self.spec, self.window, self.blocks)
        for key, val in other.blocks.items():
            out.add_block(*key, val)
        return out

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (other * (-1.0))

    def __mul__(self, z) -> "GradedOperator":
        return GradedOperator(self.spec, self.window,
                              {k: v * z for k, v in self.blocks.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        self._check(other)
        out = GradedOperator(self.spec, self.window)
        by_row: dict[int, list[tuple[int, AMatrix]]] = {}
        for (k, j), val in other.blocks.items():
            by_row.setdefault(k, []).append((j, val))
        for (i, k), left in self.blocks.items():
            for j, right in by_row.get(k, ()):
                out.add_block(i, j, left @ right)
        return out

    def adjoint(self) -> "GradedOperator":
        return GradedOperator(self.spec, self.window,
                              {(j, i): v.adjoint() for (i, j), v in self.blocks.items()})

    # -- metrics -----------------------------------------------------------

    def to_amatrix(self, out: AMatrix | None = None) -> AMatrix:
        """Assemble the window into one square AMatrix over A, or into
        ``out``: a zeroed AMatrix of that side, and a stack of them when the
        blocks are stacks (an operator with no blocks leaves ``out`` zero)."""
        offs = _degree_offsets(self.spec, self.window)
        total = int(offs[-1])
        alg = self.spec.algebra
        if out is None:
            out = AMatrix.zeros(alg, total, total)
        lo = self.window.lo
        for (i, j), val in self.blocks.items():
            ro, co = int(offs[i - lo]), int(offs[j - lo])
            for s in range(alg.n_blocks):
                out.blocks[s][..., ro:ro + val.rows, co:co + val.cols, :, :] = \
                    val.blocks[s]
        return out

    @classmethod
    def from_amatrix(cls, spec: CorrespondenceSpec, window: FockWindow,
                     mat: AMatrix, row_degree: int | None = None) -> "GradedOperator":
        """Split a window matrix into all its degree blocks, each a
        ``submatrix`` view of ``mat`` (stacks for a stack of window matrices);
        given the window index ``row_degree`` of a degree, only that block
        row, for a matrix that is zero outside it."""
        offs = _degree_offsets(spec, window)
        degs = list(window.degrees())
        rows = range(len(degs)) if row_degree is None else [row_degree]
        return cls(spec, window, {
            (degs[a], degs[b]): mat.submatrix(slice(offs[a], offs[a + 1]),
                                              slice(offs[b], offs[b + 1]))
            for a in rows for b in range(len(degs))})

    def restrict(self, window: FockWindow) -> "GradedOperator":
        """The blocks whose degrees both lie in ``window``, as an operator on
        that window."""
        lo, hi = window.lo, window.hi
        return GradedOperator(self.spec, window,
                              {(i, j): v for (i, j), v in self.blocks.items()
                               if lo <= i <= hi and lo <= j <= hi})

    def norm(self) -> float:
        if not self.blocks:
            return 0.0
        return self.to_amatrix().norm()

    def __repr__(self):
        return (f"GradedOperator(window=[{self.window.lo},{self.window.hi}], "
                f"support={self.support()})")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def band_powers(spec: CorrespondenceSpec, terms: dict, k_lo: int, k_hi: int):
    """Yield (k, sum_i terms[i] (x) I_{E^{k-i}}) along a band: first for k =
    min(terms)..k_hi, then for k = min(terms)-1 down to k_lo.

    ``terms`` maps offsets i >= 0 along the band to the block added there;
    the single term ``{0: x}`` gives the powers x (x) I_{E^k}.  The sum runs
    over the terms at or below k, and on two-sided bands (``k_lo < 0``, n = 1
    only) over the terms above k as well, through negative powers.  Horner's
    rule gives every offset one ``spec.amplify(., +-1)`` step per pass:
    upwards acc_k = terms[k] + amplify(acc_{k-1}, 1), downwards
    below_k = amplify(terms[k+1] + below_{k+1}, -1)."""
    first = min(terms)
    below = {}  # k -> the sum over the terms above k, from k = max(terms) - 1 down
    if k_lo < 0:
        acc = None
        for k in range(max(terms) - 1, k_lo - 1, -1):
            below[k] = acc = spec.amplify(_plus(acc, terms.get(k + 1)), -1)
    acc = None
    for k in range(first, k_hi + 1):
        acc = _plus(None if acc is None else spec.amplify(acc, 1), terms.get(k))
        yield k, _plus(acc, below.get(k))
    for k, val in below.items():
        if k < first:
            yield k, val


def _plus(x: AMatrix | None, y: AMatrix | None) -> AMatrix | None:
    """x + y, where None is zero."""
    if x is None or y is None:
        return y if x is None else x
    return x + y


def band_op(spec: CorrespondenceSpec, x: AMatrix, r: int, s: int,
            window: FockWindow) -> GradedOperator:
    """The band with blocks (r+k, s+k) = x (x) I_{E^k} at every offset whose
    degrees both lie in the window: k >= 0 on one-sided windows, every
    representable k on two-sided ones."""
    _check_window(spec, window)
    if not (window.lo <= min(r, s) and max(r, s) <= window.hi):
        raise ConfigurationError(f"band degrees ({r},{s}) outside window")
    k_lo = window.lo - min(r, s) if window.two_sided else 0
    out = GradedOperator(spec, window)
    for k, xk in band_powers(spec, {0: x}, k_lo, window.hi - max(r, s)):
        out.set_block(r + k, s + k, xk)
    return out


def creation_op(spec: CorrespondenceSpec, xi: AMatrix, window: FockWindow,
                r: int) -> GradedOperator:
    """t_xi: eta -> xi (x) eta for xi in E^r, blocks (r+k, k)."""
    if xi.cols != 1 or xi.rows != spec.fiber_dim(r):
        raise SpecMismatchError(f"creation vector must lie in E^{r}")
    return band_op(spec, xi, r, 0, window)


def toeplitz_op(spec: CorrespondenceSpec, mu: AMatrix, nu: AMatrix,
                window: FockWindow, r: int, s: int) -> GradedOperator:
    """t_mu t_nu* (one-sided) or s_mu s_nu* (two-sided): the band of
    e_{mu,nu} at degrees (r, s), for mu in E^r and nu in E^s."""
    return band_op(spec, rank_one(mu, nu), r, s, window)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def compress(x: GradedOperator, big_n: int) -> GradedOperator:
    """phi_N(x) = P_N x P_N: the blocks with both degrees in [0, N], as an
    operator on the one-sided window [0, N]."""
    if not (0 <= big_n <= x.window.hi):
        raise ConfigurationError(f"N={big_n} out of range for window")
    return x.restrict(FockWindow.one_sided(big_n))


def psi_amplify(x: GradedOperator, window: FockWindow) -> GradedOperator:
    """Psi_N(x) = (N+1)^{-1} sum_k x (x) I_{E^k} over the shifts representable
    in ``window``, for x on the one-sided window [0, N].

    One-sided windows sum k >= 0; two-sided windows sum over all integers
    (which makes the map unital).  Blocks that are stacks are averaged
    element by element.  Each diagonal j - i of the input is one
    :func:`band_powers` call, its blocks the terms at their offsets from the
    diagonal's first degree pair in [0, N]^2, so every output block costs one
    amplification per pass however many input blocks reach it.  The weight
    scales the input blocks, which are smaller than the outputs."""
    if x.window.two_sided:
        raise ConfigurationError("Psi_N takes an operator on a one-sided window")
    big_n = x.window.hi
    if window.hi < big_n:
        raise ConfigurationError(f"window does not contain [0, N] for N={big_n}")
    weight = 1.0 / (big_n + 1)
    diagonals: dict[int, dict[int, AMatrix]] = {}
    for (i, j), val in x.blocks.items():
        diagonals.setdefault(j - i, {})[min(i, j)] = val * weight
    out = GradedOperator(x.spec, window)
    for d, terms in diagonals.items():
        r, s = max(0, -d), max(0, d)
        # window.lo is 0 on a one-sided window
        for k, vk in band_powers(x.spec, terms, window.lo, window.hi - max(r, s)):
            out.set_block(r + k, s + k, vk)
    return out


def schur_oracle(big_n: int, r: int, s: int, l: int, sided: str) -> Fraction:
    """Independent combinatorial count of the pipeline's Schur coefficient.

    Implemented as a direct loop over the compression/amplification indices;
    no operator machinery is involved.
    """
    if sided == "one":
        count = 0
        for k in range(0, big_n + 1):
            if r + k <= big_n and s + k <= big_n and k <= l:
                count += 1
        return Fraction(count, big_n + 1)
    if sided == "two":
        count = 0
        for k in range(-max(r, s) - big_n - 1, big_n + 2):
            if 0 <= r + k <= big_n and 0 <= s + k <= big_n:
                count += 1
        return Fraction(count, big_n + 1)
    raise ConfigurationError(f"unknown sidedness {sided!r}")


@dataclass
class SchurRow:
    N: int
    r: int
    s: int
    l: int
    expected: Fraction
    measured: float
    abs_err: float
    sided: str

    def to_dict(self) -> dict:
        """The row as reported: ``measured`` and ``abs_err`` on the eq_tol
        grid (:func:`tol_grid`), so the bytes do not depend on BLAS threads."""
        return {
            "N": self.N, "r": self.r, "s": self.s, "l": self.l,
            "expected": [self.expected.numerator, self.expected.denominator],
            "measured": tol_grid(self.measured, DEFAULT_TOL.eq_tol),
            "abs_err": tol_grid(self.abs_err, DEFAULT_TOL.eq_tol),
            "sided": self.sided,
        }

    def csv_fields(self):
        row = self.to_dict()
        return [self.N, self.r, self.s, self.l,
                self.expected.numerator, self.expected.denominator,
                row["measured"], row["abs_err"], self.sided]


def _measure_band(pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """For (block, reference) pairs of like shape, the least-squares complex
    c with block ~ c * reference (0 when the reference is below eq_tol), and
    the residual max |block - Re(c) reference| against its real part; a
    ``None`` block is zero.

    No BLAS call: the inner products are ``einsum`` sums, as over thousands
    of entries a BLAS dot wakes a second thread that then spins.  The K pairs
    of one shape are measured together, per algebra block as (K, entries)
    rows: a stacked copy when K > 1 (every band block on n = 1), a view of
    the blocks themselves when K = 1 (every block on n = 2)."""
    coef, resid = np.zeros(len(pairs), dtype=complex), np.zeros(len(pairs))
    groups: dict[tuple, list[int]] = {}
    for k, (block, ref) in enumerate(pairs):
        if block is not None:  # else c = 0 and the residual is 0
            groups.setdefault((ref.rows, ref.cols), []).append(k)
    for idx in groups.values():
        parts = [tuple(_rows([pairs[k][j].blocks[s] for k in idx]) for j in (0, 1))
                 for s in range(pairs[idx[0]][1].spec.n_blocks)]
        num = den = 0.0
        for g, w in parts:
            w_conj = w.conj()
            num = num + np.einsum("ki,ki->k", w_conj, g)
            den = den + np.einsum("ki,ki->k", w_conj, w).real
        c = np.divide(num, den, out=np.zeros_like(num), where=den > DEFAULT_TOL.eq_tol ** 2)
        coef[idx] = c
        res = 0.0
        for g, w in parts:
            res = np.maximum(res, np.abs(g - c.real[:, None] * w).max(axis=1))
        resid[idx] = res
    return coef, resid


def _rows(arrs: list) -> np.ndarray:
    """The K arrays of one shape as (K, entries) rows: a stack when K > 1, a
    view when K = 1 (a copy only if the array is not contiguous)."""
    return (np.stack(arrs) if len(arrs) > 1 else arrs[0][None]).reshape(len(arrs), -1)


def v_n(spec: CorrespondenceSpec, band: GradedOperator, big_n: int,
        window: FockWindow, r: int, s: int):
    """(Psi_N o phi_N of a generator band at degrees (r, s) on ``window``,
    one Schur row per band offset, the band on ``window``); an output block
    off the band or not a real multiple of it raises
    :class:`ValidationError`, and so does a NaN (each condition reads ``not
    x <= tol``).  One-sided windows give the Pimsner pipeline V_N; two-sided
    (n = 1) the bimodule one W_N.  ``band`` (:func:`toeplitz_op`) may be
    built on any window of the same sidedness that contains ``window``: bands
    are degree-monotone, so its restriction (views) equals the band built on
    ``window``.  A band over another spec, off the diagonal s - r, or, one-sided,
    whose lowest block is not (r, s) is refused (:class:`SpecMismatchError`)."""
    eq_tol = DEFAULT_TOL.eq_tol
    sided = "two" if window.two_sided else "one"
    if band.spec is not spec:
        raise SpecMismatchError("the band lies over another correspondence")
    outer = band.window
    if outer.two_sided != window.two_sided or not outer.lo <= window.lo <= window.hi <= outer.hi:
        raise ConfigurationError("the band's window does not contain the pipeline's window")
    if any(j - i != s - r for i, j in band.blocks) \
            or not window.two_sided and min(band.blocks, default=None) != (r, s):
        raise SpecMismatchError(f"the band's blocks are not those of degrees ({r}, {s})")
    top = band.restrict(window)
    out = psi_amplify(compress(top, big_n), window)
    off_band = np.max([v.max_abs() for (i, j), v in out.blocks.items() if j - i != s - r],
                      initial=0.0)  # a Schur multiplier maps the band into itself
    if not (off_band <= eq_tol):
        raise ValidationError(f"pipeline output off the generator's band (max {off_band:.3e})")
    keys = sorted(top.blocks)
    coef, resid = _measure_band([(out.blocks.get(key), top.blocks[key]) for key in keys])
    rows = []
    for (i, _), c, res in zip(keys, coef.tolist(), resid.tolist()):
        l = i - r
        if not (res <= max(eq_tol, 1e-8) and abs(c.imag) <= eq_tol):
            raise ValidationError(
                f"pipeline output at offset {l} is not a real multiple of the "
                f"generator band (coefficient {c:.3e}, residual {res:.3e})")
        expected = schur_oracle(big_n, r, s, l, sided)
        rows.append(SchurRow(big_n, r, s, l, expected, c.real,
                             abs(c.real - float(expected)), sided))
    return out, rows, top


def v_n_runs(spec: CorrespondenceSpec, seeds: dict, runs):
    """:func:`v_n` over a run: for each pair (r, s) in ``seeds``, in order,
    and each (N, window) in ``runs`` whose window holds it, yield (the run's
    index, r, s, v_n's result).  A pair's vectors are drawn once, at
    ``seeds[r, s]`` and the next seed, and its band is built once, on the
    widest window, for v_n to restrict; one band is alive at a time."""
    widest = max((window for _, window in runs), key=lambda w: w.hi)
    for (r, s), seed in seeds.items():
        fit = [k for k, (_, window) in enumerate(runs) if max(r, s) <= window.hi]
        if fit:
            mu, nu = spec.sample_vector(r, seed), spec.sample_vector(s, seed + 1)
            band = toeplitz_op(spec, mu, nu, widest, r, s)
            for k in fit:
                yield k, r, s, v_n(spec, band, *runs[k], r, s)


# ---------------------------------------------------------------------------
# the pipeline maps on stacks of window matrices
# ---------------------------------------------------------------------------

def window_table(spec: CorrespondenceSpec, window_in: FockWindow,
                 window_out: FockWindow, fn, classes=None) -> LinearMapTable:
    """A map of graded operators, ``fn`` (window_in -> window_out), as a
    linear map M_p(A) -> M_q(A) of window matrices, p and q the windows'
    sides over A, declaring ``classes``.  Each ``apply`` hands ``fn`` the
    whole stack as one operator whose blocks are stacks, split by
    ``from_amatrix`` (into one block row given rows of one degree as the
    hint, see :meth:`LinearMapTable.apply`), and writes each output block
    once into a zeroed window stack."""
    _check_window(spec, window_in)
    _check_window(spec, window_out)
    alg, offs = spec.algebra, _degree_offsets(spec, window_in)
    t_in, t_out = int(offs[-1]), int(_degree_offsets(spec, window_out)[-1])
    row_degree = np.repeat(np.arange(len(offs) - 1), np.diff(offs))  # window index per row

    def apply(x, rows):
        deg = set() if rows is None else set(row_degree[rows].tolist())
        g = GradedOperator.from_amatrix(spec, window_in, x, deg.pop() if len(deg) == 1 else None)
        y = fn(g)  # before the result is allocated: a lower peak RSS, measured
        out = [np.zeros(x.stack_shape + (t_out, t_out, d, d), dtype=complex)
               for d in alg.block_dims]
        return y.to_amatrix(out=AMatrix(alg, t_out, t_out, out))

    return LinearMapTable(alg, t_in, t_out, apply, classes=classes)


def extension_classes(spec: CorrespondenceSpec, big_n: int, window: FockWindow):
    """The ``classes`` of a map, like Psi_N, from [0, N] into the one-sided
    ``window`` that sends a row u's units to the rows u.w (``amplify1``'s
    order): a class per degree i, owning the row of degree m, word index w
    by the degree-i row of word index w // n^(m - i)."""
    offs, out = _degree_offsets(spec, FockWindow.one_sided(big_n)), _degree_offsets(spec, window)
    degree = np.repeat(np.arange(window.hi + 1), np.diff(out))  # of each output row
    shift = degree - np.arange(big_n + 1)[:, None]  # m - i
    word = (np.arange(out[-1]) - out[degree]) // spec.n ** np.maximum(shift, 0)
    return degree[:offs[-1]], np.where(shift >= 0, offs[:-1, None] + word, -1)


def compress_table(spec: CorrespondenceSpec, window: FockWindow, big_n: int) -> LinearMapTable:
    """phi_N(x) = P_N x P_N as a linear map M_p(A) -> M_D(A) of window
    matrices: the corner of each on the rows of [0, N], which is the window
    matrix of :func:`compress`, returned as a view that shares memory with
    its input.  Its ``reads`` are those rows, so the CP checks assemble and
    probe that corner alone (and test the promise first), as one class for n > 1."""
    if not 0 <= big_n <= window.hi:
        raise ConfigurationError(f"N={big_n} out of range for window")
    offs = _degree_offsets(spec, window)
    lo, hi = int(offs[-window.lo]), int(offs[big_n + 1 - window.lo])
    return LinearMapTable(spec.algebra, int(offs[-1]), hi - lo,
                          lambda x, rows: x.submatrix(slice(lo, hi), slice(lo, hi)),
                          reads=np.arange(lo, hi), classes=None if spec.n == 1 else (
                              np.zeros(hi - lo, int), np.arange(hi - lo)[None]))
