"""The concrete correspondence family E = l^2_n (x) A.

The left action is phi(a) = U* diag[alpha_1(a), ..., alpha_n(a)] U for a
unitary U in M_n(A) and automorphisms alpha_i of A.  Coordinates are fixed
once and for all:

  C1  E^k is identified with A^{n^k}; multi-indices (i_1, ..., i_k) are read
      with i_1 (the first tensor factor) most significant.
  C2  (xi (x) eta)_{(i,m)} = [phi_k(xi_i) eta]_m for xi in E^j, eta in E^k.
      That is, xi (x) eta = amplify(xi, k) @ eta.
  C3  x (x) I_{E^k} is "apply phi_k entrywise"; the tower embedding
      T -> T (x) 1 is the k = 1 case.

With these conventions both phi_k = entrywise-phi_1 o phi_{k-1} and
phi_{j+k} = entrywise-phi_k o phi_j hold, which pins down the recursion
(the printed amplification index in the source recursion is dimensionally
off by one level; the composite invariant is what we verify).

For n = 1 the left action collapses to a single automorphism
beta = Ad U o alpha_1 of A, powers of which implement amplification in
either direction; that is what makes the two-sided (bimodule) case work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .star_core import (
    AlgebraSpec,
    Automorphism,
    ConfigurationError,
    DEFAULT_TOL,
    Tolerances,
)
from .hilbert_mod import AMatrix, inner, matrix_units, sample

__all__ = [
    "CorrespondenceSpec",
    "ValidationError",
    "default_max_degree",
    "kron_identity_left",
]


class ValidationError(ValueError):
    """A check failed numerically (an axiom, a Schur band, the Fejer bound)."""


def default_max_degree(n: int) -> int:
    if n == 1:
        return 12
    if n == 2:
        return 8
    return 5


def kron_identity_left(m: int, u: AMatrix) -> AMatrix:
    """I_m (x) u as an AMatrix (outer index most significant)."""
    out_blocks = []
    eye = np.eye(m)
    n = u.rows
    q = u.cols
    for s, d in enumerate(u.spec.block_dims):
        b = np.einsum("PQ,ijab->PiQjab", eye, u.blocks[s])
        out_blocks.append(b.reshape(m * n, m * q, d, d))
    return AMatrix(u.spec, m * n, m * q, out_blocks)


@dataclass
class CorrespondenceSpec:
    """Data (A, n, U, alpha_1..alpha_n) of the concrete correspondence."""

    algebra: AlgebraSpec
    n: int
    unitary: AMatrix                 # n x n over A
    alphas: tuple[Automorphism, ...]
    max_degree: int = 0
    name: str = "custom"
    _phi1_units: list = field(default=None, init=False, repr=False, compare=False)
    _alpha_invs: tuple = field(default=None, init=False, repr=False, compare=False)
    _beta: Automorphism = field(default=None, init=False, repr=False, compare=False)
    _beta_inv: Automorphism = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("fiber multiplicity n must be >= 1")
        if (self.unitary.rows, self.unitary.cols) != (self.n, self.n):
            raise ConfigurationError("U must be n x n over A")
        if len(self.alphas) != self.n:
            raise ConfigurationError("need exactly n automorphisms")
        if self.max_degree <= 0:
            self.max_degree = default_max_degree(self.n)
        self._phi1_units = self._build_phi1_units()
        self._alpha_invs = tuple(al.inverse() for al in self.alphas)
        if self.n == 1:
            self._beta = self._effective_automorphism()
            self._beta_inv = self._beta.inverse()

    @property
    def tol(self) -> Tolerances:
        """The thresholds every check applies: ``DEFAULT_TOL``."""
        return DEFAULT_TOL

    # -- the left action ---------------------------------------------------

    def alpha_tilde(self, x: AMatrix) -> AMatrix:
        """diag[alpha_1(a), ..., alpha_n(a)] in M_n(A) for a in A (1 x 1),
        entrywise on a p x q matrix x, inner index least significant: entry
        (p' n + i, q' n + i) is alpha_i(x[p', q'])."""
        n = self.n
        out = AMatrix.zeros(self.algebra, x.rows * n, x.cols * n)
        for i, al in enumerate(self.alphas):
            for b, img in zip(out.blocks, al.apply(x).blocks):
                b[i::n, i::n] = img
        return out

    def phi1(self, a: AMatrix) -> AMatrix:
        u = self.unitary
        return u.adjoint() @ self.alpha_tilde(a) @ u

    def _effective_automorphism(self) -> Automorphism:
        """n = 1: phi_1 = Ad u o alpha_1 is itself an automorphism of A."""
        ad_u = Automorphism(self.algebra, tuple(range(self.algebra.n_blocks)),
                            tuple(b[0, 0] for b in self.unitary.blocks))
        return ad_u.compose(self.alphas[0])

    def _build_phi1_units(self):
        """phi_1 images of the matrix-unit basis of A, one matrix per target
        block t: row (s, u, v) holds block t of phi_1(e^s_{uv}) as an
        (n, n, d_t, d_t) array, flattened, so that entrywise amplification
        is one matrix product per target block."""
        imgs = [self.phi1(e) for e in matrix_units(self.algebra)]
        return [np.stack([img.blocks[t].ravel() for img in imgs])
                for t in range(self.algebra.n_blocks)]

    # -- amplification -----------------------------------------------------

    def amplify1(self, x: AMatrix) -> AMatrix:
        """x (x) I_E: apply phi_1 to every entry (inner index least significant)."""
        p, q = x.rows, x.cols
        n = self.n
        lead = x.stack_shape
        # entries of x in the matrix-unit basis of A, columns ordered (s, u, v);
        # the rows of a stack's elements follow one another
        coords = np.concatenate([b.reshape(-1, d * d) for b, d in
                                 zip(x.blocks, self.algebra.block_dims)], axis=1)
        out_blocks = []
        for t, dt in enumerate(self.algebra.block_dims):
            img = (coords @ self._phi1_units[t]).reshape(-1, q, n, n, dt, dt)
            out_blocks.append(img.transpose(0, 2, 1, 3, 4, 5).reshape(
                lead + (p * n, q * n, dt, dt)))
        return AMatrix._new(self.algebra, p * n, q * n, out_blocks)

    def amplify(self, x: AMatrix, k: int) -> AMatrix:
        """x (x) I_{E^k}.  Negative k is only meaningful for n = 1 (two-sided
        modules), where amplification is a power of the effective automorphism."""
        if self.n == 1:
            beta = self._beta if k >= 0 else self._beta_inv
            for _ in range(abs(k)):
                x = beta.apply(x)
            return x
        if k < 0:
            raise ConfigurationError("negative amplification requires n = 1")
        for _ in range(k):
            x = self.amplify1(x)
        return x

    def phi_k(self, a: AMatrix, k: int) -> AMatrix:
        """The embedding A -> M_{n^k}(A) of a in A (1 x 1); phi_0 = id."""
        if k < 0 or k > self.max_degree:
            raise ConfigurationError(f"degree {k} outside [0, max_degree={self.max_degree}]")
        return self.amplify(a, k)

    def phi_k_direct(self, a: AMatrix, k: int) -> AMatrix:
        """phi_k(a) by the direct recursion: the last entry of :meth:`phi_tower_direct`."""
        return self.phi_tower_direct(a, k)[-1]

    def phi_tower_direct(self, a: AMatrix, k: int) -> list:
        """[phi_0(a), ..., phi_k(a)] in one pass of the recursion via the
        explicit unitary I_{n^{j-1}} (x) U and entrywise alpha-tilde, as
        matrix products: a code path that shares none with :meth:`amplify`."""
        tower = [a]
        for j in range(1, k + 1):
            big_u = kron_identity_left(self.n ** (j - 1), self.unitary)
            tower.append(big_u.adjoint() @ self.alpha_tilde(tower[-1]) @ big_u)
        return tower

    # -- module vectors ----------------------------------------------------

    def fiber_dim(self, k: int) -> int:
        """Rank of E^k as a free module (1 for every degree when n = 1)."""
        if self.n == 1:
            return 1
        if k < 0:
            raise ConfigurationError("negative degrees require n = 1")
        return self.n ** k

    def sample_vector(self, degree: int, seed: int) -> AMatrix:
        """Seeded unit-norm module vector in E^degree (column AMatrix)."""
        rows = [sample(self.algebra, seed * 7919 + i)
                for i in range(self.fiber_dim(degree))]
        v = AMatrix._new(self.algebra, len(rows), 1,
                         [np.concatenate(bs) for bs in zip(*(x.blocks for x in rows))])
        return v * (1.0 / np.sqrt(max(inner(v, v).norm(), 1e-300)))

    # -- validation --------------------------------------------------------

    def validate_or_raise(self, seed: int = 11) -> dict:
        """Check the correspondence axioms and return the report dict;
        raise a ValidationError that names each failing check and its value
        when any fails."""
        rep, violated = self._validate(seed)
        if violated:
            raise ValidationError(f"correspondence axioms violated: {violated}")
        return rep

    def _validate(self, seed: int) -> tuple[dict, dict]:
        """(the report of :meth:`validate_or_raise`, the failing checks and
        values)."""
        checks = {}
        u = self.unitary
        eye_n = AMatrix.eye(self.algebra, self.n)
        checks["unitarity"] = (u.adjoint() @ u - eye_n).norm()
        checks["unitality"] = (self.phi1(AMatrix.eye(self.algebra, 1)) - eye_n).max_abs()
        a = sample(self.algebra, seed)
        b = sample(self.algebra, seed + 1)
        checks["multiplicativity"] = (
            self.phi1(a @ b) - self.phi1(a) @ self.phi1(b)).max_abs()
        checks["star_property"] = (
            self.phi1(a.adjoint()) - self.phi1(a).adjoint()).max_abs()
        # faithfulness: the flattened matrix of phi_1 on the basis of A has
        # trivial kernel
        mat = np.array([self.phi1(e).flatten().ravel() for e in matrix_units(self.algebra)]).T
        sv = np.linalg.svd(mat, compute_uv=False)
        checks["faithfulness_min_sv"] = float(sv.min())
        aut_devs = []  # folded with np.max, which carries a NaN to a violation
        for al in self.alphas:
            x = sample(self.algebra, seed + 2)
            y = sample(self.algebra, seed + 3)
            aut_devs.append((al.apply(x @ y) - al.apply(x) @ al.apply(y)).max_abs())
            aut_devs.append((al.inverse().apply(al.apply(x)) - x).max_abs())
        checks["automorphisms"] = float(np.max(aut_devs, initial=0.0))
        # each check's limit: the least singular value must reach it, every
        # other check (a deviation) must stay within it
        eq_tol = DEFAULT_TOL.eq_tol
        limits = {"unitarity": 1e-8, "unitality": eq_tol, "multiplicativity": 1e-8,
                  "star_property": eq_tol, "faithfulness_min_sv": 1e-8,
                  "automorphisms": 1e-8}
        violated = {k: v for k, v in checks.items()
                    if not (v >= limits[k] if k == "faithfulness_min_sv" else v <= limits[k])}
        return ({"pass": not violated, "checks": checks, "preset": self.name,
                 "n": self.n, "block_dims": list(self.algebra.block_dims)}, violated)
