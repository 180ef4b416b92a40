"""Finite-dimensional C*-algebra data: the algebra spec, automorphisms, tolerances.

The coefficient algebra is always A = M_{d_1} + ... + M_{d_B} (a finite
direct sum of full complex matrix algebras), stored blockwise; its elements
are 1 x 1 :class:`~pimsner_lab.hilbert_mod.AMatrix` values.  All
comparisons are tolerance based; every check reads its threshold from the
one :class:`Tolerances` record, ``DEFAULT_TOL``, and certificates embed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlgebraSpec",
    "Automorphism",
    "Tolerances",
    "ConfigurationError",
    "SpecMismatchError",
    "spectral_norm",
]


class ConfigurationError(ValueError):
    """Invalid construction data (bad dimensions, non-unitary data, ...)."""


class SpecMismatchError(ValueError):
    """Operands live over different algebra specs or have wrong shapes."""


@dataclass(frozen=True)
class Tolerances:
    eq_tol: float = 1e-9
    psd_tol: float = 1e-8
    norm_rel_tol: float = 1e-10

    def __post_init__(self):
        if min(self.eq_tol, self.psd_tol, self.norm_rel_tol) <= 0:
            raise ConfigurationError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class AlgebraSpec:
    """A = direct sum of full matrix algebras with the given block sizes."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise ConfigurationError("algebra needs at least one block")
        if any(d < 1 for d in self.block_dims):
            raise ConfigurationError(f"nonpositive block dimension in {self.block_dims}")

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)


def AElement(spec: AlgebraSpec, blocks):
    """The element of A with the given (d, d) blocks, as a 1 x 1 AMatrix.
    Kept only for ``perfbench/checks.py``; elsewhere build the AMatrix."""
    from .hilbert_mod import AMatrix
    return AMatrix(spec, 1, 1, [np.asarray(b)[None, None] for b in blocks])


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, by LAPACK's SVD."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of A: (sigma, {V_s}) acting by a -> (V_s* a_{sigma^-1(s)} V_s)_s.

    Every automorphism of a finite direct sum of full matrix algebras is of
    this form; sigma must preserve block dimensions.  The inverse
    permutation, which blocks have V_s exactly the identity, and the
    adjoints of the other V_s are precomputed, so ``apply`` passes identity
    blocks through untouched.
    """

    spec: AlgebraSpec
    perm: tuple[int, ...]
    unitaries: tuple = field(default=None)
    # what apply does per target block: (source block, left, right), with
    # left = right = None where V is exactly the identity
    _perm_inv: tuple = field(init=False, compare=False, repr=False)
    _forward: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.spec.n_blocks)):
            raise ConfigurationError(f"{self.perm} is not a permutation")
        dims = self.spec.block_dims
        for s in range(len(dims)):
            if dims[self.perm[s]] != dims[s]:
                raise ConfigurationError("permutation does not preserve block dimensions")
        us = self.unitaries
        if us is None:
            us = tuple(np.eye(d, dtype=complex) for d in dims)
        us = tuple(np.asarray(u, dtype=complex) for u in us)
        if len(us) != len(dims):
            raise ConfigurationError(f"{len(us)} unitary blocks for {len(dims)} algebra blocks")
        for u, d in zip(us, dims):
            if u.shape != (d, d):
                raise ConfigurationError("unitary block of wrong shape")
            if not (np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-8):  # NaN is refused
                raise ConfigurationError("automorphism data is not unitary")
        object.__setattr__(self, "unitaries", us)
        pinv = sorted(range(len(dims)), key=self.perm.__getitem__)  # pinv[perm[s]] = s
        adj = [None if np.array_equal(u, np.eye(d)) else u.conj().T
               for u, d in zip(us, dims)]
        object.__setattr__(self, "_perm_inv", tuple(pinv))
        object.__setattr__(self, "_forward", tuple(
            (pinv[s], adj[s], None if adj[s] is None else us[s])
            for s in range(len(dims))))

    @classmethod
    def identity(cls, spec: AlgebraSpec) -> "Automorphism":
        return cls(spec, tuple(range(spec.n_blocks)))

    def inverse(self) -> "Automorphism":
        # closed form: (sigma^-1, {V_{sigma(s)}*})
        return Automorphism(
            self.spec,
            self._perm_inv,
            tuple(self.unitaries[self.perm[s]].conj().T for s in range(self.spec.n_blocks)),
        )

    def apply(self, x):
        """alpha applied entrywise to an AMatrix (an element of A is a 1 x 1
        one): each block conjugated on its trailing (d, d) axes.  The result
        shares the arrays of identity blocks with ``x``."""
        if x.spec != self.spec:
            raise SpecMismatchError("element over a different algebra")
        out = [x.blocks[src] if left is None else left @ x.blocks[src] @ right
               for src, left, right in self._forward]
        return type(x)._new(x.spec, x.rows, x.cols, out)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        # block s of the composite conjugates by W_{sigma1^-1(s)} V_s
        p = tuple(self.perm[other.perm[s]] for s in range(self.spec.n_blocks))
        s1inv = self._perm_inv
        us = tuple(np.asarray(other.unitaries[s1inv[s]]) @ self.unitaries[s]
                   for s in range(self.spec.n_blocks))
        return Automorphism(self.spec, p, us)
