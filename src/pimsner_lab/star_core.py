"""Finite-dimensional C*-algebra arithmetic.

The coefficient algebra is always A = M_{d_1} + ... + M_{d_B} (a finite
direct sum of full complex matrix algebras), stored blockwise.  All
comparisons are tolerance based; tolerances live in a single
:class:`Tolerances` record so certificates can embed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlgebraSpec",
    "AElement",
    "Automorphism",
    "Tolerances",
    "ConfigurationError",
    "SpecMismatchError",
    "make_algebra",
    "sample",
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

    def unit(self) -> "AElement":
        return AElement(self, [np.eye(d, dtype=complex) for d in self.block_dims])

    def zero(self) -> "AElement":
        return AElement(self, [np.zeros((d, d), dtype=complex) for d in self.block_dims])

    def scalar(self, z: complex) -> "AElement":
        return self.unit() * z

    def basis(self):
        """Matrix-unit basis of A: yields (block, row, col, element)."""
        for s, d in enumerate(self.block_dims):
            for u in range(d):
                for v in range(d):
                    e = self.zero()
                    e.blocks[s][u, v] = 1.0
                    yield s, u, v, e


def make_algebra(block_dims) -> AlgebraSpec:
    return AlgebraSpec(tuple(int(d) for d in block_dims))


class AElement:
    """Element of A, one complex matrix per algebra block."""

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: AlgebraSpec, blocks):
        if len(blocks) != spec.n_blocks:
            raise SpecMismatchError("wrong number of blocks")
        self.spec = spec
        self.blocks = [np.asarray(b, dtype=complex) for b in blocks]
        for b, d in zip(self.blocks, spec.block_dims):
            if b.shape != (d, d):
                raise SpecMismatchError(f"block shape {b.shape} != ({d},{d})")

    def copy(self) -> "AElement":
        return AElement(self.spec, [b.copy() for b in self.blocks])

    def _check(self, other: "AElement"):
        if self.spec != other.spec:
            raise SpecMismatchError("operands over different algebras")

    def __add__(self, other: "AElement") -> "AElement":
        self._check(other)
        return AElement(self.spec, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AElement") -> "AElement":
        self._check(other)
        return AElement(self.spec, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, z) -> "AElement":
        return AElement(self.spec, [b * complex(z) for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self) -> "AElement":
        return self * (-1.0)

    def __matmul__(self, other: "AElement") -> "AElement":
        self._check(other)
        return AElement(self.spec, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AElement":
        return AElement(self.spec, [b.conj().T for b in self.blocks])

    def flatten(self) -> np.ndarray:
        """Block-diagonal complex matrix; a faithful unital *-homomorphism."""
        n = self.spec.total_dim
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for b, d in zip(self.blocks, self.spec.block_dims):
            out[off:off + d, off:off + d] = b
            off += d
        return out

    def norm(self) -> float:
        return max(spectral_norm(b) for b in self.blocks)

    def is_hermitian(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return all(np.max(np.abs(b - b.conj().T)) <= tol.eq_tol for b in self.blocks)

    def is_positive(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        if not self.is_hermitian(tol):
            return False
        herm = [(b + b.conj().T) / 2 for b in self.blocks]
        return all(np.linalg.eigvalsh(b).min() >= -tol.psd_tol for b in herm)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(b))) for b in self.blocks)

    def allclose(self, other: "AElement", tol: float = DEFAULT_TOL.eq_tol) -> bool:
        self._check(other)
        return (self - other).max_abs() <= tol

    def __repr__(self):
        return f"AElement(dims={self.spec.block_dims})"


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
        for u, d in zip(us, dims):
            if u.shape != (d, d):
                raise ConfigurationError("unitary block of wrong shape")
            if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-8:
                raise ConfigurationError("automorphism data is not unitary")
        object.__setattr__(self, "unitaries", us)
        pinv = [0] * len(self.perm)
        for s, t in enumerate(self.perm):
            pinv[t] = s
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
        """alpha(x) for an AElement, or entrywise for an AMatrix: each block
        conjugated on its trailing (d, d) axes.  The result shares the arrays
        of identity blocks with ``x``."""
        if x.spec != self.spec:
            raise SpecMismatchError("element over a different algebra")
        out = [x.blocks[src] if left is None else left @ x.blocks[src] @ right
               for src, left, right in self._forward]
        if isinstance(x, AElement):
            return AElement(self.spec, out)
        return type(x)._new(x.spec, x.rows, x.cols, out)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        # block s of the composite conjugates by W_{sigma1^-1(s)} V_s
        p = tuple(self.perm[other.perm[s]] for s in range(self.spec.n_blocks))
        s1inv = self._perm_inv
        us = tuple(np.asarray(other.unitaries[s1inv[s]]) @ self.unitaries[s]
                   for s in range(self.spec.n_blocks))
        return Automorphism(self.spec, p, us)


def sample(spec: AlgebraSpec, kind: str, seed: int) -> AElement:
    """Deterministic random element of the requested kind."""
    rng = np.random.default_rng(seed)
    blocks = []
    for d in spec.block_dims:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "element":
            blocks.append(z)
        elif kind == "hermitian":
            blocks.append((z + z.conj().T) / 2)
        elif kind == "positive":
            blocks.append(z.conj().T @ z / d)
        elif kind == "unitary":
            q, r = np.linalg.qr(z)
            # fix the phase ambiguity of QR so the result is seed-stable
            ph = np.diag(r).copy()
            ph[ph == 0] = 1.0
            blocks.append(q * (ph / np.abs(ph)))
        else:
            raise ConfigurationError(f"unknown sample kind {kind!r}")
    return AElement(spec, blocks)
