"""Free Hilbert A-modules and complete-positivity certification.

An :class:`AMatrix` is a p x q matrix over A = direct sum of matrix blocks,
i.e. an adjointable map A^q -> A^p between free modules.  An element of A
is a 1 x 1 AMatrix (:func:`sample`, :func:`matrix_units` and ``AMatrix.eye``
make them), so A shares the arithmetic of M_D(A).  Positivity and
norms of A-matrices are *defined* per algebra block through
:meth:`AMatrix.flatten_block`, a *-homomorphism onto complex matrices.

Complete positivity of a :class:`LinearMapTable`, a map M_p(A) -> M_q(A),
is checked by the Choi matrix of each domain block (exact) or by a
randomized positivity probe (necessary only), one algebra block at a time:
an image is block diagonal over the codomain's blocks.  Both return a
:class:`CPReport` of numbers, which decides every CP verdict.  A map that
reads only some rows and columns of M_p(A) (``LinearMapTable.reads``) is
checked on that corner alone, once a seeded test of the promise passes.
Eigenvalues are solved exactly per connected component of the matrix's
nonzero pattern, and serialized on a grid derived from ``psd_tol``
(:func:`tol_grid`) so reports do not depend on BLAS threads.  The Choi
matrices are almost diagonal, so a Choi check keeps only their nonzero
entries: a row linked to no other is a 1 x 1 component read off the
diagonal, and the linked rows alone are gathered into one dense matrix
(see :func:`_choi_min_eig`).
A probe output, the image of a dense Gaussian Gram matrix, is screened whole.
The checks need only the least eigenvalue, so one running minimum is carried
through every component, probe trial, domain block and algebra block, and a
component is solved only when a Cholesky screen cannot rule out that it sets
a new minimum (see :func:`_dense_min_eig`).  A non-finite entry reads NaN,
which the running minimum and maximum carry through, so no verdict passes it.
They run on sides of a few hundred, where a second OpenBLAS thread only spins
on another core, so :func:`cp_check_auto` runs on one (:func:`_one_blas_thread`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .star_core import (
    AlgebraSpec,
    DEFAULT_TOL,
    SpecMismatchError,
    spectral_norm,
)

__all__ = [
    "AMatrix",
    "LinearMapTable",
    "matrix_units",
    "sample",
    "CPReport",
    "inner",
    "rank_one",
    "choi_cp_check",
    "positivity_probe",
]

CHOI_CAP = 4096
# the probe ``cp_check_auto`` falls back to above the cap: Phi x id_{M_k}, trials
PROBE_K, PROBE_TRIALS = 2, 50
# largest max |M - M*| a CP check accepts (Choi matrices and probe outputs)
HERMITIAN_DEV_TOL = 1e-7


class AMatrix:
    """p x q matrix over A, stored per algebra block as a (p, q, d, d) array.

    The block arrays may carry leading axes, (..., p, q, d, d): a stack of
    p x q matrices.  Sums, scalar multiples, ``submatrix``, the flattenings,
    ``from_flat``, the amplifications of a correspondence and ``eps_hat``
    act on every element of a stack; products, adjoints and the metrics take
    one matrix.

    Only the public constructor converts and checks its blocks (complex
    dtype, block shapes, one stack depth); arithmetic, ``adjoint``,
    ``submatrix``, ``copy``, ``amplify1``, :func:`sample` and
    ``Automorphism.apply`` build their results, correct by construction,
    through :meth:`_new`.  A result may share arrays with its operands
    (``submatrix``, ``from_flat`` and the identity blocks of ``apply``), so
    write only into matrices made fresh, e.g. by :meth:`zeros` or :meth:`copy`.
    """

    __slots__ = ("spec", "rows", "cols", "blocks")

    def __init__(self, spec: AlgebraSpec, rows: int, cols: int, blocks):
        if len(blocks) != spec.n_blocks:
            raise SpecMismatchError(f"{len(blocks)} block arrays for {spec.n_blocks} blocks")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.blocks = [np.asarray(b, dtype=complex) for b in blocks]
        ndim = self.blocks[0].ndim
        for b, d in zip(self.blocks, spec.block_dims):
            if b.shape[-4:] != (rows, cols, d, d) or b.ndim != ndim:
                raise SpecMismatchError(f"block array {b.shape} != {(rows, cols, d, d)}")

    @classmethod
    def _new(cls, spec: AlgebraSpec, rows: int, cols: int, blocks: list) -> "AMatrix":
        """Wrap a list of complex (..., rows, cols, d, d) arrays unchecked."""
        out = object.__new__(cls)
        out.spec = spec
        out.rows = rows
        out.cols = cols
        out.blocks = blocks
        return out

    @property
    def stack_shape(self) -> tuple:
        """The leading axes of a stack; () for one matrix."""
        return self.blocks[0].shape[:-4]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, spec: AlgebraSpec, rows: int, cols: int) -> "AMatrix":
        return cls(spec, rows, cols,
                   [np.zeros((rows, cols, d, d), dtype=complex) for d in spec.block_dims])

    @classmethod
    def eye(cls, spec: AlgebraSpec, n: int) -> "AMatrix":
        out = cls.zeros(spec, n, n)
        for s, d in enumerate(spec.block_dims):
            idx = np.arange(n)
            out.blocks[s][idx, idx] = np.eye(d)
        return out

    def submatrix(self, row_slice, col_slice) -> "AMatrix":
        bs = [b[..., row_slice, col_slice, :, :] for b in self.blocks]
        return AMatrix._new(self.spec, bs[0].shape[-4], bs[0].shape[-3], bs)

    def copy(self) -> "AMatrix":
        return AMatrix._new(self.spec, self.rows, self.cols, [b.copy() for b in self.blocks])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "AMatrix", same_shape=True):
        if self.spec != other.spec:
            raise SpecMismatchError("operands over different algebras")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise SpecMismatchError("shape mismatch")

    def __add__(self, other: "AMatrix") -> "AMatrix":
        self._check(other)
        return AMatrix._new(self.spec, self.rows, self.cols,
                            [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AMatrix") -> "AMatrix":
        self._check(other)
        return AMatrix._new(self.spec, self.rows, self.cols,
                            [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, z) -> "AMatrix":
        return AMatrix._new(self.spec, self.rows, self.cols,
                            [b * complex(z) for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self) -> "AMatrix":
        return self * (-1.0)

    def __matmul__(self, other: "AMatrix") -> "AMatrix":
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise SpecMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p, q, r = self.rows, self.cols, other.cols
        out = []
        for a, b in zip(self.blocks, other.blocks):
            d = a.shape[-1]
            # the flattened (p d, q d) @ (q d, r d) product, one BLAS call
            flat = (a.transpose(0, 2, 1, 3).reshape(p * d, q * d)
                    @ b.transpose(0, 2, 1, 3).reshape(q * d, r * d))
            out.append(flat.reshape(p, d, r, d).transpose(0, 2, 1, 3))
        return AMatrix._new(self.spec, p, r, out)

    def adjoint(self) -> "AMatrix":
        out = [np.conj(np.transpose(b, (1, 0, 3, 2))) for b in self.blocks]
        return AMatrix._new(self.spec, self.cols, self.rows, out)

    # -- flattening and metrics -------------------------------------------

    def flatten_block(self, s: int) -> np.ndarray:
        d = self.spec.block_dims[s]
        b = self.blocks[s].swapaxes(-3, -2)
        return b.reshape(self.stack_shape + (self.rows * d, self.cols * d))

    def flatten(self) -> np.ndarray:
        """Direct sum over algebra blocks of the (p d_s) x (q d_s) matrices
        (a stack of them for a stack), zero between the blocks."""
        mats = [self.flatten_block(s) for s in range(self.spec.n_blocks)]
        offs = np.cumsum([(0, 0)] + [m.shape[-2:] for m in mats], axis=0)
        out = np.zeros(self.stack_shape + tuple(offs[-1]), dtype=complex)
        for m, (r, c) in zip(mats, offs):
            out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        return out

    @classmethod
    def from_flat(cls, spec: AlgebraSpec, rows: int, cols: int, flats) -> "AMatrix":
        """Inverse of :meth:`flatten_block`, from one (..., rows d_s, cols d_s)
        array per algebra block s; stacks give a stack.  The blocks of
        complex arrays are views of them, not copies."""
        return cls(spec, rows, cols,
                   [m.reshape(m.shape[:-2] + (rows, d, cols, d)).swapaxes(-3, -2)
                    for m, d in zip(flats, spec.block_dims)])

    def norm(self) -> float:
        """The spectral norm; NaN when an entry is not finite, which no SVD
        is given."""
        if not all(np.isfinite(b).all() for b in self.blocks):
            return np.nan
        return float(np.max([spectral_norm(self.flatten_block(s))
                             for s in range(self.spec.n_blocks)]))

    def max_abs(self) -> float:
        """max |entry|, NaN when any algebra block holds a NaN."""
        return float(np.max([np.max(np.abs(b)) if b.size else 0.0 for b in self.blocks]))

    def min_eig(self) -> float:
        low = np.inf
        for s in range(self.spec.n_blocks):
            low = _hermitian_min_eig(self.flatten_block(s), low)[0]
        return low

    def __repr__(self):
        return f"AMatrix({self.rows}x{self.cols}, dims={self.spec.block_dims})"


def sample(spec: AlgebraSpec, seed: int) -> AMatrix:
    """Deterministic random element of A (a 1 x 1 AMatrix): per algebra
    block, a real and then an imaginary standard normal (d, d) draw."""
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for d in spec.block_dims]
    return AMatrix._new(spec, 1, 1, [b[None, None] for b in blocks])


def matrix_units(spec: AlgebraSpec):
    """The matrix-unit basis of A as 1 x 1 AMatrices: e^s_uv for each block
    s, row u and column v, in that order."""
    for s, d in enumerate(spec.block_dims):
        for u in range(d):
            for v in range(d):
                e = AMatrix.zeros(spec, 1, 1)
                e.blocks[s][0, 0, u, v] = 1.0
                yield e


def inner(xi: AMatrix, eta: AMatrix) -> AMatrix:
    """Module inner product <xi, eta> = sum_i xi_i* eta_i in A for column vectors."""
    if xi.cols != 1 or eta.cols != 1:
        raise SpecMismatchError("inner product expects column vectors")
    return xi.adjoint() @ eta


def rank_one(mu: AMatrix, nu: AMatrix) -> AMatrix:
    """e_{mu,nu}: xi -> mu <nu, xi>; entries mu_i nu_l*."""
    if mu.cols != 1 or nu.cols != 1:
        raise SpecMismatchError("rank_one expects column vectors")
    return mu @ nu.adjoint()


# ---------------------------------------------------------------------------
# linear maps M_p(A) -> M_q(A) and their CP checks
# ---------------------------------------------------------------------------

@dataclass
class CPReport:
    """A CP check's record, whose verdicts read its unrounded fields.  For a
    CP map, ||Phi||_cb = ||Phi(1)|| (Paulsen, Prop. 3.6), so ``passed`` with
    ``contractive`` certifies a CP contraction."""

    method: str                # "choi" or "probe"
    min_eigenvalue: float      # Choi min eigenvalue, or worst probe eigenvalue
    unital_defect: float       # ||Phi(1) - 1||
    norm_bound: float          # ||Phi(1)||, which is ||Phi||_cb for CP maps
    hermitian_dev: float       # largest max |M - M*| over Choi matrices or probe outputs
    reads_dev: float | None = None  # the ``reads`` test's deviation (:func:`_reads_check`)

    @property
    def passed(self) -> bool:
        return bool((self.reads_dev is None or self.reads_dev <= DEFAULT_TOL.eq_tol)
                    and self.hermitian_dev <= HERMITIAN_DEV_TOL
                    and self.min_eigenvalue >= -DEFAULT_TOL.psd_tol)

    @property
    def contractive(self) -> bool:
        return bool(self.norm_bound <= 1 + DEFAULT_TOL.norm_rel_tol)

    def to_dict(self):
        return {
            "method": self.method,
            "min_eig": tol_grid(self.min_eigenvalue, DEFAULT_TOL.psd_tol),
            "unital_defect": tol_grid(self.unital_defect, DEFAULT_TOL.eq_tol),
            "norm_bound": tol_grid(self.norm_bound, DEFAULT_TOL.eq_tol),
            "pass": self.passed,
        }


def tol_grid(value: float, threshold: float) -> float | None:
    """``value`` rounded three decimal places below the ``threshold`` it is
    checked against (to 1e-11 for psd_tol = 1e-8, to 1e-12 for eq_tol =
    1e-9), -0.0 read as 0.0: the last digits of BLAS and LAPACK results vary
    with the BLAS thread count.  Reports serialize computed values this way,
    a non-finite one as None (JSON null); verdicts use the unrounded value."""
    if not math.isfinite(value):
        return None
    digits = 3 - math.floor(math.log10(threshold))
    return round(value, digits) + 0.0


def json_float(value: float) -> float | None:
    """``value`` as reports write a raw (ungridded) float: exactly, or as
    None (JSON null) when it is not finite."""
    return float(value) if math.isfinite(value) else None


def _hermitian_min_eig(mat: np.ndarray, bound: float = np.inf) -> tuple[float, float]:
    """(min(bound, least eigenvalue of (M + M*)/2), max |M - M*|), solved
    per connected component of the symmetrized nonzero pattern of M, each by
    :func:`_dense_min_eig` (on M itself, uncopied, when one component covers
    every row).  Exact: a symmetric permutation makes M block diagonal, and
    every entry between two components is zero in both M and M*.  NaN for
    both when an entry is not finite: the running minimum and maximum carry
    NaN through."""
    link = mat != 0
    link |= link.T
    np.fill_diagonal(link, False)
    alone = ~link.any(axis=1)
    low, herm_dev = _diagonal_min_eig(mat.diagonal()[alone], bound)
    for idx in _components(link, ~alone):
        low, dev = _dense_min_eig(mat if idx.size == len(mat) else mat[np.ix_(idx, idx)], low)
        herm_dev = np.maximum(herm_dev, dev)
    return float(low), float(herm_dev)


def _diagonal_min_eig(diag: np.ndarray, bound: float) -> tuple[float, float]:
    """:func:`_hermitian_min_eig` of the 1 x 1 components with entries ``diag``."""
    if not diag.size:
        return bound, 0.0
    if not np.isfinite(diag).all():
        return np.nan, np.nan
    return float(np.minimum(bound, diag.real.min())), float(2 * np.abs(diag.imag).max())


def _dense_min_eig(mat: np.ndarray, low: float) -> tuple[float, float]:
    """(min(low, least eigenvalue of H), max |M - M*|) for one dense M and H =
    (M + M*)/2, both formed in one buffer (H * 0.5: H / 2 but for zero signs).

    H is eigen-solved only if it can set a new minimum: while ``low`` is
    finite, H - low I is first Cholesky-factored, and if that succeeds H has
    no eigenvalue below low less the backward error of Cholesky, about side *
    eps * ||H|| (below 2e-12 in the default certificates of all four presets),
    far under the 1e-11 grid ``min_eig`` is serialized on.  A non-finite entry
    makes the deviation non-finite: both read NaN, before any LAPACK call."""
    buf = np.conjugate(mat.T, order="C")
    dev = float(np.max(np.abs(np.subtract(mat, buf, out=buf))))
    if not math.isfinite(dev):
        return np.nan, np.nan
    herm = np.add(mat, np.conjugate(mat.T, out=buf), out=buf)
    herm *= 0.5
    if low < np.inf and _bounded_below(herm, low):
        return low, dev
    return float(np.minimum(low, np.linalg.eigvalsh(herm)[0])), dev


def _bounded_below(herm: np.ndarray, low: float) -> bool:
    """Whether ``herm - low I`` has a Cholesky factor, i.e. no eigenvalue of
    the Hermitian ``herm`` lies below ``low`` (up to backward error).  The
    diagonal is shifted in place and restored when the factorization fails,
    so no second copy of ``herm`` is made."""
    diag = herm.diagonal().copy()
    np.fill_diagonal(herm, diag - low)
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        np.fill_diagonal(herm, diag)
        return False
    return True


def _components(link: np.ndarray, todo: np.ndarray):
    """Index arrays of the connected components of the graph with symmetric
    boolean adjacency ``link`` that contain a vertex marked in ``todo``."""
    todo = todo.copy()
    while todo.any():
        members = np.zeros_like(todo)
        members[np.argmax(todo)] = True
        frontier = members.copy()
        while frontier.any():
            frontier = link[frontier].any(axis=0) & ~members
            members |= frontier
        todo &= ~members
        yield np.flatnonzero(members)


class LinearMapTable:
    """Linear map M_p(A) -> M_q(A) over the algebra ``spec``.

    ``apply`` maps a stack of p x p matrices (an AMatrix with stack axes) to
    the stack of q x q images; the callable passed in takes the stack and
    that method's row hint, or None.  Flattened, domain block s is a full
    matrix algebra of side p d_s (``domain_sides``); a map is completely
    positive iff each block restriction is, which the Choi assembly checks.

    ``reads`` holds the sorted rows (and columns) of M_p(A) the map reads: a
    promise that Phi = Phi o Ad Q for the coordinate projection Q onto them.
    It defaults to every row.  The CP checks work on that corner alone, and
    test the promise first.
    """

    def __init__(self, spec: AlgebraSpec, p: int, q: int, apply, reads=None):
        self.spec, self.p, self.q = spec, int(p), int(q)
        self._apply = apply
        self.reads = np.arange(self.p) if reads is None else np.asarray(reads, dtype=np.intp)
        r = self.reads
        if r.ndim != 1 or r.size and (r[0] < 0 or r[-1] >= self.p or np.any(np.diff(r) <= 0)):
            raise SpecMismatchError("reads must be sorted rows of the domain")
        # the rows of each flattened domain block that ``reads`` covers
        self._flat_reads = [(r[:, None] * d + np.arange(d)).ravel() for d in spec.block_dims]

    @property
    def domain_sides(self) -> tuple:
        """The side p d_s of each flattened domain block."""
        return tuple(self.p * d for d in self.spec.block_dims)

    @property
    def codomain_dim(self) -> int:
        return self.q * sum(self.spec.block_dims)

    @property
    def restricted(self) -> bool:
        """Whether ``reads`` leaves out a row of the domain."""
        return self.reads.size < self.p

    def apply(self, x: AMatrix, row: int | None = None) -> AMatrix:
        """The map on each element of a stack.  A ``row`` hint promises that
        every nonzero entry of the stack lies in that row of M_p(A); a map may
        read only that row, and returns the same images either way.  An image
        may share memory with ``x`` (a corner view does): write nothing into it."""
        return self._apply(x, row)

    def basis_images(self):
        """Images of the matrix units the map reads, one domain block s at a
        time: for each block, an iterator over its read flat rows u, in
        order, that yields the stack of r images whose [j] is the image of
        e_uv for v the j-th of the block's r read flat rows (``_flat_reads``).
        Every other unit's image is zero by the ``reads`` promise, so these
        are the nonzero rows of the block's Choi matrix.  Each stack is the
        result of one ``apply``, hinted with the row u // d_s of M_p(A) that
        holds the row's unit stack; that unit stack, and an image that is a
        view of it, is rewritten for the next row once the iterator is advanced."""
        for s, rows in enumerate(self._flat_reads):
            yield self._row_images(s, rows)

    def _row_images(self, s: int, rows: np.ndarray):
        flats = [np.zeros((rows.size, m, m), dtype=complex) for m in self.domain_sides]
        units = AMatrix.from_flat(self.spec, self.p, self.p, flats)
        stack, d = np.arange(rows.size), self.spec.block_dims[s]
        for u in rows.tolist():
            flats[s][stack, u, rows] = 1.0
            yield self.apply(units, u // d)
            flats[s][stack, u, rows] = 0.0


def choi_cp_check(table: LinearMapTable) -> CPReport:
    """Exact CP check: per domain block, test the Choi matrix for PSD from
    its nonzero entries (:func:`_choi_min_eig`).

    Only the (r c)-side corner of the rows in ``reads`` is read and
    eigen-solved: the other rows of the Choi matrix are zero (Choi 1975;
    C(Phi o Ad Q) = C(Phi|QQ) (+) 0), so a table that reads less than its
    domain adds the eigenvalue 0.  Such a table first has its ``reads``
    tested; the record keeps the deviation (``reads_dev``) and the largest
    max |C - C*|.  It runs at any side; ``cp_check_auto`` applies the cap."""
    reads_dev = _reads_check(table)
    min_eig, herm_dev = _choi_min_eig(table)
    return CPReport("choi", float(min_eig), *_unit_image_norms(table), herm_dev, reads_dev)


def _choi_min_eig(table: LinearMapTable) -> tuple[float, float]:
    """(least eigenvalue, max |C - C*|) over the Choi matrices C of the
    table's domain blocks, as :func:`_hermitian_min_eig` finds them on each
    dense C, with a running minimum carried from block to block.

    An image is block diagonal over the codomain's algebra blocks t, so C is
    the direct sum over t of the Choi matrices C_t of the images' block-t
    parts.  No dense C_t is formed.  Each row's image stack is cut, per t, to
    the nonzero flat indices and values of its block-t part at once, and
    C_t's entries are decoded into rows and columns in one pass.  A row
    with no off-diagonal nonzero in its row or column is a 1 x 1 component:
    it adds its diagonal entry, or 0 where that is absent.  The other rows
    form one dense principal submatrix, which ``_hermitian_min_eig`` splits
    into the same components, with the same entries and in the same order,
    as it would split C_t."""
    dims = table.spec.block_dims
    # the zero rows outside ``reads`` hold the eigenvalue 0
    low = 0.0 if table.restricted else np.inf
    herm_dev = 0.0
    for s, images in enumerate(table.basis_images()):
        parts = [([], []) for _ in dims]  # per t: each row's flat indices, values
        for stack in images:
            for t, (flat_idx, values) in enumerate(parts):
                flat = stack.flatten_block(t).reshape(-1)
                k = np.flatnonzero(flat != 0)  # faster than on complex values
                flat_idx.append(k)
                values.append(flat[k])
        r = table.reads.size * dims[s]
        for (flat_idx, values), d in zip(parts, dims):
            c = table.q * d
            counts = [k.size for k in flat_idx]
            k = np.concatenate(flat_idx) if counts else np.zeros(0, dtype=np.intp)
            val = np.concatenate(values) if counts else np.zeros(0, dtype=complex)
            # flat index k of row i's (r, c, c) block-t stack is (j, a, b): entry
            # ((i, a), (j, b)) of C_t = Phi(e_{u_i u_j})_t[a, b]
            j, ab = np.divmod(k, c * c)
            a, b = np.divmod(ab, c)
            row = np.repeat(np.arange(r) * c, counts) + a
            col = j * c + b
            low, dev = _sparse_hermitian_min_eig(row, col, val, r * c, low)
            herm_dev = np.maximum(herm_dev, dev)
    return low, float(herm_dev)


def _sparse_hermitian_min_eig(row: np.ndarray, col: np.ndarray, val: np.ndarray,
                              side: int, bound: float) -> tuple[float, float]:
    """:func:`_hermitian_min_eig` of the side x side matrix whose nonzero
    entries are ``val`` at (``row``, ``col``), each position at most once,
    from those entries alone."""
    off_diag = row != col
    linked = np.zeros(side, dtype=bool)
    linked[row[off_diag]] = True
    linked[col[off_diag]] = True
    on_diag = ~off_diag
    diag = np.zeros(side, dtype=complex)
    diag[row[on_diag]] = val[on_diag]
    low, herm_dev = _diagonal_min_eig(diag[~linked], bound)
    # an entry in a linked row has a linked column: off the diagonal it
    # links that column too
    idx = np.flatnonzero(linked)
    pos = np.zeros(side, dtype=np.intp)
    pos[idx] = np.arange(idx.size)
    keep = linked[row]
    sub = np.zeros((idx.size, idx.size), dtype=complex)
    sub[pos[row[keep]], pos[col[keep]]] = val[keep]
    low, dev = _hermitian_min_eig(sub, low)
    return low, float(np.maximum(herm_dev, dev))


def _reads_check(table: LinearMapTable) -> float | None:
    """max |Phi(G) - Phi(Q G Q)| for one Gaussian element G of the domain,
    seeded with 0, and Q the coordinate projection onto ``reads``: exactly 0
    for a map that keeps that promise, and above 0 for almost every G when
    it reads elsewhere.  None for a table that reads its whole domain."""
    if not table.restricted:
        return None
    rng = np.random.default_rng(0)
    pairs = []
    for s, m in enumerate(table.domain_sides):
        pair = np.zeros((2, m, m), dtype=complex)
        pair[0] = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        kept = np.ix_(table._flat_reads[s], table._flat_reads[s])
        pair[1][kept] = pair[0][kept]
        pairs.append(pair)
    out = table.apply(AMatrix.from_flat(table.spec, table.p, table.p, pairs))
    return float(np.max([np.max(np.abs(b[0] - b[1])) for b in out.blocks]))


def positivity_probe(table: LinearMapTable, trials: int, seed: int) -> CPReport:
    """Necessary-condition CP check: apply Phi x id_{M_k}, k = PROBE_K, to
    seeded random positive elements and record the worst output eigenvalue.
    An output that is not Hermitian fails it as it fails the Choi check, and
    so does a table that reads outside its ``reads`` (tested first, as there).
    Each output, the image of a dense Gaussian Gram matrix, is one component,
    so it is screened whole (:func:`_dense_min_eig`); a NaN in it fails."""
    reads_dev = _reads_check(table)
    worst, herm_dev = np.inf, 0.0
    for out in _probe_outputs(table, PROBE_K, trials, seed):
        worst, dev = _dense_min_eig(out, worst)
        herm_dev = np.maximum(herm_dev, dev)
    return CPReport("probe", worst, *_unit_image_norms(table), float(herm_dev), reads_dev)


def _probe_outputs(table: LinearMapTable, k: int, trials: int, seed: int):
    """The images under Phi x id_{M_k} of the probe's seeded random positive
    elements, one trial after another, each split into its (k c_t, k c_t)
    parts over the codomain's algebra blocks t.  Each element is
    z* z / (m k) per domain block for a seeded complex Gaussian z, its real
    and then its imaginary part drawn whole; only the cells in ``reads`` x
    ``reads`` are formed, from the columns of z that reach them, as the map
    reads no other."""
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        # a random positive element of M_p(A) (x) M_k, as the stack of its
        # k^2 cells (a, b), each a domain element, one algebra block at a time
        cells = []
        for s, m in enumerate(table.domain_sides):
            rows = table._flat_reads[s]
            r = rows.size
            draw = rng.standard_normal((2, m * k, m * k))
            zr = np.empty((m * k, k * r), dtype=complex)
            zr.real, zr.imag = draw[..., (np.arange(k)[:, None] * m + rows).ravel()]
            x = zr.conj().T @ zr / (m * k)
            cell = np.zeros((k * k, m, m), dtype=complex)
            cell[:, rows[:, None], rows] = \
                x.reshape(k, r, k, r).transpose(0, 2, 1, 3).reshape(k * k, r, r)
            cells.append(cell)
        out = table.apply(AMatrix.from_flat(table.spec, table.p, table.p, cells))
        for t in range(table.spec.n_blocks):
            flat = out.flatten_block(t)
            c = flat.shape[-1]
            yield flat.reshape(k, k, c, c).transpose(0, 2, 1, 3).reshape(k * c, k * c)


def _unit_image_norms(table: LinearMapTable) -> tuple[float, float]:
    """(||Phi(1) - 1||, ||Phi(1)||): the unital defect and the norm bound;
    NaN for both when Phi(1) has a non-finite entry (:meth:`AMatrix.norm`)."""
    eye = [np.eye(m, dtype=complex)[None] for m in table.domain_sides]
    img = table.apply(AMatrix.from_flat(table.spec, table.p, table.p, eye))
    one_img = AMatrix._new(table.spec, table.q, table.q, [b[0] for b in img.blocks])
    return (one_img - AMatrix.eye(table.spec, table.q)).norm(), one_img.norm()


def cp_check_auto(table: LinearMapTable, choi_cap: int = CHOI_CAP,
                  seed: int = 0) -> CPReport:
    """The Choi check when the full side m c of every domain block's Choi
    matrix is within ``choi_cap``, the probe otherwise, on one BLAS thread."""
    with _one_blas_thread():
        if max(table.domain_sides) * table.codomain_dim <= choi_cap:
            return choi_cp_check(table)
        return positivity_probe(table, PROBE_TRIALS, seed)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count,
    also when it raises; a no-op without OpenBLAS (see the module notes)."""
    get, set_ = _openblas_threads() or (lambda: 1, lambda count: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:  # a mapped file's path ends its line
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps})
        libs = [ctypes.CDLL(p, mode=os.RTLD_NOLOAD)  # never loads a second copy
                for p in paths if "openblas" in os.path.basename(p)]
    except OSError:
        return None
    names = [f"{a}openblas_%s_num_threads{b}" for a in ("scipy_", "") for b in ("64_", "")]
    for lib, name in ((lib, name) for lib in libs for name in names):
        with contextlib.suppress(AttributeError):  # lib exports no such pair
            return (ctypes.CFUNCTYPE(ctypes.c_int)((name % "get", lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((name % "set", lib)))
    return None
