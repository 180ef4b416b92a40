"""Conditional expectations onto A along the tower M_{n^k}(A).

The tower consists of the embeddings j_k: T -> T (x) 1 with inductive limit
represented only by finitely many compatible levels.  The expectations are
built by inverting one tensor layer at a time: undo the twist by U, undo the
diagonal automorphisms, then average the diagonal (normalised trace).  The
induced operator map eps-hat is *defined* as the entrywise application of
the level expectation in the fixed coordinates, and the induced module map
eps-bar is eps-hat on a column over B = M_{n^level}(A), which is stored as
a (rank * n^level) x n^level matrix over A; the defining formulas from the
lifting machinery are then asserted as theorems by the test-suite rather
than used as definitions.

eps-hat is computed as ``level`` peels of the whole matrix rather than one
Ex_level per B-entry: a B-entry is a contiguous n^level x n^level block of
the outer indices, and every tensor layer is the least significant index,
so peeling the n x n cells of the whole matrix peels every B-entry at once.
"""

from __future__ import annotations

import numpy as np

from .star_core import DEFAULT_TOL, SpecMismatchError
from .hilbert_mod import CHOI_CAP, AMatrix, LinearMapTable, cp_check_auto, json_float, sample
from .correspondence import CorrespondenceSpec

__all__ = [
    "ex_k",
    "eps_hat",
    "ex_k_table",
    "verify_cond_exp",
]

# random samples per axiom that ``verify_cond_exp`` checks
COND_EXP_SAMPLES = 5


def _peel_layer(spec: CorrespondenceSpec, x: AMatrix) -> AMatrix:
    """Ex_1 on every n x n cell, M_{m n, m' n}(A) -> M_{m, m'}(A): the
    diagonal entries of Ad(I (x) U*) x, alpha_i^-1 on the i-th, and their
    average.  The diagonal is contracted against U's blocks directly.  A
    stack is peeled element by element: its leading axes stay outside every
    matrix product, so each element gets the same BLAS calls, and the same
    bits, as it does alone.

    The contraction against U* runs over an axis of length n d only, so it
    is a multiply-add per index rather than a BLAS call: over thousands of
    rows a threaded BLAS product of that shape wakes a second thread that
    then spins for no gain."""
    n = spec.n
    if x.rows % n or x.cols % n:
        raise SpecMismatchError("matrix sides must be multiples of n")
    m, mc = x.rows // n, x.cols // n
    lead = x.stack_shape
    k = len(lead)
    stack = tuple(range(k))
    # (..., m, n, mc, n, d, d) -> (..., m, n, d, mc, n, d): each cell row (i, y)
    to_cells = stack + (k, k + 1, k + 4, k + 2, k + 3, k + 5)
    # (..., n, m, d, mc, d) -> (n, ..., m, mc, d, d): the layer first
    to_layer = (k,) + stack + (k + 1, k + 3, k + 2, k + 4)
    diags = []
    for b, u, d in zip(x.blocks, spec.unitary.blocks, spec.algebra.block_dims):
        # rows (i, x) of U against the cells' rows (a, y): every row i of
        # U x_cell at once, then row i of that against row i of U
        cells = b.reshape(lead + (m, n, mc, n, d, d)).transpose(to_cells)
        rows = u.transpose(0, 2, 1, 3).reshape(n * d, n * d) @ cells.reshape(
            lead + (m, n * d, mc * n * d))
        rows = (rows.reshape(lead + (m, n, d, mc, n * d)).swapaxes(-5, -4)
                .reshape(lead + (n, m * d * mc, n * d)))
        # row i of U*'s columns, (n, 1, d) per contracted index (j, z)
        u_star = u.conj().transpose(0, 1, 3, 2).reshape(n, n * d, 1, d)
        diag = rows[..., 0:1] * u_star[:, 0]
        for c in range(1, n * d):
            diag += rows[..., c:c + 1] * u_star[:, c]
        diags.append(diag.reshape(lead + (n, m, d, mc, d)).transpose(to_layer))
    acc = None
    for i, inv_alpha in enumerate(spec._alpha_invs):
        term = inv_alpha.apply(AMatrix._new(spec.algebra, m, mc, [dg[i] for dg in diags]))
        acc = term if acc is None else acc + term
    return acc * (1.0 / n)


def ex_k(spec: CorrespondenceSpec, k: int, x: AMatrix) -> AMatrix:
    """Ex_k: M_{n^k}(A) -> A (1 x 1), peeling one tensor layer at a time."""
    if x.rows != spec.n ** k or x.rows != x.cols:
        raise SpecMismatchError(f"expected a {spec.n ** k} x {spec.n ** k} matrix")
    return eps_hat(spec, k, x)


def eps_hat(spec: CorrespondenceSpec, level: int, t: AMatrix) -> AMatrix:
    """Entrywise Ex_level on an m x m' matrix over B = M_{n^level}(A), or on
    each element of a stack of them, as ``level`` peels of the whole matrix."""
    nk = spec.n ** level
    if t.rows % nk or t.cols % nk:
        raise SpecMismatchError("matrix does not match the requested level")
    for _ in range(level):
        t = _peel_layer(spec, t)
    return t


def ex_k_table(spec: CorrespondenceSpec, k: int) -> LinearMapTable:
    return LinearMapTable(spec.algebra, spec.n ** k, 1, lambda x, row: eps_hat(spec, k, x))


def verify_cond_exp(spec: CorrespondenceSpec, level: int, seed: int = 23,
                    choi_cap: int = CHOI_CAP) -> dict:
    """Check the conditional-expectation axioms for Ex_level.

    (i) Ex o phi = id; (ii) bimodule property; (iii) Schwarz positivity;
    (iv) tower compatibility Ex_{level+1} o j_level = Ex_level; (v) CP and
    contractivity.  Returns a report with the worst deviation per axiom,
    folded over the samples with ``np.max``/``np.min``, which carry a NaN
    through to a failing axiom and a null in the report."""
    nk = spec.n ** level
    axioms = {}
    devs_id, devs_bimod, schwarz = [], [], []
    for t in range(COND_EXP_SAMPLES):
        a = sample(spec.algebra, seed + 10 * t)
        b = sample(spec.algebra, seed + 10 * t + 1)
        x = _sample_matrix(spec, nk, seed + 10 * t + 2)
        devs_id.append((ex_k(spec, level, spec.phi_k(a, level)) - a).max_abs())
        lhs = ex_k(spec, level,
                   spec.phi_k(a, level) @ x @ spec.phi_k(b, level))
        ex_x = ex_k(spec, level, x)
        rhs = a @ ex_x @ b
        devs_bimod.append((lhs - rhs).max_abs())
        y = ex_k(spec, level, x.adjoint() @ x)
        z = ex_x.adjoint() @ ex_x
        schwarz.append((y - z).min_eig())
    dev_id, dev_bimod = float(np.max(devs_id)), float(np.max(devs_bimod))
    schwarz_min = float(np.min(schwarz))
    axioms["idempotence"] = {"max_dev": json_float(dev_id), "pass": dev_id <= DEFAULT_TOL.eq_tol}
    axioms["bimodule"] = {"max_dev": json_float(dev_bimod),
                          "pass": dev_bimod <= DEFAULT_TOL.eq_tol}
    axioms["schwarz"] = {"min_eig": json_float(schwarz_min),
                         "pass": schwarz_min >= -DEFAULT_TOL.psd_tol}
    devs_tower = []
    if level + 1 <= spec.max_degree:
        for t in range(COND_EXP_SAMPLES):
            x = _sample_matrix(spec, nk, seed + 100 + t)
            devs_tower.append((ex_k(spec, level + 1, spec.amplify(x, 1))
                               - ex_k(spec, level, x)).max_abs())
    dev_tower = float(np.max(devs_tower, initial=0.0))
    axioms["tower"] = {"max_dev": json_float(dev_tower),
                       "pass": dev_tower <= DEFAULT_TOL.eq_tol}
    cp = cp_check_auto(ex_k_table(spec, level), choi_cap=choi_cap, seed=seed + 999)
    axioms["cp"] = dict(cp.to_dict(), contractive=cp.contractive)
    ok = all(v.get("pass", True) for v in axioms.values()) \
        and cp.contractive and cp.unital_defect <= 1e-8
    return {"level": level, "pass": bool(ok), "axioms": axioms}


def _sample_matrix(spec: CorrespondenceSpec, side: int, seed: int) -> AMatrix:
    """Random side x side matrix over A whose (i, j) entry is
    ``sample(A, seed * 613 + i * side + j)``: that entry's
    generator draws, per algebra block, the real and then the imaginary
    (d, d) part straight into the (side, side, d, d) arrays."""
    dims = spec.algebra.block_dims
    blocks = [np.empty((side, side, d, d), dtype=complex) for d in dims]
    for i in range(side):
        for j in range(side):
            rng = np.random.default_rng(seed * 613 + i * side + j)
            for out, d in zip(blocks, dims):
                out[i, j].real = rng.standard_normal((d, d))
                out[i, j].imag = rng.standard_normal((d, d))
    return AMatrix(spec.algebra, side, side, blocks)
