"""The Choi check, which keeps only the nonzero entries of each Choi block,
against a dense reference: the Choi matrix built from one map application
per matrix unit and handed whole to ``_hermitian_min_eig``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.expectation import ex_k_table
from pimsner_lab.fock import FockWindow
from pimsner_lab.hilbert_mod import (
    AMatrix,
    LinearMapTable,
    _choi_min_eig,
    _hermitian_min_eig,
    choi_cp_check,
)
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import PRESETS, build_preset
from pimsner_lab.star_core import AlgebraSpec


def direct_sum(x):
    """The one matrix x flattened as the direct sum of its algebra blocks."""
    mats = [x.flatten_block(t) for t in range(x.spec.n_blocks)]
    side = sum(m.shape[0] for m in mats)
    out = np.zeros((side, side), dtype=complex)
    off = 0
    for m in mats:
        out[off:off + m.shape[0], off:off + m.shape[0]] = m
        off += m.shape[0]
    return out


def dense_choi_min_eig(table):
    """(least eigenvalue, max |C - C*|) over the dense Choi matrices C of the
    table's domain blocks, restricted to the flat rows of ``reads`` x
    ``reads`` (a table that reads less adds the eigenvalue 0 of its zero
    rows).  Entry ((i, a), (j, b)) of C is Phi(e_{u_i u_j})[a, b], the image
    flattened whole (:func:`direct_sum`), one ``apply`` per unit."""
    spec, p, c = table.spec, table.p, table.codomain_dim
    low = 0.0 if table.restricted else np.inf
    herm_dev = 0.0
    for s, (m, d) in enumerate(zip(table.domain_sides, spec.block_dims)):
        rows = (table.reads[:, None] * d + np.arange(d)).ravel()
        r = rows.size
        choi = np.zeros((r * c, r * c), dtype=complex)
        for i, u in enumerate(rows.tolist()):
            for j, v in enumerate(rows.tolist()):
                flats = [np.zeros((m_t, m_t), dtype=complex) for m_t in table.domain_sides]
                flats[s][u, v] = 1.0
                unit = AMatrix.from_flat(spec, p, p, flats)
                image = table.apply(AMatrix(spec, p, p, [b[None] for b in unit.blocks]))
                image = AMatrix(spec, table.q, table.q, [b[0] for b in image.blocks])
                choi[i * c:(i + 1) * c, j * c:(j + 1) * c] = direct_sum(image)
        low, dev = _hermitian_min_eig(choi, low)
        herm_dev = max(herm_dev, dev)
    return low, herm_dev


def kernel_table(spec, p, q, kernels, reads=None):
    """The map M_p(A) -> M_q(A) whose flattened block t of the image of X is
    sum_s sum_{u,v} K_st[u, v] X_s[u, v], X_s the flattened block s of X and
    K_st = ``kernels[s][t]`` of shape (p d_s, p d_s, q d_t, q d_t): the part
    of its Choi matrix on domain block s and codomain block t has entry
    ((u, a), (v, b)) = K_st[u, v, a, b]."""
    n = spec.n_blocks

    def apply(x, row):
        flats = [sum(np.einsum("uvab,xuv->xab", kernels[s][t], x.flatten_block(s))
                     for s in range(n)) for t in range(n)]
        return AMatrix.from_flat(spec, q, q, flats)

    return LinearMapTable(spec, p, q, apply, reads=reads)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 2), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.0, 0.05, 0.2, 0.7]),
       st.booleans(), st.booleans(), st.booleans())
def test_sparse_choi_equals_dense_reference_on_random_tables(
        seed, dims, p, q, density, transpose, negative, restrict):
    """Random kernels K_st for every pair of a domain block s and a codomain
    block t, t != s included, on blocks of unequal sides: non-Hermitian
    entries, zero Choi rows, an isolated 1 x 1 component with negative real
    part (and the largest imaginary part), the transpose map (whose Choi
    matrix is the swap: components of side 2 with eigenvalue -1) and reads
    that leave rows out (some of them empty): exactly the dense reference."""
    rng = np.random.default_rng(seed)
    spec = AlgebraSpec(tuple(dims))
    kernels = []
    for d_s in dims:
        m = p * d_s
        zero_row = rng.integers(m)
        row = []
        for d_t in dims:
            c = q * d_t
            shape = (m, m, c, c)
            k = np.where(rng.random(shape) < density,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)
            k[zero_row] = 0  # the Choi rows (u, .) of one unit row are zero
            if transpose:
                u, v = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
                k[u, v, v % c, u % c] += 1.0
            row.append(k)
        if negative:
            t = rng.integers(len(dims))
            k, c = row[t], q * dims[t]
            u, a = rng.integers(m), rng.integers(c)
            k[u, :, a, :] = 0
            k[:, u, :, a] = 0
            k[u, u, a, a] = -rng.random() - 0.5 + 10j  # sets the Hermitian deviation
        kernels.append(row)
    reads = np.flatnonzero(rng.random(p) < 0.6) if restrict else None
    table = kernel_table(spec, p, q, kernels, reads)
    want = dense_choi_min_eig(table)
    assert _choi_min_eig(table) == want
    if negative and not restrict:
        assert want[0] < 0 and want[1] == 20.0
    rep = choi_cp_check(table)
    assert rep.min_eigenvalue == want[0]
    assert rep.hermitian_dev == want[1]


def test_zero_map_and_empty_reads_equal_the_reference():
    """All rows zero (every row a 1 x 1 component of eigenvalue 0), and a
    table that reads no row (no Choi rows at all)."""
    zero = kernel_table(AlgebraSpec((1,)), 2, 3, [[np.zeros((2, 2, 3, 3), dtype=complex)]])
    assert _choi_min_eig(zero) == dense_choi_min_eig(zero) == (0.0, 0.0)
    k = np.zeros((2, 2, 2, 2), dtype=complex)
    k[0, 0, 0, 0] = 2.0
    empty = kernel_table(AlgebraSpec((1, 1)), 2, 2, [[k, k], [k, k]], reads=np.arange(0))
    assert _choi_min_eig(empty) == dense_choi_min_eig(empty) == (0.0, 0.0)


@pytest.mark.parametrize("big_n", [2, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sparse_choi_equals_dense_reference_on_factor_tables(name, big_n):
    """The compression and the amplification on the certificate's window
    [0, N + 2] (two-sided for n = 1)."""
    spec = build_preset(name)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    for table in factor_tables(spec, window, big_n)[:2]:
        assert _choi_min_eig(table) == dense_choi_min_eig(table)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sparse_choi_equals_dense_reference_on_ex_k(name, level):
    table = ex_k_table(build_preset(name), level)
    assert _choi_min_eig(table) == dense_choi_min_eig(table)


def test_choi_check_memory_stays_below_the_dense_block():
    """The twisted2 N = 3 amplification has Choi side 1,890: its dense
    Choi block alone would take 57 MB.  The check keeps one row's image
    stack (3.8 MB) and the nonzero entries, and peaks below 20 MB."""
    spec = build_preset("twisted2")
    psi = factor_tables(spec, FockWindow.one_sided(5), 3)[1]
    assert max(psi.domain_sides) * psi.codomain_dim == 1890
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = choi_cp_check(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 20e6
