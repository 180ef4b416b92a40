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
    LinearMapTable,
    _choi_min_eig,
    _hermitian_min_eig,
    choi_cp_check,
)
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import PRESETS, build_preset


def dense_choi_min_eig(table):
    """(least eigenvalue, max |C - C*|) over the dense Choi matrices C of the
    table's domain blocks, restricted to ``reads`` x ``reads`` (a table that
    reads less adds the eigenvalue 0 of its zero rows).  Entry ((i, a),
    (j, b)) of C is Phi(e_{u_i u_j})[a, b], one ``apply`` per unit."""
    n, c = table.domain_dim, table.codomain_dim
    low = 0.0 if table.restricted else np.inf
    herm_dev = 0.0
    off = 0
    for m, rows in zip(table.domain_sides, table.reads):
        r = rows.size
        choi = np.zeros((r * c, r * c), dtype=complex)
        for i, u in enumerate(rows.tolist()):
            for j, v in enumerate(rows.tolist()):
                unit = np.zeros((n, n), dtype=complex)
                unit[off + u, off + v] = 1.0
                choi[i * c:(i + 1) * c, j * c:(j + 1) * c] = table.apply(unit[None])[0]
        low, dev = _hermitian_min_eig(choi, low)
        herm_dev = max(herm_dev, dev)
        off += m
    return low, herm_dev


def kernel_table(kernels, c, reads=None):
    """The map X -> sum_s sum_{u,v} K_s[u, v] X_s[u, v] from the domain
    blocks X_s onto c x c matrices, K_s of shape (m_s, m_s, c, c): its Choi
    matrix on block s has entry ((u, a), (v, b)) = K_s[u, v, a, b]."""
    sides = [k.shape[0] for k in kernels]

    def apply(stack, row):
        out = np.zeros((stack.shape[0], c, c), dtype=complex)
        off = 0
        for k, m in zip(kernels, sides):
            out += np.einsum("uvab,xuv->xab", k, stack[:, off:off + m, off:off + m])
            off += m
        return out

    return LinearMapTable(sides, (c,), apply, reads=reads)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.integers(1, 4), st.sampled_from([0.0, 0.05, 0.2, 0.7]),
       st.booleans(), st.booleans(), st.booleans())
def test_sparse_choi_equals_dense_reference_on_random_tables(
        seed, sides, c, density, transpose, negative, restrict):
    """Random kernels with non-Hermitian entries, zero Choi rows, an
    isolated 1 x 1 component with negative real part (and the largest
    imaginary part), the transpose map (whose Choi matrix is the swap:
    components of side 2 with eigenvalue -1) and reads that leave rows out
    (some of them empty): exactly the dense reference."""
    rng = np.random.default_rng(seed)
    kernels = []
    for m in sides:
        shape = (m, m, c, c)
        k = np.where(rng.random(shape) < density,
                     rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)
        k[rng.integers(m)] = 0  # the Choi rows (u, .) of one unit row are zero
        if transpose:
            u, v = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            k[u, v, v % c, u % c] += 1.0
        if negative:
            u, a = rng.integers(m), rng.integers(c)
            k[u, :, a, :] = 0
            k[:, u, :, a] = 0
            k[u, u, a, a] = -rng.random() - 0.5 + 10j  # sets the Hermitian deviation
        kernels.append(k)
    reads = None
    if restrict:
        reads = [np.flatnonzero(rng.random(m) < 0.6) for m in sides]
    table = kernel_table(kernels, c, reads)
    want = dense_choi_min_eig(table)
    assert _choi_min_eig(table) == want
    if negative and not restrict:
        assert want[0] < 0 and want[1] == 20.0
    rep = choi_cp_check(table)
    assert rep.min_eigenvalue == want[0]
    assert rep.hermitian_dev == want[1]


def test_zero_map_and_empty_reads_equal_the_reference():
    """All rows zero (every row a 1 x 1 component of eigenvalue 0), and a
    block that reads no row (no Choi rows at all)."""
    zero = kernel_table([np.zeros((2, 2, 3, 3), dtype=complex)], 3)
    assert _choi_min_eig(zero) == dense_choi_min_eig(zero) == (0.0, 0.0)
    k = np.zeros((2, 2, 2, 2), dtype=complex)
    k[0, 0, 0, 0] = 2.0
    empty = kernel_table([k, k], 2, reads=[np.arange(2), np.arange(0)])
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
