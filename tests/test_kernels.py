"""Structure-aware kernels against their dense or loop reference forms:
the per-component eigen-solve, from a dense matrix or from its nonzero
entries, the split of a window matrix into degree blocks, the flattened
matrix product, entrywise amplification and the serialized CP grid."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.star_core import DEFAULT_TOL, AlgebraSpec
from pimsner_lab import hilbert_mod
from pimsner_lab.hilbert_mod import (
    AMatrix,
    CPReport,
    _component_labels,
    _dense_min_eig,
    _hermitian_min_eig,
    _sparse_hermitian_min_eig,
    _probe_outputs,
    tol_grid,
    positivity_probe,
    sample,
)
from pimsner_lab.fock import FockWindow, GradedOperator
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import PRESETS, build_preset

from conftest import allclose
from test_hilbert_mod import entry, random_amatrix


def dense_reference(mat):
    herm = (mat + mat.conj().T) / 2
    return (float(np.linalg.eigvalsh(herm).min()),
            float(np.max(np.abs(mat - mat.conj().T))))


def hidden_blocks(sizes, seed, shift=0.0, path=False, hide=True):
    """Random Hermitian blocks of the given sizes, summed directly and then
    hidden by a random symmetric permutation (unless not ``hide``).  With
    ``path`` each block is tridiagonal, so its indices are linked only
    through a chain."""
    rng = np.random.default_rng(seed)
    side = sum(sizes)
    mat = np.zeros((side, side), dtype=complex)
    off = 0
    for m in sizes:
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if path:
            z = np.triu(np.tril(z, 1), -1)
        mat[off:off + m, off:off + m] = (z + z.conj().T) / 2 + shift * np.eye(m)
        off += m
    if not hide:
        return mat
    perm = rng.permutation(side)
    return mat[np.ix_(perm, perm)]


def scale(mat):
    return max(1.0, np.abs(mat).max() * len(mat))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.integers(0, 10_000),
       st.booleans(), st.floats(-4.0, 4.0),
       st.one_of(st.just(np.inf), st.floats(-4.0, 4.0)))
def test_components_match_dense_eigvalsh(sizes, seed, path, shift, bound):
    """min(bound, least eigenvalue): with a finite bound, components are
    Cholesky-screened against the running minimum before any solve.  The
    dense kernel, which the probe calls on each output, gives the same on
    the whole matrix, and on a non-Hermitian one, for bounds below, at and
    above the least eigenvalue."""
    mat = hidden_blocks(sizes, seed, shift=shift, path=path)
    min_eig, dev = _hermitian_min_eig(mat, bound)
    want_eig, want_dev = dense_reference(mat)
    assert abs(min_eig - min(bound, want_eig)) <= 1e-12 * scale(mat)
    assert dev == want_dev == 0.0
    skew = np.random.default_rng(seed).standard_normal(mat.shape) * 1e-3
    for m in (mat, mat + skew):
        want_eig, want_dev = dense_reference(m)
        for low in (bound, want_eig - 0.5, want_eig, want_eig + 0.5):
            got_eig, got_dev = _dense_min_eig(m, low)
            assert abs(got_eig - min(low, want_eig)) <= 1e-12 * scale(m)
            assert got_dev == want_dev


def test_negative_eigenvalue_in_a_one_by_one_component():
    mat = hidden_blocks([3, 1, 4], 7, shift=20.0)
    lone = np.flatnonzero((mat != 0).sum(axis=1) == 1)
    assert len(lone) == 1
    mat[lone[0], lone[0]] = -0.25
    min_eig, _ = _hermitian_min_eig(mat)
    assert min_eig == -0.25
    assert min_eig == pytest.approx(dense_reference(mat)[0], abs=1e-13)


def test_negative_eigenvalue_in_a_larger_component():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1; the rest is positive
    mat = np.diag([5.0, 1.0, 6.0, 1.0, 7.0]).astype(complex)
    mat[1, 3] = mat[3, 1] = 2.0
    min_eig, dev = _hermitian_min_eig(mat)
    assert min_eig == pytest.approx(-1.0, abs=1e-14)
    assert dev == 0.0


def test_zero_rows_contribute_eigenvalue_zero():
    mat = np.diag([2.0, 0.0, 3.0]).astype(complex)
    assert _hermitian_min_eig(mat)[0] == 0.0


def test_non_hermitian_deviation_equals_dense_formula():
    mat = hidden_blocks([2, 3, 1, 1], 11)
    lone = np.flatnonzero((mat != 0).sum(axis=1) == 1)
    other = np.flatnonzero((mat != 0).sum(axis=1) > 1)
    assert len(lone) == 2
    # a non-Hermitian entry inside a component
    i, j = np.argwhere(mat[np.ix_(other, other)] != 0)[1]
    mat[other[i], other[j]] += 0.3 + 0.1j
    # an imaginary part on the diagonal of a one-index component
    mat[lone[0], lone[0]] += 0.7j
    # an entry joining two components in one direction only
    mat[other[0], lone[1]] = 0.4
    min_eig, dev = _hermitian_min_eig(mat)
    want_eig, want_dev = dense_reference(mat)
    assert dev == want_dev
    assert min_eig == pytest.approx(want_eig, abs=1e-12)


# ---------------------------------------------------------------------------
# the Cholesky screen: a component is eigen-solved only when it can set a
# new minimum below the running bound
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=2, max_size=6), st.integers(0, 10_000),
       st.booleans(), st.floats(0.01, 1.0), st.data())
def test_negative_eigenvalue_after_the_first_exact_solve(sizes, seed, path, depth, data):
    """Unhidden blocks are visited in order: the first is solved exactly and
    sets a positive running minimum, and a later block with an eigenvalue
    -depth must fail the screen and be solved."""
    mat = hidden_blocks(sizes, seed, shift=12.0, path=path, hide=False)
    j = data.draw(st.integers(1, len(sizes) - 1))
    off = sum(sizes[:j])
    block = mat[off:off + sizes[j], off:off + sizes[j]]
    w, v = np.linalg.eigh(block)
    block -= (w[0] + depth) * np.outer(v[:, 0], v[:, 0].conj())
    want_eig = dense_reference(mat)[0]
    assert want_eig == pytest.approx(-depth, abs=1e-12)
    for bound in (np.inf, 1.0, -depth / 2):
        low, _ = _hermitian_min_eig(mat, bound)
        assert abs(low - want_eig) <= 1e-12 * scale(mat)


def test_screen_skips_only_components_at_or_above_the_bound():
    # components with least eigenvalues 3, 1 and 2, in that order
    mat = np.zeros((6, 6), dtype=complex)
    for off, lam in ((0, 3.0), (2, 1.0), (4, 2.0)):
        mat[off:off + 2, off:off + 2] = [[lam + 1, 1], [1, lam + 1]]
    assert _hermitian_min_eig(mat)[0] == pytest.approx(1.0, abs=1e-14)
    assert _hermitian_min_eig(mat, 0.5)[0] == 0.5
    assert _hermitian_min_eig(mat, 1.5)[0] == pytest.approx(1.0, abs=1e-14)


def test_screen_refuses_a_factor_that_overflowed():
    """H = [[0, z], [z*, 0]] with |z| = 0.364 and the subnormal bound
    low = -2.2e-313: factoring H - low I overflows, and LAPACK returns a
    factor with NaN on its diagonal instead of refusing it.  The screen must
    read that as a failure and solve H, whose least eigenvalue is -|z|."""
    mat = np.array([[0, 0], [0.7 - 0.2j, 0.3j]])
    low = -2.2250738585e-313
    want = dense_reference(mat)
    assert _dense_min_eig(mat, low) == pytest.approx(want, abs=1e-15)
    assert _hermitian_min_eig(mat, low) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("preset, big_n", [
    ("twisted2", 3), ("twisted2", 4), ("cuntz2", 5), ("crossed-z3", 3), ("rotation-m2", 3),
], ids=["3", "4", "cuntz2-5", "crossed-z3-3", "rotation-m2-3"])
def test_probe_minimum_equals_a_full_eigvalsh_loop(preset, big_n):
    """The screened probe against dense eigvalsh on every trial output, for
    both factor maps at the certificate's window (the windows a certificate
    probes by default, or with ``--choi-cap 10`` on the n = 1 presets).  Its
    record is also the one the per-component kernel gives on those outputs:
    screening each output whole changes no bit."""
    spec = build_preset(preset)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    phi, psi, _ = factor_tables(spec, window, big_n)
    for seed, table in ((1, phi), (2, psi)):
        rep = positivity_probe(table, trials=8, seed=seed)
        outs = list(_probe_outputs(table, 2, 8, seed))
        want = min(dense_reference(out)[0] for out in outs)
        assert abs(rep.min_eigenvalue - want) <= 1e-12 * max(scale(o) for o in outs)
        assert rep.passed
        low, herm_dev = np.inf, 0.0
        for out in outs:
            low, dev = _hermitian_min_eig(out, low)
            herm_dev = max(herm_dev, dev)
        assert (rep.min_eigenvalue, rep.hermitian_dev) == (low, herm_dev)


# ---------------------------------------------------------------------------
# the sparse kernel: components found from the nonzero entries alone
# ---------------------------------------------------------------------------

def sparse_hidden_blocks(sizes, density, seed, skew):
    """(M, rng): sparse random blocks of the given sizes, each B + B* for a
    B with about ``density`` of its entries nonzero (so exactly Hermitian,
    with zero rows and split blocks among them), summed directly and hidden
    by a random symmetric permutation.  With ``skew`` M is made
    non-Hermitian: its nonzero entries are perturbed, one diagonal entry
    gets an imaginary part, and one entry is set in one direction only."""
    rng = np.random.default_rng(seed)
    side = sum(sizes)
    mat = np.zeros((side, side), dtype=complex)
    off = 0
    for m in sizes:
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * (
            rng.random((m, m)) < density)
        mat[off:off + m, off:off + m] = z + z.conj().T
        off += m
    if skew:
        mat += (mat != 0) * rng.standard_normal((side, side)) * 1e-2
        i, j = rng.integers(side, size=2)
        mat[i, i] += 0.3j
        mat[i, j] = 0.7 - 0.2j
    perm = rng.permutation(side)
    return mat[np.ix_(perm, perm)], rng


def closure_labels(adj):
    """The least vertex reachable from each vertex of the undirected graph
    with (possibly one-directional) boolean adjacency ``adj``, from its
    reachability closure by repeated squaring."""
    reach = adj | adj.T | np.eye(len(adj), dtype=bool)
    while True:
        step = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(step, reach):
            return reach.argmax(axis=1)
        reach = step


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=8), st.floats(0.0, 0.6),
       st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.one_of(st.just(np.inf), st.floats(-4.0, 4.0)))
def test_sparse_kernel_matches_dense_eigvalsh(sizes, density, seed, skew, bound):
    """The kernel on the triples of a sparse matrix, given in a random order:
    min(bound, least eigenvalue of (M + M*)/2) within 1e-12 x scale of dense
    eigvalsh, and max |M - M*| exactly, Hermitian or not."""
    mat, rng = sparse_hidden_blocks(sizes, density, seed, skew)
    row, col = np.nonzero(mat)
    order = rng.permutation(row.size)
    row, col = row[order], col[order]
    min_eig, dev = _sparse_hermitian_min_eig(row, col, mat[row, col], len(mat), bound)
    want_eig, want_dev = dense_reference(mat)
    assert abs(min_eig - min(bound, want_eig)) <= 1e-12 * scale(mat)
    assert dev == want_dev
    assert skew or dev == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.2), st.integers(0, 2 ** 32 - 1))
def test_component_labels_equal_the_reachability_closure(side, density, seed):
    """Each vertex is labelled with the least vertex of its component, for
    edges given in one direction only, repeated, and as self-loops."""
    rng = np.random.default_rng(seed)
    adj = rng.random((side, side)) < density
    u, v = np.nonzero(adj)
    twice = rng.random(u.size) < 0.3
    u, v = np.concatenate([u, v[twice]]), np.concatenate([v, u[twice]])
    assert np.array_equal(_component_labels(u, v, side), closure_labels(adj))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.floats(0.2, 0.8),
       st.integers(0, 2 ** 32 - 1))
def test_components_are_visited_by_least_row_with_rows_ascending(sizes, density, seed):
    """The dense kernel sees each component of two or more rows once, in
    order of its least row, as the principal submatrix on its rows in
    ascending order: the order the Cholesky screen's running minimum follows."""
    mat, _ = sparse_hidden_blocks(sizes, density, seed, skew=False)
    labels = closure_labels((mat != 0) & ~np.eye(len(mat), dtype=bool))
    want = [mat[np.ix_(idx, idx)] for idx in (np.flatnonzero(labels == root)
                                             for root in np.unique(labels)) if idx.size > 1]
    seen, original = [], hilbert_mod._dense_min_eig

    def spy(block, low):
        seen.append(block.copy())
        return original(block, low)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hilbert_mod, "_dense_min_eig", spy)
        _hermitian_min_eig(mat)
    assert len(seen) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_component_labels_of_a_long_shuffled_path():
    """A path through 200,000 vertices in a random order, each edge given
    once, is one component: labelled 0 throughout in under 2 s.  (A dense
    solve of that component would not fit in memory.)"""
    side = 200_000
    perm = np.random.default_rng(0).permutation(side)
    start = time.perf_counter()
    labels = _component_labels(perm[:-1], perm[1:], side)
    assert time.perf_counter() - start < 2.0
    assert not labels.any()


@pytest.mark.parametrize("bound", [np.inf, 0.5, -0.5])
def test_empty_triples_give_the_zero_rows(bound):
    """No entries: every row is a zero 1 x 1 component, min(bound, 0); no
    rows at all leave the bound."""
    none = np.zeros(0, dtype=np.intp)
    assert _sparse_hermitian_min_eig(none, none, np.zeros(0, complex), 3, bound) == (min(bound, 0.0), 0.0)
    assert _sparse_hermitian_min_eig(none, none, np.zeros(0, complex), 0, bound) == (bound, 0.0)


# ---------------------------------------------------------------------------
# window split
# ---------------------------------------------------------------------------

def same_bits(x, y):
    """Whether two AMatrices hold the same bytes, block by block (so -0.0
    and 0.0 differ)."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(x.blocks, y.blocks))


@pytest.mark.parametrize("preset, window", [
    ("twisted2", FockWindow.one_sided(3)),
    ("crossed-z3", FockWindow.two_sided_sym(2)),
    ("rotation-m2", FockWindow.one_sided(3)),
])
def test_from_amatrix_keeps_the_per_pair_support(preset, window):
    """from_amatrix keeps every degree pair, zero or not, each block a view
    of the window matrix, and to_amatrix gives the matrix back bit for bit:
    for one matrix, a stack, and blocks that are strided ``from_flat``
    views.  With a row index it splits off that block row alone."""
    spec = build_preset(preset)
    degs = list(window.degrees())
    total = sum(spec.fiber_dim(d) for d in degs)
    rng = np.random.default_rng(5)
    alg = spec.algebra
    stack = AMatrix(alg, total, total,
                    [np.zeros((3, total, total, d, d), dtype=complex) for d in alg.block_dims])
    for b in stack.blocks:
        # sparse nonzero entries, some of them purely imaginary, a negative
        # zero in both parts everywhere else, and the first matrix all zero
        hit = rng.random(b.shape) < 0.05
        b[hit] = rng.choice([0.2, 0.9, -0.5j], size=hit.sum())
        b[b == 0] = complex(-0.0, -0.0)
        b[0] = 0.0
    stack.blocks[0][1, 0, total - 1, 0, 0] = 5e-324
    one = AMatrix(alg, total, total, [b[1] for b in stack.blocks])
    view = AMatrix.from_flat(alg, total, total,
                             [stack.flatten_block(s) for s in range(alg.n_blocks)])
    pairs = [(i, j) for i in degs for j in degs]
    for mat in (one, stack, view):
        got = GradedOperator.from_amatrix(spec, window, mat)
        assert sorted(got.blocks) == pairs
        for val in got.blocks.values():
            assert all(np.shares_memory(v, m) for v, m in zip(val.blocks, mat.blocks))
        out = AMatrix(alg, total, total, [np.zeros_like(b) for b in mat.blocks])
        assert same_bits(got.to_amatrix(out=out), mat)
        for a, i in enumerate(degs):
            row = GradedOperator.from_amatrix(spec, window, mat, a)
            assert sorted(row.blocks) == [(i, j) for j in degs]
            assert all(same_bits(v, got.blocks[key]) for key, v in row.blocks.items())


# ---------------------------------------------------------------------------
# products and amplification
# ---------------------------------------------------------------------------

def test_matmul_equals_flattened_block_products():
    algebra = AlgebraSpec((3, 1, 2))
    x = random_amatrix(algebra, 4, 3, 1)
    y = random_amatrix(algebra, 3, 5, 2)
    prod = x @ y
    assert (prod.rows, prod.cols) == (4, 5)
    for s in range(algebra.n_blocks):
        want = x.flatten_block(s) @ y.flatten_block(s)
        assert np.max(np.abs(prod.flatten_block(s) - want)) < 1e-13
    for i in range(4):
        for j in range(5):
            want = sum((entry(x, i, k) @ entry(y, k, j) for k in range(1, 3)),
                       entry(x, i, 0) @ entry(y, 0, j))
            assert allclose(entry(prod, i, j), want, 1e-12)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_amplify_matches_phi_k_direct(preset):
    """amplify(phi_j(a), k) = phi_{j+k}(a), with phi_{j+k} from the
    independent I (x) U construction."""
    spec = build_preset(preset)
    a = sample(spec.algebra, 41)
    for j, k in ((0, 1), (1, 1), (1, 2), (2, 1)):
        lhs = spec.amplify(spec.phi_k_direct(a, j), k)
        assert (lhs - spec.phi_k_direct(a, j + k)).max_abs() < 1e-12


def test_cached_inverses():
    spec = build_preset("twisted2")
    a = sample(spec.algebra, 3)
    for al, inv in zip(spec.alphas, spec._alpha_invs):
        assert allclose(inv.apply(al.apply(a)), a, 1e-12)
    z3 = build_preset("crossed-z3")
    x = sample(z3.algebra, 5)
    assert (z3.amplify(z3.amplify(x, 3), -3) - x).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# serialized CP values
# ---------------------------------------------------------------------------

def test_psd_grid_rounds_and_drops_negative_zero():
    tol = DEFAULT_TOL.psd_tol
    assert tol_grid(0.4968867638626171, tol) == tol_grid(0.49688676386261754, tol)
    assert tol_grid(-7.9e-16, tol) == 0.0
    assert np.copysign(1.0, tol_grid(-7.9e-16, tol)) == 1.0
    assert abs(tol_grid(0.123456789012345, tol) - 0.123456789012345) <= tol / 1000


def test_cp_verdict_uses_the_unrounded_value():
    """An eigenvalue just below -psd_tol is reported on the grid as
    -psd_tol, which would pass; the verdict reads the unrounded value."""
    tol = DEFAULT_TOL
    just_below = -tol.psd_tol * (1 + 1e-6)
    rep = CPReport("choi", just_below, 0.0, 1.0, 0.0)
    d = rep.to_dict()
    assert d["pass"] is False
    assert d["min_eig"] == tol_grid(just_below, tol.psd_tol) == -tol.psd_tol


def test_contractive_at_the_bound_and_just_above():
    """``contractive`` is ||Phi(1)|| <= 1 + norm_rel_tol on the unrounded
    norm: true at the bound, and false one float above it, where the report
    prints the same norm_bound and the CP verdict still passes."""
    at = 1 + DEFAULT_TOL.norm_rel_tol
    above = float(np.nextafter(at, 2.0))
    assert CPReport("choi", 0.0, 0.0, at, 0.0).contractive
    rep = CPReport("choi", 0.0, 0.0, above, 0.0)
    assert not rep.contractive and rep.passed
    assert rep.to_dict()["norm_bound"] == tol_grid(at, DEFAULT_TOL.eq_tol)
