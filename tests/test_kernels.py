"""Structure-aware kernels against their dense or loop reference forms:
the per-component eigen-solve, the split of a window matrix into degree
blocks, the flattened matrix product, entrywise amplification and the serialized CP grid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.star_core import DEFAULT_TOL, AlgebraSpec
from pimsner_lab.hilbert_mod import (
    AMatrix,
    CPReport,
    _dense_min_eig,
    _hermitian_min_eig,
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
