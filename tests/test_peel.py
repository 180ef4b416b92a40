"""The whole-matrix peel behind Ex_k, eps-hat and eps-bar, and the extended
module's amplifications, vectors and inner products, against the per-entry
and per-block loops they replace, written here with a dense I (x) U.  Covered on the four presets,
on one n = 2 correspondence over M_2 (+) C, and on random correspondences
drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.star_core import AlgebraSpec, Automorphism
from pimsner_lab.hilbert_mod import AMatrix, sample
from pimsner_lab.correspondence import CorrespondenceSpec, kron_identity_left
from pimsner_lab.expectation import eps_hat, ex_k
from pimsner_lab.fock import FockWindow
from pimsner_lab.lift import EInftyContext, bilateral_lift
from pimsner_lab.presets import PRESETS, build_preset

from conftest import allclose
from test_batched_maps import build
from test_hilbert_mod import entry, set_entry

SPECS = sorted(PRESETS) + ["mixed"]


def random_amatrix(spec, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return AMatrix(spec.algebra, rows, cols,
                   [rng.standard_normal((rows, cols, d, d))
                    + 1j * rng.standard_normal((rows, cols, d, d))
                    for d in spec.algebra.block_dims])


# ---------------------------------------------------------------------------
# the loops the whole-matrix code replaces
# ---------------------------------------------------------------------------

def loop_peel(spec, x):
    """One square peel through the dense I (x) U: the (p n + i, q n + i)
    entries of Ad(I (x) U*) x, alpha_i^-1 on each, averaged over i."""
    n = spec.n
    m = x.rows // n
    big_u = kron_identity_left(m, spec.unitary)
    y = big_u @ x @ big_u.adjoint()
    out = AMatrix.zeros(spec.algebra, m, m)
    for p in range(m):
        for q in range(m):
            acc = AMatrix.zeros(spec.algebra, 1, 1)
            for i, alpha in enumerate(spec.alphas):
                acc = acc + alpha.inverse().apply(entry(y, p * n + i, q * n + i))
            set_entry(out, p, q, acc * (1.0 / n))
    return out


def loop_ex_k(spec, k, x):
    for _ in range(k):
        x = loop_peel(spec, x)
    return x


def loop_eps_hat(spec, level, t):
    """Ex_level on every B-entry, one at a time."""
    nk = spec.n ** level
    out = AMatrix.zeros(spec.algebra, t.rows // nk, t.cols // nk)
    for i in range(out.rows):
        for j in range(out.cols):
            set_entry(out, i, j, loop_ex_k(spec, level, t.submatrix(
                slice(i * nk, (i + 1) * nk), slice(j * nk, (j + 1) * nk))))
    return out


def loop_phi_inf1(ctx, b):
    """Split off the outermost tensor layer of b and amplify each piece."""
    n, nk = ctx.spec.n, ctx.spec.n ** ctx.level
    if ctx.level == 0:
        return ctx.spec.phi1(b)
    inner = nk // n
    out = AMatrix.zeros(ctx.spec.algebra, n * nk, n * nk)
    for i in range(n):
        for j in range(n):
            up = ctx.spec.amplify(b.submatrix(slice(i * inner, (i + 1) * inner),
                                              slice(j * inner, (j + 1) * inner)), 1)
            for s in range(out.spec.n_blocks):
                out.blocks[s][i * nk:(i + 1) * nk, j * nk:(j + 1) * nk] = up.blocks[s]
    return out


def loop_amplify_inf(ctx, x, k):
    """loop_phi_inf1 on every B-entry, k times."""
    n, nk = ctx.spec.n, ctx.spec.n ** ctx.level
    for _ in range(k):
        u, v = x.rows // nk, x.cols // nk
        out = AMatrix.zeros(ctx.spec.algebra, u * n * nk, v * n * nk)
        for p in range(u):
            for q in range(v):
                up = loop_phi_inf1(ctx, x.submatrix(slice(p * nk, (p + 1) * nk),
                                                    slice(q * nk, (q + 1) * nk)))
                for s in range(out.spec.n_blocks):
                    out.blocks[s][p * n * nk:(p + 1) * n * nk,
                                  q * n * nk:(q + 1) * n * nk] = up.blocks[s]
        x = out
    return x


def loop_vector(ctx, xi, b):
    """xi (x) b one module index at a time: phi_K(xi_i) b stacked over i."""
    nk = ctx.spec.n ** ctx.level
    out = AMatrix.zeros(ctx.spec.algebra, xi.rows * nk, nk)
    for i in range(xi.rows):
        blk = ctx.spec.phi_k(entry(xi, i, 0), ctx.level) @ b
        for s in range(out.spec.n_blocks):
            out.blocks[s][i * nk:(i + 1) * nk] = blk.blocks[s]
    return out


def loop_einfty_inner(ctx, x, y, side):
    """The inner products one B-entry at a time: sum_i x_i* y_i (right) and
    the matrix [x_i y_j*] (left)."""
    nk = ctx.spec.n ** ctx.level
    xs, ys = ([v.submatrix(slice(i * nk, (i + 1) * nk), slice(0, nk))
               for i in range(v.rows // nk)] for v in (x, y))
    if side == "right":
        acc = AMatrix.zeros(ctx.spec.algebra, nk, nk)
        for a, b in zip(xs, ys):
            acc = acc + a.adjoint() @ b
        return acc
    m = len(xs)
    out = AMatrix.zeros(ctx.spec.algebra, m * nk, m * nk)
    for i in range(m):
        for j in range(m):
            blk = xs[i] @ ys[j].adjoint()
            for s in range(out.spec.n_blocks):
                out.blocks[s][i * nk:(i + 1) * nk, j * nk:(j + 1) * nk] = blk.blocks[s]
    return out


# ---------------------------------------------------------------------------
# presets and the mixed correspondence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("name", SPECS)
def test_eps_hat_equals_per_entry_loop(name, level):
    spec = build(name)
    nk = spec.n ** level
    for seed, (m, mc) in enumerate([(1, 1), (2, 3), (3, 1)]):
        t = random_amatrix(spec, m * nk, mc * nk, 10 * level + seed)
        got = eps_hat(spec, level, t)
        assert (got.rows, got.cols) == (m, mc)
        assert (got - loop_eps_hat(spec, level, t)).max_abs() < 1e-12


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("name", SPECS)
def test_eps_bar_and_ex_k_equal_per_entry_loop(name, level):
    spec = build(name)
    nk = spec.n ** level
    zeta = random_amatrix(spec, 3 * nk, nk, 40 + level)
    got = eps_hat(spec, level, zeta)  # eps-bar: eps-hat on a column over B
    assert (got.rows, got.cols) == (3, 1)
    assert (got - loop_eps_hat(spec, level, zeta)).max_abs() < 1e-12
    x = zeta.submatrix(slice(0, nk), slice(0, nk))
    assert (ex_k(spec, level, x) - loop_ex_k(spec, level, x)).max_abs() < 1e-12


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_extended_module_amplification_equals_block_loops(name, level):
    spec = build(name)
    ctx = EInftyContext(spec, level)
    nk = ctx.spec.n ** ctx.level
    b = random_amatrix(spec, nk, nk, 60 + level)
    assert (spec.amplify(b, 1) - loop_phi_inf1(ctx, b)).max_abs() < 1e-12
    x = random_amatrix(spec, 2 * nk, nk, 70 + level)
    for k in (1, 2, 3):
        assert (spec.amplify(x, k) - loop_amplify_inf(ctx, x, k)).max_abs() < 1e-12


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_extended_module_vector_and_inner_equal_entry_loops(name, level):
    """vector is (xi (x) I_{E^K}) b, bit for bit the per-entry phi_K(xi_i) b;
    the inner products are x* y and x y*, the per-B-entry sums and products."""
    spec = build(name)
    ctx = EInftyContext(spec, level)
    nk = ctx.spec.n ** ctx.level
    for degree in (0, 1, 2):
        rank = spec.fiber_dim(degree)
        vecs = []
        for t in (0, 1):
            seed = 100 * level + 10 * degree + 2 * t
            xi = random_amatrix(spec, rank, 1, seed)
            b = random_amatrix(spec, nk, nk, seed + 1)
            got, want = ctx.vector(xi, b), loop_vector(ctx, xi, b)
            assert all(np.array_equal(g, w) for g, w in zip(got.blocks, want.blocks))
            vecs.append(got)
        for side in ("right", "left"):
            x, y = vecs
            got = x.adjoint() @ y if side == "right" else x @ y.adjoint()
            want = loop_einfty_inner(ctx, *vecs, side)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert (got - want).max_abs() < 1e-12, side


# ---------------------------------------------------------------------------
# random correspondences
# ---------------------------------------------------------------------------

def _haar(rng, side):
    z = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def correspondences(draw):
    """A = (+) M_d with d <= 3, n <= 3, alpha_i a dimension-preserving block
    permutation with random unitaries, U from the QR of a random matrix."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    algebra = AlgebraSpec(dims)
    unitary = AMatrix(algebra, n, n, [
        _haar(rng, n * d).reshape(n, d, n, d).swapaxes(1, 2) for d in dims])
    alphas = []
    for _ in range(n):
        perm = list(range(len(dims)))
        for d in set(dims):
            same = [s for s in range(len(dims)) if dims[s] == d]
            for s, t in zip(same, rng.permutation(same)):
                perm[s] = int(t)
        alphas.append(Automorphism(algebra, tuple(perm),
                                   tuple(_haar(rng, d) for d in dims)))
    return CorrespondenceSpec(algebra=algebra, n=n, unitary=unitary,
                              alphas=tuple(alphas), name="random")


@settings(max_examples=25, deadline=None)
@given(correspondences(), st.integers(0, 3), st.integers(0, 1000))
def test_random_correspondence_peel(spec, level, seed):
    if spec.n ** level > 9:
        level -= 1
    a = sample(spec.algebra, seed)
    assert allclose(ex_k(spec, level, spec.phi_k_direct(a, level)), a, 1e-12)
    nk = spec.n ** level
    t = random_amatrix(spec, 2 * nk, nk, seed)
    assert (eps_hat(spec, level, t) - loop_eps_hat(spec, level, t)).max_abs() < 1e-12


@settings(max_examples=25, deadline=None)
@given(correspondences(), st.integers(1, 3), st.integers(0, 1000))
def test_stacked_eps_hat_equals_per_element_bits(spec, level, seed):
    """eps_hat on a stack with two leading axes is eps_hat on each element,
    bit for bit (ex_k_table hands the peel whole stacks)."""
    nk = spec.n ** level
    lead = (2, 2)
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal(lead + (2 * nk, nk, d, d))
              + 1j * rng.standard_normal(lead + (2 * nk, nk, d, d))
              for d in spec.algebra.block_dims]
    got = eps_hat(spec, level, AMatrix(spec.algebra, 2 * nk, nk, blocks))
    assert got.stack_shape == lead and (got.rows, got.cols) == (2, 1)
    for idx in np.ndindex(*lead):
        one = eps_hat(spec, level, AMatrix(spec.algebra, 2 * nk, nk,
                                           [b[idx] for b in blocks]))
        for g, w in zip(got.blocks, one.blocks):
            assert g[idx].tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# the bilateral band's negative offsets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["crossed-z3", "rotation-m2"])
def test_bilateral_tail_fails_on_corrupted_inverse(name):
    """Negative offsets are checked against Ex_{-k}, which peels through the
    alpha inverses and U rather than the cached beta inverse, so a wrong
    beta inverse fails the case while the one-sided band still passes."""
    spec = build_preset(name)
    mu, nu = spec.sample_vector(1, 61), spec.sample_vector(1, 71)
    two = FockWindow.two_sided_sym(4)
    _, rep = bilateral_lift(spec, mu, nu, 1, 1, two)
    assert rep["pass"] and rep["bilateral_tail_dev"] < 1e-12
    spec._beta_inv = spec._beta
    _, rep = bilateral_lift(spec, mu, nu, 1, 1, two)
    assert not rep["pass"]
    assert rep["bilateral_tail_dev"] > 1e-6
    assert rep["band_dev"] < 1e-12
