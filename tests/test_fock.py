"""Truncated Fock modules, finite-section pipelines, and the Schur oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.star_core import ConfigurationError, SpecMismatchError
from pimsner_lab.hilbert_mod import AMatrix, rank_one, sample
from pimsner_lab import fock
from pimsner_lab.fock import (
    FockWindow,
    GradedOperator,
    _measure_band,
    band_op,
    band_powers,
    compress,
    creation_op,
    psi_amplify,
    schur_oracle,
    toeplitz_op,
    v_n,
)
from pimsner_lab.hilbert_mod import choi_cp_check
from pimsner_lab.correspondence import ValidationError
from pimsner_lab.presets import PRESETS, build_preset

from conftest import shared_block_dev
from test_batched_maps import build, pipeline_table
from test_peel import correspondences


@pytest.fixture(scope="module")
def cuntz():
    return build_preset("cuntz2")


@pytest.fixture(scope="module")
def z3():
    return build_preset("crossed-z3")


# ---------------------------------------------------------------------------
# the counting oracle
# ---------------------------------------------------------------------------

def test_oracle_frozen_values():
    # one-sided: N=3, r=1, s=0, saturated offset
    assert schur_oracle(3, 1, 0, 5, "one") == Fraction(3, 4)
    # ramp below the stabilization point
    assert schur_oracle(3, 1, 0, 0, "one") == Fraction(1, 4)
    assert schur_oracle(3, 1, 0, 1, "one") == Fraction(2, 4)
    # identity band: c_0 = 1/(N+1)
    for big_n in range(1, 9):
        assert schur_oracle(big_n, 0, 0, 0, "one") == Fraction(1, big_n + 1)
    # generator degree beyond the truncation: everything is cut
    assert schur_oracle(3, 5, 0, 10, "one") == Fraction(0)
    # two-sided: uniform coefficient 1 - j/(N+1)
    assert schur_oracle(4, 3, 1, 0, "two") == Fraction(3, 5)
    assert schur_oracle(4, 2, 2, -3, "two") == Fraction(1)


def printed_coefficient(big_n: int, r: int, s: int) -> Fraction:
    """The printed tail coefficient min(N-r, N-s)/(N+1) (0 when r or s > N).

    Direct counting gives (min(N-r, N-s)+1)/(N+1) instead; unitality of the
    two-sided pipeline at r = s forces the +1, so the oracle wins.  The tests
    compare the two; reports carry the oracle's value."""
    if r > big_n or s > big_n:
        return Fraction(0)
    return Fraction(min(big_n - r, big_n - s), big_n + 1)


def test_oracle_vs_printed_coefficient_off_by_one():
    """The printed tail coefficient min(N-r,N-s)/(N+1) undercounts by one
    shift; the discrepancy is exactly 1/(N+1) whenever r,s <= N."""
    for big_n in range(1, 8):
        for r in range(0, big_n + 1):
            for s in range(0, big_n + 1):
                oracle_tail = schur_oracle(big_n, r, s, big_n, "one")
                printed = printed_coefficient(big_n, r, s)
                assert oracle_tail - printed == Fraction(1, big_n + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 6), st.integers(0, 6), st.integers(0, 12))
def test_oracle_properties(big_n, r, s, l):
    c = schur_oracle(big_n, r, s, l, "one")
    assert Fraction(0) <= c <= Fraction(1)
    # monotone and eventually constant in the offset
    assert schur_oracle(big_n, r, s, l + 1, "one") >= c
    assert schur_oracle(big_n, r, s, big_n + 1, "one") == \
        schur_oracle(big_n, r, s, big_n + 20, "one")
    # two-sided coefficient depends only on |r - s|
    assert schur_oracle(big_n, r, s, 0, "two") == \
        schur_oracle(big_n, s, r, 0, "two")


# ---------------------------------------------------------------------------
# graded operators and generators
# ---------------------------------------------------------------------------

def test_graded_algebra(cuntz):
    w = FockWindow.one_sided(4)
    xi = cuntz.sample_vector(1, 3)
    eta = cuntz.sample_vector(1, 4)
    t_xi = creation_op(cuntz, xi, w, 1)
    t_eta = creation_op(cuntz, eta, w, 1)
    prod = t_xi @ t_eta
    # compare t_xi t_eta t_eta* t_xi* with the degree-2 rank-one band
    lhs = prod @ prod.adjoint()
    xi_eta = cuntz.amplify(xi, 1) @ eta  # xi (x) eta, convention C2
    rhs = toeplitz_op(cuntz, xi_eta, xi_eta, w, 2, 2)
    for k in range(0, w.hi - 2):   # blocks unaffected by the window edge
        assert (lhs.block(2 + k, 2 + k) - rhs.block(2 + k, 2 + k)).max_abs() < 1e-10


def test_adjoint_and_identity(cuntz):
    w = FockWindow.one_sided(3)
    ident = GradedOperator(cuntz, w, {(d, d): AMatrix.eye(cuntz.algebra, cuntz.fiber_dim(d))
                                      for d in w.degrees()})
    xi = cuntz.sample_vector(1, 9)
    t = creation_op(cuntz, xi, w, 1)
    assert shared_block_dev(ident @ t, t) == 0.0
    assert shared_block_dev(t.adjoint().adjoint(), t) == 0.0


def test_to_amatrix_roundtrip(cuntz):
    w = FockWindow.one_sided(3)
    t = toeplitz_op(cuntz, cuntz.sample_vector(1, 1), cuntz.sample_vector(2, 2), w, 1, 2)
    back = GradedOperator.from_amatrix(cuntz, w, t.to_amatrix())
    assert shared_block_dev(t, back) == 0.0


def test_empty_operator_to_amatrix_keeps_stack_shape(cuntz):
    """An operator with no blocks has no block to read a stack depth from; the
    stack shape of the caller's ``out`` decides it."""
    w = FockWindow.one_sided(2)
    side = sum(cuntz.fiber_dim(d) for d in w.degrees())
    empty = GradedOperator(cuntz, w)
    flats = [np.zeros((3, side * d, side * d), dtype=complex) for d in cuntz.algebra.block_dims]
    got = empty.to_amatrix(out=AMatrix.from_flat(cuntz.algebra, side, side, flats))
    assert got.stack_shape == (3,) and (got.rows, got.cols) == (side, side)
    assert [b.shape for b in got.blocks] == \
        [(3, side, side, d, d) for d in cuntz.algebra.block_dims]
    assert not any(b.any() for b in got.blocks)
    assert empty.to_amatrix().stack_shape == ()


def test_cuntz_relation(cuntz):
    """sum_i t_i t_i* = 1 - P_0 on the truncated Fock module (away from the
    top degree, which the window cuts)."""
    w = FockWindow.one_sided(4)
    acc = GradedOperator(cuntz, w)
    for i in range(2):
        col = AMatrix.zeros(cuntz.algebra, 2, 1)
        col.blocks[0][i, 0] = 1.0
        acc = acc + toeplitz_op(cuntz, col, col, w, 1, 1)
    for k in range(1, w.hi):   # degree 0 excluded: that is P_0
        dev = (acc.block(k, k) - AMatrix.eye(cuntz.algebra, 2 ** k)).max_abs()
        assert dev < 1e-12
    assert acc.block(0, 0).max_abs() == 0.0


# ---------------------------------------------------------------------------
# the band primitive
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_band_powers_equal_direct_amplification(preset):
    """Every incremental power equals spec.amplify(x, k) computed from x in
    one call, including the negative powers of the bimodule case."""
    spec = build_preset(preset)
    x = sample(spec.algebra, 7)
    k_lo = -3 if spec.n == 1 else 0
    got = list(band_powers(spec, {0: x}, k_lo, 3))
    assert [k for k, _ in got] == [0, 1, 2, 3] + list(range(-1, k_lo - 1, -1))
    for k, xk in got:
        assert (xk - spec.amplify(x, k)).max_abs() == 0.0, k


@pytest.mark.parametrize("preset, window, r, s", [
    ("cuntz2", FockWindow.one_sided(5), 2, 0),
    ("cuntz2", FockWindow.one_sided(5), 1, 3),
    ("crossed-z3", FockWindow.one_sided(4), 3, 1),
    ("crossed-z3", FockWindow.two_sided_sym(4), 3, 1),
    ("crossed-z3", FockWindow(-2, 5), 0, 2),
])
def test_band_op_support(preset, window, r, s):
    spec = build_preset(preset)
    x = rank_one(spec.sample_vector(r, 1), spec.sample_vector(s, 2))
    ks = range(-20, 21) if window.two_sided else range(0, 21)
    want = {(r + k, s + k) for k in ks
            if window.lo <= r + k <= window.hi and window.lo <= s + k <= window.hi}
    assert set(band_op(spec, x, r, s, window).blocks) == want
    with pytest.raises(ConfigurationError):
        band_op(spec, x, r, window.hi + 1, window)


def loop_psi_amplify(x, window):
    """Psi_N as the sum over every (input block, shift) pair, each shift
    amplified from its input block by one spec.amplify call and weighted."""
    big_n = x.window.hi
    out = GradedOperator(x.spec, window)
    for (i, j), val in x.blocks.items():
        k_lo = window.lo - min(i, j) if window.two_sided else 0
        for k in range(k_lo, window.hi - max(i, j) + 1):
            out.add_block(i + k, j + k, x.spec.amplify(val, k) * (1.0 / (big_n + 1)))
    return out


def random_graded(spec, big_n, seed, stack=()):
    """Random dense blocks (stacks of them for a nonempty ``stack``) on about
    two thirds of the degree pairs of the window [0, N], so diagonals have
    gaps."""
    rng = np.random.default_rng(seed)
    keys = [(i, j) for i in range(big_n + 1) for j in range(big_n + 1)
            if rng.random() < 0.65] or [(0, big_n)]
    blocks = {}
    for i, j in keys:
        shape = (spec.fiber_dim(i), spec.fiber_dim(j))
        blocks[(i, j)] = AMatrix(spec.algebra, *shape, [
            rng.standard_normal(stack + shape + (d, d))
            + 1j * rng.standard_normal(stack + shape + (d, d))
            for d in spec.algebra.block_dims])
    return GradedOperator(spec, FockWindow.one_sided(big_n), blocks)


def assert_psi_matches_loop(spec, window, big_n, seed, stack=()):
    x = random_graded(spec, big_n, seed, stack)
    got = psi_amplify(x, window)
    want = loop_psi_amplify(x, window)
    assert got.support() == want.support()
    assert shared_block_dev(got, want) <= 1e-12


PSI_CASES = [(name, sided, big_n) for name in sorted(PRESETS) + ["mixed"]
             for sided in ("one", "two") if sided == "one" or build(name).n == 1
             for big_n in (2, 3)]


@pytest.mark.parametrize("name, sided, big_n", PSI_CASES)
@pytest.mark.parametrize("stack", [(), (2,)], ids=["single", "stack"])
def test_psi_amplify_equals_per_shift_sum(name, sided, big_n, stack):
    """Horner's rule along each diagonal against the sum over every input
    block and shift, on one- and two-sided windows, for single operators and
    for stacks."""
    spec = build(name)
    window = (FockWindow.two_sided_sym(big_n + 2) if sided == "two"
              else FockWindow.one_sided(big_n + 2))
    assert_psi_matches_loop(spec, window, big_n, 10 * big_n + len(stack), stack)


@settings(max_examples=20, deadline=None)
@given(correspondences(), st.integers(2, 3), st.integers(0, 1000))
def test_random_correspondence_psi_amplify(spec, big_n, seed):
    hi = big_n + 1 if spec.n > 1 else big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    assert_psi_matches_loop(spec, window, big_n, seed)


def test_creation_op_two_sided_carries_negative_offsets(z3):
    w = FockWindow.two_sided_sym(3)
    xi = z3.sample_vector(1, 5)
    t = creation_op(z3, xi, w, 1)
    assert sorted(t.blocks) == [(k + 1, k) for k in range(-3, 3)]
    for k in range(-3, 3):
        assert (t.block(k + 1, k) - z3.amplify(xi, k)).max_abs() == 0.0


@pytest.mark.parametrize("target", [FockWindow.one_sided(2), FockWindow(0, 6),
                                    FockWindow(-1, 1), FockWindow.two_sided_sym(5)])
def test_restrict_keeps_blocks_inside_window(z3, target):
    w = FockWindow.two_sided_sym(4)
    t = toeplitz_op(z3, z3.sample_vector(2, 1), z3.sample_vector(0, 2), w, 2, 0)
    got = t.restrict(target)
    assert got.window == target
    inside = [key for key in t.blocks
              if all(target.lo <= d <= target.hi for d in key)]
    assert list(got.blocks) == inside
    assert all(got.blocks[key] is t.blocks[key] for key in inside)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def test_v_n_frozen_coefficients(cuntz):
    """N=3, r=1, s=0: ramp 1/4, 1/2, 3/4 then constant 3/4."""
    w = FockWindow.one_sided(6)
    mu = cuntz.sample_vector(1, 11)
    nu = cuntz.sample_vector(0, 12)
    _, rows, _ = v_n(cuntz, toeplitz_op(cuntz, mu, nu, w, 1, 0), 3, w, 1, 0)
    got = {r.l: r.measured for r in rows}
    assert abs(got[0] - 0.25) < 1e-12
    assert abs(got[1] - 0.50) < 1e-12
    assert abs(got[2] - 0.75) < 1e-12
    assert abs(got[5] - 0.75) < 1e-12
    assert all(r.abs_err < 1e-12 for r in rows)


def test_w_n_uniform_and_unital(z3):
    w = FockWindow.two_sided_sym(5)
    mu = z3.sample_vector(1, 3)
    nu = z3.sample_vector(1, 4)
    # j = 0: the pipeline is unital, coefficient exactly 1; the band v_n
    # returns (the certificate's target) is the generator's Toeplitz band
    out, rows, band = v_n(z3, toeplitz_op(z3, mu, mu, w, 2, 2), 4, w, 2, 2)
    assert all(abs(r.measured - 1.0) < 1e-12 for r in rows)
    assert (band - toeplitz_op(z3, mu, mu, w, 2, 2)).norm() == 0.0
    assert (out - band).norm() < 1e-12
    # j = 2: uniform coefficient 3/5 at every representable offset
    _, rows, _ = v_n(z3, toeplitz_op(z3, mu, nu, w, 3, 1), 4, w, 3, 1)
    assert all(abs(r.measured - 0.6) < 1e-12 for r in rows)
    assert len({round(r.measured, 12) for r in rows}) == 1
    assert {r.sided for r in rows} == {"two"}


@pytest.mark.parametrize("name", ["crossed-z3", "rotation-m2"])
@pytest.mark.parametrize("sided", ["one", "two"])
def test_v_n_rows_equal_oracle_on_either_window(name, sided):
    """On n = 1, v_n takes its sidedness from the window: every row carries
    that ``sided`` label and the oracle's coefficient for it."""
    spec = build_preset(name)
    for big_n in (2, 3):
        hi = big_n + 2
        window = FockWindow.two_sided_sym(hi) if sided == "two" else FockWindow.one_sided(hi)
        for r in range(3):
            for s in range(3):
                mu, nu = spec.sample_vector(r, 5 + r), spec.sample_vector(s, 9 + s)
                band = toeplitz_op(spec, mu, nu, window, r, s)
                _, rows, _ = v_n(spec, band, big_n, window, r, s)
                assert rows and {row.sided for row in rows} == {sided}
                for row in rows:
                    assert row.expected == schur_oracle(big_n, r, s, row.l, sided)
                    assert row.abs_err <= EQ_TOL


def test_v_n_two_sided_window_needs_bimodule(cuntz):
    """A two-sided window exists for n = 1 only: on n = 2 the band for v_n
    is refused."""
    mu, nu = cuntz.sample_vector(1, 3), cuntz.sample_vector(1, 4)
    two = FockWindow.two_sided_sym(4)
    with pytest.raises(ConfigurationError):
        v_n(cuntz, toeplitz_op(cuntz, mu, nu, two, 1, 1), 2, two, 1, 1)


@pytest.mark.parametrize("name", ["cuntz2", "twisted2", "crossed-z3"])
def test_v_n_on_a_wider_band_equals_v_n_on_its_own(name):
    """A band built on the widest window of N = 2..5, restricted by v_n to
    each N's window, gives the rows, output and band that the band built on
    that window gives, bit for bit: band blocks are degree-monotone."""
    spec = build_preset(name)
    widest = window_to(spec, 7)
    for r, s in ((0, 0), (1, 0), (2, 1), (1, 3), (3, 3)):
        mu, nu = spec.sample_vector(r, 40 + r), spec.sample_vector(s, 50 + s)
        wide = toeplitz_op(spec, mu, nu, widest, r, s)
        for big_n in (2, 3, 4, 5):
            window = window_to(spec, big_n + 2)
            if max(r, s) > window.hi:
                continue
            out, rows, band = v_n(spec, wide, big_n, window, r, s)
            want_out, want_rows, want_band = v_n(
                spec, toeplitz_op(spec, mu, nu, window, r, s), big_n, window, r, s)
            assert rows == want_rows
            for got, want in ((out, want_out), (band, want_band)):
                assert got.window == want.window and sorted(got.blocks) == sorted(want.blocks)
                assert all(np.array_equal(a, b) for key in got.blocks
                           for a, b in zip(got.blocks[key].blocks, want.blocks[key].blocks))
            # the restriction is views of the wide band's blocks, not copies
            assert all(band.blocks[key] is wide.blocks[key] for key in band.blocks)


def test_v_n_refuses_a_band_that_does_not_cover_its_window(cuntz, z3):
    """The band must lie over the same correspondence, on a window of the
    same sidedness that contains the pipeline's window."""
    mu, nu = z3.sample_vector(1, 3), z3.sample_vector(1, 4)
    two5, two3 = FockWindow.two_sided_sym(5), FockWindow.two_sided_sym(3)
    for band, window in ((toeplitz_op(z3, mu, nu, two3, 1, 1), two5),
                         (toeplitz_op(z3, mu, nu, two5, 1, 1), FockWindow.one_sided(5)),
                         (toeplitz_op(z3, mu, nu, FockWindow.one_sided(5), 1, 1), two3)):
        with pytest.raises(ConfigurationError, match="does not contain"):
            v_n(z3, band, 2, window, 1, 1)
    other = build_preset("crossed-z3")
    with pytest.raises(SpecMismatchError):
        v_n(other, toeplitz_op(z3, mu, nu, two5, 1, 1), 2, two5, 1, 1)


def test_v_n_refuses_a_band_of_other_degrees(cuntz):
    """A band built at (1, 1) and passed as (2, 2), on cuntz2 at N = 2 on the
    window [0, 4]: the diagonal is the same, but the lowest block is (1, 1),
    not (2, 2).  It returned rows at offsets -1..2 with abs_err 1/3 each."""
    w = FockWindow.one_sided(4)
    mu, nu = cuntz.sample_vector(1, 3), cuntz.sample_vector(1, 4)
    band = toeplitz_op(cuntz, mu, nu, w, 1, 1)
    with pytest.raises(SpecMismatchError, match=r"degrees \(2, 2\)"):
        v_n(cuntz, band, 2, w, 2, 2)
    wide = toeplitz_op(cuntz, mu, nu, FockWindow.one_sided(6), 1, 1)
    with pytest.raises(SpecMismatchError):
        v_n(cuntz, wide, 2, w, 2, 2)
    assert [row.l for row in v_n(cuntz, wide, 2, w, 1, 1)[1]] == [0, 1, 2, 3]


@pytest.mark.parametrize("sided", ["one", "two"])
def test_v_n_refuses_a_band_off_its_diagonal(z3, sided):
    """On either window, a band with a block off the diagonal s - r is
    refused: a (1, 0) band passed as (1, 1), and a (1, 1) band with one
    extra block below its diagonal."""
    w = FockWindow.one_sided(4) if sided == "one" else FockWindow.two_sided_sym(4)
    mu, nu = z3.sample_vector(1, 3), z3.sample_vector(0, 4)
    with pytest.raises(SpecMismatchError):
        v_n(z3, toeplitz_op(z3, mu, nu, w, 1, 0), 2, w, 1, 1)
    band = toeplitz_op(z3, mu, z3.sample_vector(1, 5), w, 1, 1)
    assert v_n(z3, band, 2, w, 1, 1)[1]
    band.set_block(2, 1, band.block(2, 2))
    with pytest.raises(SpecMismatchError):
        v_n(z3, band, 2, w, 1, 1)


def test_wrong_explicit_degree_raises(cuntz):
    """Degrees are passed, never inferred; one that does not match the
    vector's rank n^r gives a block of the wrong shape."""
    w = FockWindow.one_sided(4)
    mu, nu = cuntz.sample_vector(1, 3), cuntz.sample_vector(2, 4)
    for r, s in ((2, 2), (1, 1), (0, 2)):
        with pytest.raises(SpecMismatchError):
            toeplitz_op(cuntz, mu, nu, w, r, s)
        with pytest.raises(SpecMismatchError):
            v_n(cuntz, toeplitz_op(cuntz, mu, nu, w, r, s), 2, w, r, s)
    with pytest.raises(SpecMismatchError):
        creation_op(cuntz, mu, w, 2)
    assert set(toeplitz_op(cuntz, mu, nu, w, 1, 2).blocks) == {(1, 2), (2, 3), (3, 4)}


# ---------------------------------------------------------------------------
# the band measurement against a per-block np.vdot reference
# ---------------------------------------------------------------------------

EQ_TOL = 1e-9


def vdot_measure(block, ref):
    """One pair at a time through np.vdot: the complex least-squares c (0
    below eq_tol) and the residual max |block - Re(c) ref|."""
    num = sum(np.vdot(r, b) for b, r in zip(block.blocks, ref.blocks))
    den = sum(np.vdot(r, r).real for r in ref.blocks)
    if den <= EQ_TOL ** 2:
        return 0.0, block.max_abs()
    c = num / den
    return c, (block - ref * c.real).max_abs()


def assert_measure_matches_vdot(pairs):
    coef, resid = _measure_band(pairs)
    assert coef.shape == resid.shape == (len(pairs),)
    for (block, ref), c, res in zip(pairs, coef, resid):
        if block is None:
            assert c == 0 and res == 0
            continue
        want_c, want_res = vdot_measure(block, ref)
        assert abs(c - want_c) <= 1e-12 * max(1.0, abs(want_c))
        assert abs(res - want_res) <= 1e-12 * max(1.0, want_res)


def window_to(spec, hi):
    """The window the CLI uses for a spec: two-sided when n = 1."""
    return FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)


def band_pairs(spec, big_n, r, s, hi, seed):
    """(Psi_N phi_N output block, band block) on the band of a seeded
    generator, as ``v_n`` pairs them."""
    window = window_to(spec, hi)
    mu, nu = spec.sample_vector(r, seed), spec.sample_vector(s, seed + 1)
    top = toeplitz_op(spec, mu, nu, window, r, s)
    out = fock.psi_amplify(compress(top, big_n), window)
    return [(out.blocks.get(key), top.blocks[key]) for key in sorted(top.blocks)]


def perturbed(pairs, seed):
    """The pairs with each block moved off its band multiple: a complex
    phase and seeded noise, so that coefficients and residuals are generic."""
    rng = np.random.default_rng(seed)
    out = []
    for block, ref in pairs:
        if block is None:
            block = AMatrix.zeros(ref.spec, ref.rows, ref.cols)
        noise = AMatrix(ref.spec, ref.rows, ref.cols,
                        [rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
                         for b in ref.blocks])
        out.append((block * (0.7 - 0.4j) + noise * 1e-3, ref))
    return out


@pytest.mark.parametrize("name", sorted(PRESETS) + ["mixed"])
@pytest.mark.parametrize("big_n", [2, 3, 4, 5])
def test_band_measure_equals_vdot_reference(name, big_n):
    """On every generator band of the CLI's grid (window N + 2), the pipeline
    output and a perturbed copy of it: the stacked path (n = 1, where every
    band block has one shape) and the view path (n = 2) alike."""
    spec = build(name)
    for r in range(3):
        for s in range(3):
            pairs = band_pairs(spec, big_n, r, s, big_n + 2, 7001 * r + 31 * s)
            assert_measure_matches_vdot(pairs)
            assert_measure_matches_vdot(perturbed(pairs, 7001 * r + 31 * s))


@settings(max_examples=15, deadline=None)
@given(correspondences(), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 1000))
def test_random_correspondence_band_measure(spec, big_n, r, s, seed):
    hi = big_n + 1 if spec.n > 1 else big_n + 2
    if max(r, s) > hi:
        return
    pairs = band_pairs(spec, big_n, r, s, hi, seed)
    assert_measure_matches_vdot(pairs)
    assert_measure_matches_vdot(perturbed(pairs, seed))


def test_band_measure_zero_reference_and_absent_block(z3):
    """A reference below eq_tol gives coefficient 0 and residual max |block|,
    alone or stacked with a pair of its shape; an absent block gives 0, 0."""
    rng = np.random.default_rng(5)
    block = AMatrix(z3.algebra, 1, 1, [rng.standard_normal((1, 1, 1, 1)) + 0j
                                        for _ in range(3)])
    zero = AMatrix.zeros(z3.algebra, 1, 1)
    ref = sample(z3.algebra, 3)
    for pairs in ([(block, zero)], [(block * 2.0, ref), (block, zero), (None, ref)]):
        coef, resid = _measure_band(pairs)
        k = [i for i, (_, r) in enumerate(pairs) if r is zero][0]
        assert coef[k] == 0 and resid[k] == block.max_abs()
        assert_measure_matches_vdot(pairs)


@pytest.mark.parametrize("name", ["cuntz2", "twisted2", "crossed-z3"])
def test_band_block_off_by_a_constant_raises(monkeypatch, name):
    """Psi_N adding a constant to one output block of the band: the block is
    no longer a multiple of the band block, and the measurement must raise."""
    spec = build_preset(name)
    psi = fock.psi_amplify

    def shifted(x, window):
        out = psi(x, window)
        key = min(out.blocks)
        val = out.blocks[key]
        out.blocks[key] = val + AMatrix(spec.algebra, val.rows, val.cols,
                                        [np.full(b.shape, 1e-3) for b in val.blocks])
        return out

    window = window_to(spec, 4)
    mu, nu = spec.sample_vector(1, 3), spec.sample_vector(1, 4)
    band = toeplitz_op(spec, mu, nu, window, 1, 1)
    v_n(spec, band, 2, window, 1, 1)
    monkeypatch.setattr(fock, "psi_amplify", shifted)
    with pytest.raises(ValidationError, match="not a real multiple"):
        v_n(spec, band, 2, window, 1, 1)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_imaginary_coefficient_above_eq_tol_raises(monkeypatch, name):
    """Psi_N's output times 1 + 5e-9 i: the residual against Re c stays
    under its 1e-8 floor, but Im c reaches 5e-9 x c > eq_tol on the rows with
    c >= 1/4, and a Schur coefficient must be real to within eq_tol."""
    spec = build_preset(name)
    psi = fock.psi_amplify
    monkeypatch.setattr(fock, "psi_amplify", lambda x, w: psi(x, w) * (1 + 5e-9j))
    pairs = band_pairs(spec, 3, 1, 1, 5, 11)
    coef, resid = _measure_band(pairs)
    assert resid.max() < 1e-8 and np.abs(coef.imag).max() > EQ_TOL
    window = window_to(spec, 5)
    mu, nu = spec.sample_vector(1, 11), spec.sample_vector(1, 12)
    with pytest.raises(ValidationError, match="not a real multiple"):
        v_n(spec, toeplitz_op(spec, mu, nu, window, 1, 1), 3, window, 1, 1)


def test_compress_support(cuntz):
    w = FockWindow.one_sided(5)
    t = toeplitz_op(cuntz, cuntz.sample_vector(1, 5), cuntz.sample_vector(1, 6), w, 1, 1)
    c = compress(t, 2)
    assert c.window == FockWindow.one_sided(2)
    assert sorted(c.blocks) == [(1, 1), (2, 2)]
    assert all(c.blocks[key] is t.blocks[key] for key in c.blocks)
    with pytest.raises(ConfigurationError):
        compress(t, 9)


def test_psi_amplify_rejects_unsupported_input(cuntz, z3):
    """Psi_N takes an operator on a one-sided window [0, N] and needs a
    target window that contains [0, N]."""
    two = FockWindow.two_sided_sym(2)
    t = toeplitz_op(z3, z3.sample_vector(1, 5), z3.sample_vector(1, 6), two, 1, 0)
    with pytest.raises(ConfigurationError):
        psi_amplify(t, FockWindow.two_sided_sym(4))
    t = toeplitz_op(cuntz, cuntz.sample_vector(1, 5), cuntz.sample_vector(1, 6),
                    FockWindow.one_sided(4), 1, 1)
    with pytest.raises(ConfigurationError):
        psi_amplify(t, FockWindow.one_sided(3))


def test_window_extension_invariance(cuntz, z3):
    """Pipelines at windows M and M+2 agree on shared blocks."""
    mu = cuntz.sample_vector(2, 7)
    nu = cuntz.sample_vector(1, 8)
    w5, w7 = FockWindow.one_sided(5), FockWindow.one_sided(7)
    small, _, _ = v_n(cuntz, toeplitz_op(cuntz, mu, nu, w5, 2, 1), 3, w5, 2, 1)
    large, _, _ = v_n(cuntz, toeplitz_op(cuntz, mu, nu, w7, 2, 1), 3, w7, 2, 1)
    assert shared_block_dev(small, large) < 1e-12
    mu1 = z3.sample_vector(1, 7)
    nu1 = z3.sample_vector(1, 8)
    w5, w7 = FockWindow.two_sided_sym(5), FockWindow.two_sided_sym(7)
    small, _, _ = v_n(z3, toeplitz_op(z3, mu1, nu1, w5, 2, 1), 3, w5, 2, 1)
    large, _, _ = v_n(z3, toeplitz_op(z3, mu1, nu1, w7, 2, 1), 3, w7, 2, 1)
    assert shared_block_dev(small, large) < 1e-12


def test_pipeline_table_is_cp(z3):
    w = FockWindow.two_sided_sym(2)
    table = pipeline_table(z3, w, 1)
    rep = choi_cp_check(table)
    assert rep.passed
    assert rep.min_eigenvalue > -1e-10


def test_window_must_contain_zero():
    with pytest.raises(ConfigurationError):
        FockWindow(1, 3)
    with pytest.raises(ConfigurationError):
        FockWindow(-1, -1)


def test_two_sided_needs_bimodule(cuntz):
    with pytest.raises(ConfigurationError):
        GradedOperator(cuntz, FockWindow.two_sided_sym(2))
