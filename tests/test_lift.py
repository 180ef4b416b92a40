"""Extended-module lifting, bimodule compression, and CPAP certificates."""

import numpy as np
import pytest

from pimsner_lab.star_core import ConfigurationError, SpecMismatchError
from pimsner_lab.hilbert_mod import AMatrix, choi_cp_check, tol_grid
from pimsner_lab.fock import FockWindow, schur_oracle, toeplitz_op
from pimsner_lab.expectation import _sample_matrix
from pimsner_lab.lift import (
    EInftyContext,
    bilateral_lift,
    cpap_certificate,
    eps_hat_graded,
    factor_tables,
    lift_defect,
    pi_i,
    toeplitz_infty,
)
from pimsner_lab.presets import build_preset

from conftest import is_positive, shared_block_dev


@pytest.fixture(scope="module")
def cuntz():
    return build_preset("cuntz2")


@pytest.fixture(scope="module")
def twisted():
    return build_preset("twisted2")


# ---------------------------------------------------------------------------
# extended-module coordinates
# ---------------------------------------------------------------------------

def test_inner_products(twisted):
    """The extended module's inner products in level-K coordinates: the
    right one <x, y> = x* y in B, the left one [x_i y_j*] = x y*."""
    ctx = EInftyContext(twisted, 1)
    x = ctx.vector(twisted.sample_vector(1, 1), _sample_matrix(twisted, 2, 2))
    y = ctx.vector(twisted.sample_vector(1, 3), _sample_matrix(twisted, 2, 4))
    z = ctx.vector(twisted.sample_vector(1, 5), _sample_matrix(twisted, 2, 6))
    right = x.adjoint() @ y
    assert (right.adjoint() - y.adjoint() @ x).max_abs() < 1e-12
    assert is_positive(x.adjoint() @ x)
    assert is_positive(x @ x.adjoint())
    # bimodule link: <x, y>_left z = x <y, z>_right
    lhs = (x @ y.adjoint()) @ z
    rhs = x @ (y.adjoint() @ z)
    assert (lhs - rhs).max_abs() < 1e-10


def test_phi_inf1_is_homomorphism(twisted):
    """The left action of B = M_2(A) one level up the tower, b (x) I_E."""
    b1 = _sample_matrix(twisted, 2, 11)
    b2 = _sample_matrix(twisted, 2, 12)
    lhs = twisted.amplify(b1 @ b2, 1)
    rhs = twisted.amplify(b1, 1) @ twisted.amplify(b2, 1)
    assert (lhs - rhs).max_abs() < 1e-10
    assert (twisted.amplify(b1.adjoint(), 1)
            - twisted.amplify(b1, 1).adjoint()).max_abs() < 1e-12


def test_pi_i_is_representation(cuntz):
    w = FockWindow.one_sided(4)
    t1 = _sample_matrix(cuntz, 2, 21)
    t2 = _sample_matrix(cuntz, 2, 22)
    lhs = pi_i(cuntz, 1, t1, w) @ pi_i(cuntz, 1, t2, w)
    rhs = pi_i(cuntz, 1, t1 @ t2, w)
    assert shared_block_dev(lhs, rhs) < 1e-10
    # support starts at degree i
    assert all(i >= 1 and i == j for (i, j) in pi_i(cuntz, 1, t1, w).blocks)


@pytest.mark.parametrize("preset, i, window", [
    ("cuntz2", 0, FockWindow.one_sided(3)),
    ("cuntz2", 2, FockWindow.one_sided(4)),
    ("crossed-z3", 1, FockWindow.two_sided_sym(3)),
    ("crossed-z3", 3, FockWindow(-2, 3)),
])
def test_pi_i_support_starts_at_degree_i(preset, i, window):
    """pi_i acts on degrees >= i only, on two-sided windows too."""
    spec = build_preset(preset)
    t = _sample_matrix(spec, spec.fiber_dim(i), 61)
    assert sorted(pi_i(spec, i, t, window).blocks) == \
        [(j, j) for j in range(i, window.hi + 1)]


def test_unit_lift_reduces_to_toeplitz(cuntz):
    """With b = c = 1 the lifted generator collapses to t_mu t_nu*."""
    w = FockWindow.one_sided(5)
    ctx = EInftyContext(cuntz, 1)
    mu = cuntz.sample_vector(1, 31)
    nu = cuntz.sample_vector(2, 32)
    one = AMatrix.eye(cuntz.algebra, cuntz.n ** ctx.level)
    lifted = eps_hat_graded(ctx, toeplitz_infty(ctx, mu, one, nu, one, w, 1, 2), w)
    assert shared_block_dev(lifted, toeplitz_op(cuntz, mu, nu, w, 1, 2)) < 1e-12


@pytest.mark.parametrize("preset", ["cuntz2", "twisted2"])
@pytest.mark.parametrize("i,level", [(1, 1), (1, 2), (2, 2)])
def test_defect_vanishes_at_and_above_i(preset, i, level):
    spec = build_preset(preset)
    w = FockWindow.one_sided(5)
    ctx = EInftyContext(spec, level)
    mu = spec.sample_vector(1, 41)
    nu = spec.sample_vector(1, 42)
    b0 = _sample_matrix(spec, spec.fiber_dim(i), 43)
    c0 = _sample_matrix(spec, spec.fiber_dim(i), 44)
    _, rep = lift_defect(ctx, mu, nu, b0, c0, i, w, 1, 1)
    assert rep["pass"], rep
    assert rep["max_dev_at_or_above_i"] < 1e-9
    assert all(k < i for k in rep["support"])


def test_defect_bimodule_case():
    spec = build_preset("rotation-m2")
    w = FockWindow.one_sided(5)
    ctx = EInftyContext(spec, 2)
    mu = spec.sample_vector(1, 51)
    nu = spec.sample_vector(1, 52)
    b0 = _sample_matrix(spec, 1, 53)
    c0 = _sample_matrix(spec, 1, 54)
    _, rep = lift_defect(ctx, mu, nu, b0, c0, 1, w, r=1, s=2)
    assert rep["pass"], rep


# ---------------------------------------------------------------------------
# bimodule lift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["crossed-z3", "rotation-m2"])
def test_bilateral_lift_band_exact(preset):
    spec = build_preset(preset)
    two = FockWindow.two_sided_sym(6)
    for (r, s) in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        mu = spec.sample_vector(1, 61 + r)
        nu = spec.sample_vector(1, 71 + s)
        _, rep = bilateral_lift(spec, mu, nu, r, s, two)
        assert rep["band_dev"] < 1e-12
        assert rep["bilateral_tail_dev"] < 1e-12
        assert all(-min(r, s) <= k < 0 for k in rep["compact_offsets"])


def test_bilateral_lift_fails_on_corrupted_amplification():
    """The band is checked against phi_k_direct, so an amplification that is
    off by a relative 1e-6 fails the case (the band itself is built with the
    corrupted amplify)."""
    spec = build_preset("crossed-z3")
    good = spec.amplify
    mu, nu = spec.sample_vector(1, 61), spec.sample_vector(1, 71)
    two = FockWindow.two_sided_sym(6)
    _, rep = bilateral_lift(spec, mu, nu, 1, 0, two)
    assert rep["pass"] and rep["band_dev"] < 1e-12
    spec.amplify = lambda x, k: good(x, k) * (1 + 1e-6)
    _, rep = bilateral_lift(spec, mu, nu, 1, 0, two)
    assert not rep["pass"]
    assert rep["band_dev"] > 1e-7


def test_bilateral_lift_compact_part_is_real():
    """u u* = 1 bilaterally, but the one-sided t t* = 1 - P_0: the compression
    keeps an honest extra block at offset -1."""
    spec = build_preset("crossed-z3")
    two = FockWindow.two_sided_sym(5)
    one_vec = AMatrix.eye(spec.algebra, 1)
    _, rep = bilateral_lift(spec, one_vec, one_vec, 1, 1, two)
    assert rep["compact_offsets"] == [-1]


def test_bilateral_compression_is_cp():
    """The compress factor map at N = window.hi, from the two-sided window
    onto its one-sided part."""
    spec = build_preset("crossed-z3")
    table, _, _ = factor_tables(spec, FockWindow.two_sided_sym(2), 2)
    rep = choi_cp_check(table)
    assert rep.passed


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_schema_and_bounds(cuntz):
    cert = cpap_certificate(cuntz, 2, [(0, 0), (1, 0), (1, 1)],
                            FockWindow.one_sided(4), seed=7,
                            created="2026-08-23")
    d = cert.to_dict()
    assert set(d) == {"spec", "N", "D", "flatten_dim", "generators",
                      "factor_maps", "tolerances", "seed", "created",
                      "tool_version"}
    assert d["D"] == 1 + 2 + 4
    assert d["flatten_dim"] == d["D"] * cuntz.algebra.total_dim
    for g in d["generators"]:
        assert set(g) >= {"r", "s", "seed", "coeff_expected",
                          "coeff_measured", "error"}
        num, den = g["coeff_expected"]
        assert isinstance(num, int) and isinstance(den, int)
    for fm in d["factor_maps"]:
        assert fm["cp"]["pass"]
        assert fm["direction"] in ("compress", "amplify")
    # the computed values print on the eq_tol grid, not at BLAS-dependent digits
    for g, rec in zip(d["generators"], cert.generators):
        assert g["error"] == tol_grid(rec.error, cuntz.tol.eq_tol)
        assert g["coeff_measured"] == tol_grid(rec.coeff_measured, cuntz.tol.eq_tol)


def test_certificate_error_within_fejer_bound():
    spec = build_preset("crossed-z3")
    w = FockWindow.two_sided_sym(6)
    for big_n in (2, 3, 4):
        cert = cpap_certificate(spec, big_n, [(1, 0), (2, 0)], w, seed=5,
                                created="2026-08-23")
        for g in cert.generators:
            band = abs(g.r - g.s)
            assert g.error <= band / (big_n + 1) * g.norm + 1e-9


@pytest.mark.parametrize("name", ["crossed-z3", "rotation-m2"])
def test_n1_certificate_on_one_sided_window(name):
    """The window, not n, picks the pipeline: on a one-sided window an n = 1
    certificate takes the tail coefficient of V_N and the band max(r, s),
    and every generator stays inside its Fejer bound."""
    spec = build_preset(name)
    w = FockWindow.one_sided(5)
    gens = [(r, s) for r in range(3) for s in range(3)]
    for big_n in (2, 3):
        cert = cpap_certificate(spec, big_n, gens, w, seed=5)
        assert all(cp.passed for _, cp in cert.factor_maps)
        for g in cert.generators:
            assert g.coeff_expected == schur_oracle(big_n, g.r, g.s, big_n, "one")
            assert abs(g.coeff_measured - float(g.coeff_expected)) <= 1e-9
            assert g.error <= max(g.r, g.s) / (big_n + 1) * g.norm + 1e-9


def test_wrong_explicit_degree_raises(cuntz):
    """A degree that does not match the vector's rank n^r gives a block of
    the wrong shape, in the lifted generator and in the defect alike."""
    w = FockWindow.one_sided(5)
    ctx = EInftyContext(cuntz, 1)
    mu, nu = cuntz.sample_vector(1, 51), cuntz.sample_vector(1, 52)
    b0 = _sample_matrix(cuntz, 2, 53)
    c0 = _sample_matrix(cuntz, 2, 54)
    with pytest.raises(SpecMismatchError):
        lift_defect(ctx, mu, nu, b0, c0, 1, w, 2, 1)
    with pytest.raises(SpecMismatchError):
        eps_hat_graded(ctx, toeplitz_infty(ctx, mu, b0, nu, c0, w, 1, 2), w)
    assert lift_defect(ctx, mu, nu, b0, c0, 1, w, 1, 1)[1]["pass"]


def test_window_too_small_rejected(cuntz):
    with pytest.raises(ConfigurationError):
        cpap_certificate(cuntz, 6, [(0, 0)], FockWindow.one_sided(4), seed=1)


def test_generator_pair_that_could_share_a_seed_rejected(cuntz):
    """A pair is seeded at seed + 100 (3 r + s), its own only while s <= 2:
    (0, 3) would draw from (1, 0)'s seed, and is refused by name before any
    check runs.  Pairs with s <= 2 run, at their own seeds."""
    w = FockWindow.one_sided(4)
    with pytest.raises(ConfigurationError, match=r"\(0, 3\)"):
        cpap_certificate(cuntz, 2, [(0, 3), (1, 0)], w, seed=0)
    cert = cpap_certificate(cuntz, 2, [(2, 2), (1, 0)], w, seed=0)
    assert [(g.r, g.s, g.seed) for g in cert.generators] == [(2, 2, 800), (1, 0, 300)]
