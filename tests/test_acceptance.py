"""Acceptance criteria, one test per criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Tolerances
are stated inline; timing-limited criteria assert wall-clock budgets.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from pimsner_lab.hilbert_mod import (
    AMatrix,
    choi_cp_check,
    inner,
    positivity_probe,
    rank_one,
    sample,
)
from pimsner_lab.fock import (
    FockWindow,
    schur_oracle,
    toeplitz_op,
    v_n,
)
from pimsner_lab.expectation import (
    _sample_matrix,
    eps_hat,
    ex_k,
    ex_k_table,
)
from pimsner_lab.lift import (
    EInftyContext,
    bilateral_lift,
    cpap_certificate,
    factor_tables,
    lift_defect,
)
from pimsner_lab.presets import PRESETS, build_preset
from pimsner_lab.cli import main

from conftest import shared_block_dev
from test_batched_maps import pipeline_table
from test_fock import printed_coefficient


SPECS = {name: build_preset(name) for name in PRESETS}


def _window(spec, hi):
    return FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)


def test_criterion_01_schur_coefficient_exactness():
    """cuntz2, crossed-z3, twisted2; N <= 8, r,s <= 4: measured pipeline
    coefficients equal the counting oracle to 1e-9 in < 60 s, and the
    printed coefficient min(N-r,N-s)/(N+1) is off from the oracle by exactly
    1/(N+1) - decided by W_N unitality at j = 0."""
    t0 = time.monotonic()
    worst = 0.0
    for name in ("cuntz2", "crossed-z3", "twisted2"):
        spec = SPECS[name]
        for big_n in range(1, 9):
            window = _window(spec, max(big_n, 4) + 1)
            for r in range(5):
                for s in range(5):
                    mu = spec.sample_vector(r, 1000 + 10 * r + s)
                    nu = spec.sample_vector(s, 2000 + 10 * r + s)
                    band = toeplitz_op(spec, mu, nu, window, r, s)
                    _, rows, _ = v_n(spec, band, big_n, window, r, s)
                    worst = max(worst, max(x.abs_err for x in rows))
    assert worst < 1e-9, f"worst oracle deviation {worst:.3e}"
    # the printed/oracle discrepancy, reported rather than reconciled
    for big_n in range(1, 9):
        for r in range(min(big_n, 4) + 1):
            for s in range(min(big_n, 4) + 1):
                assert schur_oracle(big_n, r, s, big_n, "one") \
                    - printed_coefficient(big_n, r, s) == Fraction(1, big_n + 1)
    # deciding check: the two-sided pipeline is unital at j = 0 (coefficient
    # exactly 1, which the printed formula would put at N/(N+1))
    z3 = SPECS["crossed-z3"]
    mu = z3.sample_vector(1, 77)
    window = _window(z3, 6)
    _, rows, _ = v_n(z3, toeplitz_op(z3, mu, mu, window, r=2, s=2), 4, window, r=2, s=2)
    assert all(abs(x.measured - 1.0) < 1e-9 for x in rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f} s"


def test_criterion_02_fejer_convergence_rate():
    """error * (N+1) is constant in N (relative 1e-6) per band j <= 4, and
    equals j * ||g|| in the bilateral case.

    N starts at max(2, j-1): below that the truncation clamps the
    coefficient at 0 and the product is j-independent (see the decisions
    ledger), so the stated constancy cannot hold there."""
    # bilateral: measure || W_N(g) - g || directly
    z3 = SPECS["crossed-z3"]
    window = _window(z3, 9)
    for j in range(5):
        r, s = j, 0
        mu = z3.sample_vector(1, 300 + j)
        nu = z3.sample_vector(1, 400 + j)
        g_op = toeplitz_op(z3, mu, nu, window, r=r, s=s)
        g_norm = g_op.norm()
        for big_n in range(max(2, j - 1), 9):
            out, _, _ = v_n(z3, g_op, big_n, window, r=r, s=s)
            err = (out - g_op).norm()
            assert abs(err * (big_n + 1) - j * g_norm) <= 1e-6 * max(j * g_norm, 1.0)
    # one-sided: the quotient (tail) error has the same 1/(N+1) law
    cuntz = SPECS["cuntz2"]
    for j in range(5):
        r, s = j, 0
        mu = cuntz.sample_vector(r, 500 + j)
        nu = cuntz.sample_vector(s, 600 + j)
        e_norm = rank_one(mu, nu).norm()
        products = []
        for big_n in range(max(2, j - 1), 9):
            window = _window(cuntz, max(big_n, j) + 1)
            band = toeplitz_op(cuntz, mu, nu, window, r=r, s=s)
            _, rows, _ = v_n(cuntz, band, big_n, window, r=r, s=s)
            tail = [x for x in rows if x.l >= max(0, big_n - j)]
            err = abs(tail[0].measured - 1.0) * e_norm
            products.append(err * (big_n + 1))
        ref = j * e_norm
        for p in products:
            assert abs(p - ref) <= 1e-6 * max(ref, 1.0)


def test_criterion_03_complete_positivity():
    """Choi min eigenvalue >= -1e-8 wherever the Choi side fits in 4096;
    probe (k = 2, 50 trials) clean on the larger instances."""
    # V_N on a small one-sided window
    cuntz = SPECS["cuntz2"]
    rep = choi_cp_check(pipeline_table(cuntz, FockWindow.one_sided(4), 2))
    assert rep.passed and rep.min_eigenvalue >= -1e-8
    # W_N on a small two-sided window
    z3 = SPECS["crossed-z3"]
    rep = choi_cp_check(pipeline_table(z3, FockWindow.two_sided_sym(2), 1))
    assert rep.passed and rep.min_eigenvalue >= -1e-8
    # induced expectation eps-hat (= entrywise Ex_K) at K = 2, all presets
    for spec in SPECS.values():
        rep = choi_cp_check(ex_k_table(spec, 2))
        assert rep.passed and rep.min_eigenvalue >= -1e-8, spec.name
    # bilateral lift (compression of the two-sided window)
    rep = choi_cp_check(factor_tables(z3, FockWindow.two_sided_sym(2), 2)[0])
    assert rep.passed and rep.min_eigenvalue >= -1e-8
    # certificate factor maps, small instance
    phi, psi, _ = factor_tables(cuntz, FockWindow.one_sided(4), 2)
    for table in (phi, psi):
        rep = choi_cp_check(table)
        assert rep.passed and rep.min_eigenvalue >= -1e-8
    # larger instances: probe fallback must come back clean
    big = pipeline_table(cuntz, FockWindow.one_sided(6), 3)
    rep = positivity_probe(big, trials=50, seed=17)
    assert rep.passed and rep.min_eigenvalue >= -1e-8


def test_criterion_04_compact_correction_structure():
    """V_N deviates from its tail only at offsets l < N - max(r,s); W_N has
    no perturbation term at all."""
    for name in ("cuntz2", "twisted2"):
        spec = SPECS[name]
        for (r, s, big_n) in [(1, 0, 3), (1, 1, 4), (2, 1, 4)]:
            window = _window(spec, big_n + 2)
            mu = spec.sample_vector(r, 700 + r)
            nu = spec.sample_vector(s, 800 + s)
            band = toeplitz_op(spec, mu, nu, window, r=r, s=s)
            out, rows, _ = v_n(spec, band, big_n, window, r=r, s=s)
            stab = big_n - max(r, s)
            tail = float(schur_oracle(big_n, r, s, big_n, "one"))
            for x in rows:
                if x.l >= stab:
                    assert abs(x.measured - tail) < 1e-12
                else:
                    # the compact part: a genuinely different coefficient
                    assert abs(x.measured - tail) > 1e-3
    z3 = SPECS["crossed-z3"]
    window = _window(z3, 6)
    for (r, s, big_n) in [(1, 0, 3), (2, 1, 4), (3, 0, 4)]:
        mu = z3.sample_vector(1, 900 + r)
        nu = z3.sample_vector(1, 950 + s)
        band = toeplitz_op(z3, mu, nu, window, r=r, s=s)
        out, rows, _ = v_n(z3, band, big_n, window, r=r, s=s)
        coeffs = {round(x.measured, 12) for x in rows}
        assert len(coeffs) == 1, f"W_N not a single uniform band: {coeffs}"


def test_criterion_05_conditional_expectation_tower():
    """K <= 3 on all presets: Ex_K o phi_K = id, bimodule property, Schwarz
    positivity (>= -1e-8), tower compatibility, all to 1e-9; < 30 s."""
    t0 = time.monotonic()
    for spec in SPECS.values():
        for level in (1, 2, 3):
            nk = spec.n ** level
            for t in range(3):
                a = sample(spec.algebra, 1000 + t)
                b = sample(spec.algebra, 2000 + t)
                x = _sample_matrix(spec, nk, 3000 + t)
                dev = (ex_k(spec, level, spec.phi_k(a, level)) - a).max_abs()
                assert dev < 1e-9, (spec.name, level, "idempotence", dev)
                lhs = ex_k(spec, level,
                           spec.phi_k(a, level) @ x @ spec.phi_k(b, level))
                rhs = a @ ex_k(spec, level, x) @ b
                assert (lhs - rhs).max_abs() < 1e-9, (spec.name, level, "bimodule")
                y = ex_k(spec, level, x.adjoint() @ x)
                z = ex_k(spec, level, x).adjoint() @ ex_k(spec, level, x)
                assert (y - z).min_eig() >= -1e-8, \
                    (spec.name, level, "schwarz")
                tower = (ex_k(spec, level + 1, spec.amplify(x, 1))
                         - ex_k(spec, level, x)).max_abs()
                assert tower < 1e-9, (spec.name, level, "tower", tower)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f} s"


def test_criterion_06_induced_expectation_maps():
    """eps-bar contraction ratio <= 1 + 1e-8 over 100 seeded vectors;
    eps-hat unital, CP, with the exact rank-one formula e_{xi.eps(bc*), eta}."""
    count = 0
    for name in ("twisted2", "rotation-m2", "cuntz2", "crossed-z3"):
        spec = SPECS[name]
        level = 1
        ctx = EInftyContext(spec, level)
        for t in range(25):
            xi = spec.sample_vector(1, 5000 + t)
            b = _sample_matrix(spec, spec.n ** level, 6000 + t)
            zeta = ctx.vector(xi, b)
            eps_bar = eps_hat(spec, level, zeta)  # eps-bar: eps-hat on a column
            num = np.sqrt(inner(eps_bar, eps_bar).norm())
            den = np.sqrt((zeta.adjoint() @ zeta).norm())
            assert num <= den * (1.0 + 1e-8) + 1e-12, (name, t)
            count += 1
    assert count == 100
    for spec in SPECS.values():
        level = 2
        # unital
        eye = AMatrix.eye(spec.algebra, 2 * spec.n ** level)
        assert (eps_hat(spec, level, eye)
                - AMatrix.eye(spec.algebra, 2)).max_abs() < 1e-12
        # CP
        assert choi_cp_check(ex_k_table(spec, level)).passed
        # rank-one formula
        ctx = EInftyContext(spec, level)
        xi = spec.sample_vector(1, 71)
        eta = spec.sample_vector(1, 72)
        b = _sample_matrix(spec, spec.n ** level, 73)
        c = _sample_matrix(spec, spec.n ** level, 74)
        e = ctx.vector(xi, b) @ ctx.vector(eta, c).adjoint()
        want = rank_one(xi @ ex_k(spec, level, b @ c.adjoint()), eta)
        assert (eps_hat(spec, level, e) - want).max_abs() < 1e-9, spec.name


def test_criterion_07_lift_defect_vanishing():
    """eps-hat(t_{mu(x)b} t_{nu(x)c}*) - t_mu pi_i(bc*) t_nu*: all blocks at
    offsets k >= i below 1e-9, support strictly below i, for i <= 2, K <= 2."""
    window = FockWindow.one_sided(5)
    for spec in SPECS.values():
        for level in (1, 2):
            ctx = EInftyContext(spec, level)
            for i in (1, 2):
                if i > level:
                    continue
                for idx, (r, s) in enumerate([(1, 0), (1, 1), (2, 1)]):
                    gseed = 8000 + 100 * level + 10 * i + idx
                    mu = spec.sample_vector(r, gseed)
                    nu = spec.sample_vector(s, gseed + 1)
                    side = spec.fiber_dim(i) if spec.n > 1 else 1
                    b0 = _sample_matrix(spec, side, gseed + 2)
                    c0 = _sample_matrix(spec, side, gseed + 3)
                    _, rep = lift_defect(ctx, mu, nu, b0, c0, i, window,
                                         r=r, s=s)
                    assert rep["max_dev_at_or_above_i"] < 1e-9, (spec.name, rep)
                    assert all(k < i for k in rep["support"]), (spec.name, rep)


def test_criterion_08_bimodule_lift_exactness():
    """P s-bar_mu s-bar_nu* P = t_mu t_nu* on every block of the one-sided
    band (offsets k >= 0), to 1e-9, for r,s <= 4 on crossed-z3 and
    rotation-m2.

    Literal equality of *all* blocks is false whenever min(r,s) >= 1: the
    compression keeps extra compact blocks at offsets -min(r,s) <= k < 0
    (e.g. P u u* P = 1 while t t* = 1 - P_0).  Those blocks are reported,
    asserted compact (finitely many, below the band), and asserted to
    vanish in the quotient picture; see the decisions ledger."""
    for name in ("crossed-z3", "rotation-m2"):
        spec = SPECS[name]
        two = FockWindow.two_sided_sym(6)
        for r in range(5):
            for s in range(5):
                mu = spec.sample_vector(1, 9000 + r)
                nu = spec.sample_vector(1, 9100 + s)
                _, rep = bilateral_lift(spec, mu, nu, r, s, two)
                assert rep["band_dev"] < 1e-9, (name, r, s, rep)
                assert rep["bilateral_tail_dev"] < 1e-9, (name, r, s, rep)
                assert all(-min(r, s) <= k < 0 for k in rep["compact_offsets"]), \
                    (name, r, s, rep)


def test_criterion_09_window_extension_invariance():
    """Every pipeline run at windows M and M+2 agrees on shared blocks to
    1e-9."""
    m = 5
    for spec in SPECS.values():
        for (r, s, big_n) in [(1, 0, 2), (1, 1, 3), (2, 1, 3)]:
            mu = spec.sample_vector(r, 9500 + r)
            nu = spec.sample_vector(s, 9600 + s)
            t_small = toeplitz_op(spec, mu, nu, _window(spec, m), r=r, s=s)
            t_large = toeplitz_op(spec, mu, nu, _window(spec, m + 2), r=r, s=s)
            small, _, _ = v_n(spec, t_small, big_n, _window(spec, m), r, s)
            large, _, _ = v_n(spec, t_large, big_n, _window(spec, m + 2), r, s)
            assert shared_block_dev(small, large) < 1e-9, (spec.name, r, s)
            # the raw generators themselves are truncation-exact too
            assert shared_block_dev(t_small, t_large) < 1e-9


def test_criterion_10_reproducibility(tmp_path):
    """Two `report` runs with identical config and seed are byte-identical;
    a full default report finishes well inside 5 minutes."""
    t0 = time.monotonic()
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    args = ["report", "--preset", "crossed-z3", "--seed", "0"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"two default reports took {elapsed:.1f} s"
