"""The benchmark's independent checks against brute force and the program."""

from fractions import Fraction

import numpy as np
import pytest

import checks
from pimsner_lab.fock import FockWindow, schur_oracle
from pimsner_lab.hilbert_mod import rank_one
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import build_preset


def brute_force(big_n, r, s, l, sided):
    """Count the amplification shifts k that survive compression to [0, N]."""
    ks = range(-3 * (big_n + r + s) - 3, 3 * (big_n + r + s) + 4)
    if sided == "one":
        hits = [k for k in ks if 0 <= k <= l and r + k <= big_n and s + k <= big_n]
    else:
        hits = [k for k in ks if 0 <= r + k <= big_n and 0 <= s + k <= big_n]
    return Fraction(len(hits), big_n + 1)


@pytest.mark.parametrize("sided", ["one", "two"])
def test_closed_form_matches_enumeration_and_oracle(sided):
    for big_n in range(0, 12):
        for r in range(8):
            for s in range(8):
                for l in range(15):
                    exact = checks.schur_closed_form(big_n, r, s, l, sided)
                    assert exact == brute_force(big_n, r, s, l, sided)
                    assert exact == schur_oracle(big_n, r, s, l, sided)


@pytest.mark.parametrize("preset, big_n, side", [
    ("twisted2", 2, 434), ("twisted2", 3, 1890), ("twisted2", 4, 7874),
    ("crossed-z3", 5, 270), ("rotation-m2", 3, 176),
])
def test_choi_side_matches_factor_tables(preset, big_n, side):
    spec = build_preset(preset)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    phi, psi, _ = factor_tables(spec, window, big_n)
    sides = {max(t.domain_sides) * t.codomain_dim for t in (phi, psi)}
    assert sides == {side}
    assert checks.choi_side(spec.n, spec.algebra.block_dims, hi, big_n) == side


def test_generator_norm_is_lapack_norm_of_rank_one():
    spec = build_preset("rotation-m2")
    mu, nu = spec.sample_vector(2, 5), spec.sample_vector(1, 6)
    flat = rank_one(mu, nu).flatten()
    assert checks.generator_norm(mu, nu) == pytest.approx(np.linalg.norm(flat, 2), rel=1e-12)


def _rows(big_n, n, band):
    sided = "two" if n == 1 else "one"
    return [{"N": big_n, "r": r, "s": s, "l": l, "sided": sided,
             "expected": checks.schur_closed_form(big_n, r, s, l, sided),
             "measured": float(checks.schur_closed_form(big_n, r, s, l, sided))}
            for r in range(band + 1) for s in range(band + 1)
            for l in checks.schur_offsets(big_n, r, s, n)]


@pytest.mark.parametrize("n", [1, 2])
def test_schur_check_flags_wrong_rows(n):
    rows = _rows(3, n, 2)
    assert checks.check_schur_rows(rows, n, (3,), 2, 1e-9) == []
    rows[4] = dict(rows[4], measured=rows[4]["measured"] + 1e-6)
    rows[5] = dict(rows[5], expected=rows[5]["expected"] + Fraction(1, 4))
    problems = checks.check_schur_rows(rows[:-1], n, (3,), 2, 1e-9)
    assert len(problems) == 3  # off value, wrong fraction, missing row


def test_certificate_check_flags_error_above_fejer_bound():
    spec = build_preset("crossed-z3")
    mu, nu = spec.sample_vector(2, 100), spec.sample_vector(0, 101)
    norm = checks.generator_norm(mu, nu)
    fm = {"cp": {"pass": True, "norm_bound": 1.0, "method": "choi"}}
    cert = {"N": 2, "spec": {"window": [-4, 4]},
            "factor_maps": [dict(fm, direction="compress"), dict(fm, direction="amplify")],
            "generators": [{"r": 2, "s": 0, "seed": 100, "coeff_expected": [1, 3],
                            "coeff_measured": 1 / 3, "error": 2 / 3 * norm}]}
    assert checks.check_certificate(cert, spec, 1e-9) == []
    cert["generators"][0]["error"] = 2 / 3 * norm + 1e-6
    cert["factor_maps"][1]["cp"] = {"pass": True, "norm_bound": 1.1, "method": "probe"}
    assert len(checks.check_certificate(cert, spec, 1e-9)) == 3
