"""Conditional-expectation tower: axioms, trace collapse, induced maps."""

import numpy as np
import pytest

from pimsner_lab.hilbert_mod import AMatrix, inner, rank_one, sample
from pimsner_lab.expectation import (
    _sample_matrix,
    eps_hat,
    ex_k,
    ex_k_table,
    verify_cond_exp,
)
from pimsner_lab.hilbert_mod import choi_cp_check
from pimsner_lab import expectation
from pimsner_lab.lift import EInftyContext
from pimsner_lab.presets import PRESETS, build_preset

from conftest import allclose
from test_batched_maps import build
from test_hilbert_mod import set_entry


@pytest.fixture(scope="module")
def cuntz():
    return build_preset("cuntz2")


@pytest.mark.parametrize("name", sorted(PRESETS) + ["mixed"])
def test_sample_matrix_entries_are_seeded_samples(name):
    """Entry (i, j) is sample(A, seed * 613 + i * side + j) to the
    bit, so the expectation reports keep their bytes: the blocks equal, byte
    for byte, those of the per-entry loop of ``sample`` calls, at the sides
    the suites draw (fibre dimensions and n^level up to level 3)."""
    spec = build(name)
    for side, seed in ((1, 3), (2, 25), (3, 11), (spec.n ** 3, 43)):
        got = _sample_matrix(spec, side, seed)
        want = [np.empty_like(b) for b in got.blocks]
        for i in range(side):
            for j in range(side):
                x = sample(spec.algebra, seed * 613 + i * side + j)
                for w, b in zip(want, x.blocks):
                    w[i, j] = b[0, 0]
        assert (got.rows, got.cols) == (side, side)
        assert [g.tobytes() for g in got.blocks] == [w.tobytes() for w in want]


def test_trace_collapse_on_cuntz(cuntz):
    """With U = 1 and alpha = id the recursion collapses to the normalised
    trace: Ex_1(diag(1, 3)) = 2."""
    x = AMatrix.zeros(cuntz.algebra, 2, 2)
    x.blocks[0][0, 0] = 1.0
    x.blocks[0][1, 1] = 3.0
    got = ex_k(cuntz, 1, x)
    assert allclose(got, AMatrix.eye(cuntz.algebra, 1) * 2.0, 1e-12)


def test_ex_k_equals_trace_on_cuntz(cuntz):
    for k in (1, 2, 3):
        x = _sample_matrix(cuntz, 2 ** k, 100 + k)
        want = x
        for _ in range(k):
            want = _partial_trace_like(cuntz, want)
        assert (ex_k(cuntz, k, x) - want).max_abs() < 1e-12


def ex_trace(spec, x):
    """Normalised trace M_n(A) -> A: average of the diagonal entries, 1 x 1,
    the Ex_1 of U = 1 and alpha = id."""
    assert x.rows == x.cols
    n = x.rows
    out = AMatrix.zeros(spec.algebra, 1, 1)
    for i in range(n):
        out = out + x.submatrix(slice(i, i + 1), slice(i, i + 1))
    return out * (1.0 / n)


def _partial_trace_like(spec, x):
    """ex_trace of every 2 x 2 cell of x."""
    out = AMatrix.zeros(spec.algebra, x.rows // 2, x.cols // 2)
    for i in range(out.rows):
        for j in range(out.cols):
            set_entry(out, i, j, ex_trace(spec, x.submatrix(slice(i * 2, i * 2 + 2),
                                                            slice(j * 2, j * 2 + 2))))
    return out


def test_bimodule_case_inverts_effective_automorphism():
    """For n = 1, M_{n^k}(A) = A and Ex_k = beta^{-k}."""
    for name in ("crossed-z3", "rotation-m2"):
        spec = build_preset(name)
        a = sample(spec.algebra, 7)
        x = spec.amplify(a, 1)
        assert allclose(ex_k(spec, 1, x), a, 1e-12)


def test_ex_undoes_left_action():
    for name in sorted(PRESETS):
        spec = build_preset(name)
        a = sample(spec.algebra, 19)
        for k in (1, 2):
            got = ex_k(spec, k, spec.phi_k(a, k))
            assert allclose(got, a, 1e-10), name


def test_tower_compatibility():
    spec = build_preset("twisted2")
    x = _sample_matrix(spec, 2, 31)
    assert (ex_k(spec, 2, spec.amplify(x, 1)) - ex_k(spec, 1, x)).max_abs() < 1e-11


def test_verify_cond_exp_all_presets():
    for name in sorted(PRESETS):
        spec = build_preset(name)
        rep = verify_cond_exp(spec, 2, seed=23)
        assert rep["pass"], (name, rep)


def test_verify_cond_exp_peels_each_sample_once(monkeypatch):
    """Ex_k(x) is computed once per sample and reused for the bimodule
    right-hand side and both factors of the Schwarz term: 4 calls for each
    of the 5 samples and 2 for each of the 5 tower samples (level + 1 <=
    max_degree), 30 in all."""
    calls = []
    original = expectation.ex_k

    def spy(spec, k, x):
        calls.append(k)
        return original(spec, k, x)

    monkeypatch.setattr(expectation, "ex_k", spy)
    rep = verify_cond_exp(build_preset("twisted2"), 1)
    assert rep["pass"]
    assert len(calls) == 30


def test_ex_table_is_ucp(cuntz):
    rep = choi_cp_check(ex_k_table(cuntz, 2))
    assert rep.passed
    assert rep.unital_defect < 1e-10
    assert rep.norm_bound <= 1.0 + 1e-10


def test_eps_bar_contracts():
    """eps-bar, eps-hat on a column over B, is contractive for the module
    norms ||<zeta, zeta>||^(1/2), with <zeta, zeta> = zeta* zeta in B."""
    spec = build_preset("twisted2")
    ctx = EInftyContext(spec, 1)
    for t in range(20):
        xi = spec.sample_vector(1, 200 + t)
        b = _sample_matrix(spec, 2, 300 + t)
        zeta = ctx.vector(xi, b)
        out = eps_hat(spec, 1, zeta)
        num = np.sqrt(inner(out, out).norm())
        den = np.sqrt((zeta.adjoint() @ zeta).norm())
        assert num <= den * (1.0 + 1e-8) + 1e-12


def test_eps_hat_rank_one_formula():
    """eps-hat(e_{xi (x) b, eta (x) c}) = e_{xi . Ex(b c*), eta}."""
    spec = build_preset("twisted2")
    level = 2
    ctx = EInftyContext(spec, level)
    xi = spec.sample_vector(1, 41)
    eta = spec.sample_vector(1, 42)
    b = _sample_matrix(spec, spec.n ** level, 43)
    c = _sample_matrix(spec, spec.n ** level, 44)
    e = ctx.vector(xi, b) @ ctx.vector(eta, c).adjoint()
    got = eps_hat(spec, level, e)
    want = rank_one(xi @ ex_k(spec, level, b @ c.adjoint()), eta)
    assert (got - want).max_abs() < 1e-10


def test_eps_hat_unital():
    spec = build_preset("cuntz2")
    level = 2
    m = 3
    eye = AMatrix.eye(spec.algebra, m * spec.n ** level)
    out = eps_hat(spec, level, eye)
    assert (out - AMatrix.eye(spec.algebra, m)).max_abs() < 1e-12
