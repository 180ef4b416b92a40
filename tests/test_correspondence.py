"""Correspondence axioms, the left-action tower, and tensor coordinates."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.star_core import ConfigurationError
from pimsner_lab.hilbert_mod import AMatrix, inner, sample
from pimsner_lab.correspondence import (
    CorrespondenceSpec,
    ValidationError,
    default_max_degree,
)
from pimsner_lab.fock import FockWindow, GradedOperator
from pimsner_lab.presets import PRESETS, build_preset

from conftest import allclose, validate
from test_peel import correspondences


@pytest.fixture(params=sorted(PRESETS))
def spec(request):
    return build_preset(request.param)


def test_presets_validate(spec):
    report = validate(spec, seed=11)
    assert report["pass"], report["checks"]


def test_phi1_is_unital_star_homomorphism(spec):
    a = sample(spec.algebra, 3)
    b = sample(spec.algebra, 4)
    assert (spec.phi1(a @ b) - spec.phi1(a) @ spec.phi1(b)).max_abs() < 1e-10
    assert (spec.phi1(a.adjoint()) - spec.phi1(a).adjoint()).max_abs() < 1e-12
    eye = AMatrix.eye(spec.algebra, spec.n)
    assert (spec.phi1(AMatrix.eye(spec.algebra, 1)) - eye).max_abs() < 1e-12


def test_phi_recursion_nests_both_ways():
    """phi_{j+k} = entrywise-phi_k o phi_j, checked at j = k = 1 on the
    twisted preset (both sides computed independently)."""
    spec = build_preset("twisted2")
    a = sample(spec.algebra, 17)
    lhs = spec.phi_k(a, 2)
    # entrywise phi_1 applied to phi_1(a)
    p1 = spec.phi1(a)
    rhs = spec.amplify(p1, 1)
    assert (lhs - rhs).max_abs() < 1e-12


def test_phi_k_against_independent_path(spec):
    """The amplification by one matrix product per target block (from the
    phi_1 images of matrix units) and the explicit I (x) U product
    construction must agree exactly."""
    a = sample(spec.algebra, 29)
    for k in (1, 2, 3):
        assert (spec.phi_k(a, k) - spec.phi_k_direct(a, k)).max_abs() < 1e-12


def test_phi_k_direct_is_the_last_entry_of_the_tower(spec):
    """phi_k_direct(a, k) equals entry k of one pass of the direct tower,
    bit for bit, for every k up to max_degree (16 for n = 1; 8 for n = 2,
    whose degree-12 entry is a 4096-side product of several minutes)."""
    a = sample(spec.algebra, 31)
    top = spec.max_degree if spec.n == 1 else 8
    tower = spec.phi_tower_direct(a, top)
    assert len(tower) == top + 1 and tower[0] is a
    for k in range(top + 1):
        got = spec.phi_k_direct(a, k)
        assert (got.rows, got.cols) == (tower[k].rows, tower[k].cols)
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, tower[k].blocks))


@settings(max_examples=25, deadline=None)
@given(correspondences(), st.integers(1, 3), st.integers(0, 1000))
def test_random_correspondence_phi_k_against_independent_path(spec, k, seed):
    """With a Haar-random U, phi(a) = U* alpha~(a) U and U alpha~(a) U* are
    different maps, so the tower must follow the same side of U as the
    independent product construction (n <= 3 keeps n^k <= 27)."""
    a = sample(spec.algebra, seed)
    assert (spec.phi_k(a, k) - spec.phi_k_direct(a, k)).max_abs() < 1e-10


def test_amplify_composes(spec):
    x = spec.phi1(sample(spec.algebra, 5))
    lhs = spec.amplify(x, 2)
    rhs = spec.amplify(spec.amplify(x, 1), 1)
    assert (lhs - rhs).max_abs() < 1e-12


def test_tensor_inner_product_identity(spec):
    """<xi (x) eta, xi' (x) eta'> = <eta, phi(<xi, xi'>) eta'>."""
    if spec.n == 1:
        xi = spec.sample_vector(1, 1)
        xi2 = spec.sample_vector(1, 2)
        eta = spec.sample_vector(1, 3)
        eta2 = spec.sample_vector(1, 4)
        k = 1
    else:
        xi = spec.sample_vector(1, 1)
        xi2 = spec.sample_vector(1, 2)
        eta = spec.sample_vector(2, 3)
        eta2 = spec.sample_vector(2, 4)
        k = 2
    # xi (x) eta = (xi (x) I_{E^k}) eta, convention C2
    t1 = spec.amplify(xi, k) @ eta
    t2 = spec.amplify(xi2, k) @ eta2
    lhs = inner(t1, t2)
    mid = spec.phi_k(inner(xi, xi2), k)
    rhs = inner(eta, mid @ eta2)
    assert (lhs - rhs).max_abs() < 1e-10


def test_bimodule_amplification_invertible():
    spec = build_preset("rotation-m2")
    x = sample(spec.algebra, 9)
    back = spec.amplify(spec.amplify(x, 3), -3)
    assert (x - back).max_abs() < 1e-10
    # amplification by one step is phi_1 = Ad U o alpha_1 itself
    a = sample(spec.algebra, 10)
    lhs = spec.phi1(a)
    rhs = spec.amplify(a, 1)
    assert allclose(lhs, rhs, 1e-12)


def test_rotation_m2_amplify_matches_pinned_values():
    """x (x) I_{E^{+-1}} on one seeded element of rotation-m2, against values
    pinned to 12 digits.  The report goldens hold only deviations near 0,
    which a self-consistent but wrong beta (say, one whose rotation is
    skipped) leaves near 0; these entries move with beta itself."""
    spec = build_preset("rotation-m2")
    x = sample(spec.algebra, 7)
    pinned = {
        1: [[-0.417953480879 + 0.828280757011j, 0.731720989734 - 1.460620481873j],
            [0.158837596863 - 0.408830324279j, -0.471408204521 + 0.057263703372j]],
        -1: [[-0.393440020542 - 0.099655508649j, -0.156686252418 + 0.327393003589j],
             [-0.729569645288 + 1.379183161183j, -0.495921664858 + 0.985199969032j]],
    }
    for k, want in pinned.items():
        got = spec.amplify(x, k)
        assert (got.rows, got.cols) == (1, 1)
        assert np.max(np.abs(got.blocks[0][0, 0] - np.array(want))) <= 1e-11


# x (x) I_E on the seed-7 element, per algebra block, each block's entries
# as a rows x cols list (all algebra blocks of these presets are 1 x 1)
PINNED_AMPLIFY1 = {
    # the Hadamard/phase U mixes the two blocks, the swap alpha_2 permutes them
    "twisted2": [
        [[-0.136453851002 - 0.295923150624j, 0.137684004360 + 0.594668688133j],
         [0.137684004360 + 0.594668688133j, -0.136453851002 - 0.295923150624j]],
        [[-0.274137855362 - 0.890591838757j, 0.0],
         [0.0, 0.001230153357 + 0.298745537508j]],
    ],
    # beta is the cyclic shift of the three blocks
    "crossed-z3": [
        [[-0.454670785172 - 0.991646554996j]],
        [[0.001230153357 + 0.298745537508j]],
        [[-0.274137855362 - 0.890591838757j]],
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_AMPLIFY1))
def test_amplify_matches_pinned_values(name):
    """x (x) I_E on one seeded element against values pinned to 12 digits:
    the report goldens hold only deviations near 0, which a wrong but
    self-consistent U or beta leaves near 0."""
    spec = build_preset(name)
    x = sample(spec.algebra, 7)
    got = spec.amplify(x, 1)
    assert (got.rows, got.cols) == (spec.n, spec.n)
    for block, want in zip(got.blocks, PINNED_AMPLIFY1[name]):
        assert np.max(np.abs(block[..., 0, 0] - np.array(want))) <= 1e-11


def test_negative_amplify_requires_bimodule():
    spec = build_preset("cuntz2")
    x = AMatrix.eye(spec.algebra, 1)
    with pytest.raises(ConfigurationError):
        spec.amplify(x, -1)


def test_max_degree_guard(spec):
    a = sample(spec.algebra, 2)
    with pytest.raises(ConfigurationError):
        spec.phi_k(a, spec.max_degree + 1)


def test_validate_negative_control():
    """Scaling U by 2 breaks unitarity by exactly ||4 - 1|| = 3."""
    good = build_preset("cuntz2")
    import dataclasses
    bad = dataclasses.replace(good, unitary=good.unitary * 2.0)
    report = validate(bad)
    assert not report["pass"]
    assert abs(report["checks"]["unitarity"] - 3.0) < 1e-9
    with pytest.raises(ValidationError):
        bad.validate_or_raise()


def test_copy_compares_equal(spec):
    """The caches built in __post_init__ are neither constructor arguments
    nor compared, so a copy equals its original (comparing their numpy
    arrays raised) and operators over the two add."""
    assert list(inspect.signature(CorrespondenceSpec).parameters) == [
        "algebra", "n", "unitary", "alphas", "max_degree", "name"]
    copy = dataclasses.replace(spec)
    assert copy is not spec and copy == spec
    window = FockWindow.one_sided(1)
    x, y = (GradedOperator(s, window, {(0, 0): AMatrix.eye(s.algebra, 1)})
            for s in (spec, copy))
    assert (x + y).blocks[(0, 0)].max_abs() == 2.0


def test_default_max_degree():
    assert default_max_degree(1) > default_max_degree(2) > default_max_degree(3)


def test_sample_vector_unit_norm(spec):
    degree = 2 if spec.n > 1 else 0
    v = spec.sample_vector(degree, 77)
    # E^k is free of rank n^k
    assert v.rows == spec.fiber_dim(degree) and spec.fiber_dim(2) == spec.n ** 2
    nrm = inner(v, v).norm()
    assert abs(nrm - 1.0) < 1e-9
