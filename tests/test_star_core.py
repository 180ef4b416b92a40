"""Blockwise algebra arithmetic, norms, and automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab.hilbert_mod import AMatrix
from pimsner_lab.star_core import (
    AElement,
    AlgebraSpec,
    Automorphism,
    ConfigurationError,
    DEFAULT_TOL,
    SpecMismatchError,
    Tolerances,
    make_algebra,
    sample,
    spectral_norm,
)


@pytest.fixture
def algebra():
    return make_algebra([2, 1, 3])


def test_algebra_spec_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        AlgebraSpec(())
    with pytest.raises(ConfigurationError):
        AlgebraSpec((2, 0))


def test_unit_and_scalar(algebra):
    one = algebra.unit()
    assert one.is_positive()
    assert abs(one.norm() - 1.0) < 1e-12
    z = algebra.scalar(2.5)
    assert abs(z.norm() - 2.5) < 1e-10


def test_basis_spans_total_dim(algebra):
    units = list(algebra.basis())
    assert len(units) == sum(d * d for d in algebra.block_dims)
    # the basis elements are matrix units: e_uv e_vw = e_uw within a block
    s, u, v, e1 = units[0]
    prod = e1 @ e1.adjoint()
    assert prod.is_positive()


def test_star_algebra_identities(algebra):
    a = sample(algebra, "element", 3)
    b = sample(algebra, "element", 4)
    assert ((a @ b).adjoint()).allclose(b.adjoint() @ a.adjoint(), 1e-12)
    assert ((a + b).adjoint()).allclose(a.adjoint() + b.adjoint(), 1e-12)
    assert (a.adjoint() @ a).is_positive()
    # C* identity through the faithful flatten
    lhs = (a.adjoint() @ a).norm()
    assert abs(lhs - a.norm() ** 2) < 1e-8 * max(1.0, lhs)


def test_spec_mismatch_raises(algebra):
    other = make_algebra([2, 2])
    a = sample(algebra, "element", 1)
    b = sample(other, "element", 1)
    with pytest.raises(SpecMismatchError):
        _ = a + b


def test_sample_determinism_and_kinds(algebra):
    a1 = sample(algebra, "element", 42)
    a2 = sample(algebra, "element", 42)
    assert a1.allclose(a2, 0.0)
    u = sample(algebra, "unitary", 7)
    assert (u.adjoint() @ u).allclose(algebra.unit(), 1e-10)
    p = sample(algebra, "positive", 7)
    assert p.is_positive()
    h = sample(algebra, "hermitian", 7)
    assert h.is_hermitian()
    with pytest.raises(ConfigurationError):
        sample(algebra, "nonsense", 0)


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(5)
    for k in range(6):
        m = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        want = np.linalg.norm(m, 2)
        got = spectral_norm(m)
        assert abs(got - want) < 1e-8 * want


def test_spectral_norm_edge_cases():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    assert abs(spectral_norm(np.eye(4)) - 1.0) < 1e-10


def test_spectral_norm_regression_symmetric_pair():
    """The all-ones vector is an eigenvector of M*M with eigenvalue 1 here,
    so a power iteration started from it stops at 1.0."""
    assert abs(spectral_norm(np.array([[1.5, -0.5], [-0.5, 1.5]])) - 2.0) < 1e-14


def test_tolerances_must_be_positive():
    with pytest.raises(ConfigurationError):
        Tolerances(eq_tol=0.0)
    assert DEFAULT_TOL.eq_tol == 1e-9


class TestAutomorphism:
    def test_identity(self, algebra):
        ident = Automorphism.identity(algebra)
        a = sample(algebra, "element", 9)
        assert ident.apply(a).allclose(a, 0.0)

    def test_permutation_must_preserve_dims(self, algebra):
        with pytest.raises(ConfigurationError):
            Automorphism(algebra, (1, 0, 2))  # swaps a 2-block with a 1-block

    def test_unitary_data_checked(self):
        spec = make_algebra([2])
        with pytest.raises(ConfigurationError):
            Automorphism(spec, (0,), (2.0 * np.eye(2),))

    def test_inverse_roundtrip(self):
        spec = make_algebra([2, 2, 1])
        v = sample(spec, "unitary", 13)
        alpha = Automorphism(spec, (1, 0, 2), tuple(v.blocks))
        a = sample(spec, "element", 14)
        assert alpha.inverse().apply(alpha.apply(a)).allclose(a, 1e-12)

    def test_is_homomorphism(self):
        spec = make_algebra([3])
        v = sample(spec, "unitary", 2)
        alpha = Automorphism(spec, (0,), tuple(v.blocks))
        a = sample(spec, "element", 21)
        b = sample(spec, "element", 22)
        assert alpha.apply(a @ b).allclose(alpha.apply(a) @ alpha.apply(b), 1e-10)
        assert alpha.apply(a.adjoint()).allclose(alpha.apply(a).adjoint(), 1e-12)

    def test_compose_matches_sequential(self):
        spec = make_algebra([1, 1, 1])
        shift = Automorphism(spec, (1, 2, 0))
        a = sample(spec, "element", 31)
        comp = shift.compose(shift)
        assert comp.apply(a).allclose(shift.apply(shift.apply(a)), 1e-12)


# ---------------------------------------------------------------------------
# apply against the explicit permute-and-conjugate, identity blocks untouched
# ---------------------------------------------------------------------------

@st.composite
def mixed_automorphisms(draw):
    """A = (+) M_d with d <= 3 and a dimension-preserving block permutation
    whose unitaries are exact identities on some blocks and seeded Haar
    unitaries on the others."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    spec = AlgebraSpec(dims)
    perm = list(range(len(dims)))
    for d in sorted(set(dims)):
        same = [s for s in range(len(dims)) if dims[s] == d]
        for s, t in zip(same, draw(st.permutations(same))):
            perm[s] = t
    keep = draw(st.lists(st.booleans(), min_size=len(dims), max_size=len(dims)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    haar = sample(spec, "unitary", seed).blocks
    us = tuple(np.eye(d, dtype=complex) if k else v
               for k, d, v in zip(keep, dims, haar))
    return Automorphism(spec, tuple(perm), us), seed


def _explicit_apply(alpha, blocks, inverse):
    """Block s of alpha(x) is V_s* x_{sigma^-1(s)} V_s; block s of
    alpha^-1(x) is V_{sigma(s)} x_{sigma(s)} V_{sigma(s)}*.  Returns each
    target block with its source block and whether V is the identity."""
    out = []
    for s, d in enumerate(alpha.spec.block_dims):
        t = alpha.perm[s] if inverse else alpha.perm.index(s)
        v = alpha.unitaries[t if inverse else s]
        left, right = (v, v.conj().T) if inverse else (v.conj().T, v)
        out.append((left @ blocks[t] @ right, t, np.array_equal(v, np.eye(d))))
    return out


@settings(max_examples=40, deadline=None)
@given(mixed_automorphisms(), st.booleans())
def test_apply_equals_explicit_permute_and_conjugate(alpha_seed, inverse):
    alpha, seed = alpha_seed
    spec = alpha.spec
    rng = np.random.default_rng(seed + 1)

    def gauss(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # a signed zero, which any arithmetic on an identity block would
        # turn into +0
        z.reshape(-1)[0] = complex(-0.0, -0.0)
        return z

    inputs = [
        AElement(spec, [gauss((d, d)) for d in spec.block_dims]),
        AMatrix(spec, 2, 3, [gauss((2, 3, d, d)) for d in spec.block_dims]),
        AMatrix(spec, 2, 2, [gauss((2, 2, 2, d, d)) for d in spec.block_dims]),
    ]
    for x in inputs:
        got = (alpha.inverse() if inverse else alpha).apply(x)
        assert type(got) is type(x)
        if isinstance(x, AMatrix):
            assert (got.rows, got.cols) == (x.rows, x.cols)
        for blk, (want, src, identity) in zip(
                got.blocks, _explicit_apply(alpha, x.blocks, inverse)):
            assert blk.shape == x.blocks[src].shape and blk.dtype == complex
            if identity:
                assert blk.tobytes() == x.blocks[src].tobytes()
            else:
                assert np.max(np.abs(blk - want)) <= 1e-12
