"""Blockwise algebra arithmetic on elements of A (1 x 1 AMatrices), norms,
and automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab import star_core
from pimsner_lab.expectation import ex_k
from pimsner_lab.hilbert_mod import AMatrix, matrix_units, sample
from pimsner_lab.presets import build_preset
from pimsner_lab.star_core import (
    AlgebraSpec,
    Automorphism,
    ConfigurationError,
    DEFAULT_TOL,
    SpecMismatchError,
    Tolerances,
    spectral_norm,
)

from conftest import (
    allclose,
    is_hermitian,
    is_positive,
    sample_hermitian,
    sample_positive,
    sample_unitary,
)


@pytest.fixture
def algebra():
    return AlgebraSpec((2, 1, 3))


def test_algebra_spec_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        AlgebraSpec(())
    with pytest.raises(ConfigurationError):
        AlgebraSpec((2, 0))


def test_unit_and_scalar(algebra):
    one = AMatrix.eye(algebra, 1)
    assert is_positive(one)
    assert abs(one.norm() - 1.0) < 1e-12
    z = one * 2.5
    assert abs(z.norm() - 2.5) < 1e-10


def test_basis_spans_total_dim(algebra):
    units = list(matrix_units(algebra))
    assert len(units) == sum(d * d for d in algebra.block_dims)
    assert all((e.rows, e.cols) == (1, 1) for e in units)
    # the basis elements are matrix units, row-major within a block:
    # e_01 e_10 = e_00 in the first block
    assert allclose(units[1] @ units[2], units[0], 0.0)
    prod = units[0] @ units[0].adjoint()
    assert is_positive(prod)


def test_star_algebra_identities(algebra):
    a = sample(algebra, 3)
    b = sample(algebra, 4)
    assert allclose((a @ b).adjoint(), b.adjoint() @ a.adjoint(), 1e-12)
    assert allclose((a + b).adjoint(), a.adjoint() + b.adjoint(), 1e-12)
    assert is_positive(a.adjoint() @ a)
    # C* identity through the faithful flatten
    lhs = (a.adjoint() @ a).norm()
    assert abs(lhs - a.norm() ** 2) < 1e-8 * max(1.0, lhs)


def test_spec_mismatch_raises(algebra):
    other = AlgebraSpec((2, 2))
    a = sample(algebra, 1)
    b = sample(other, 1)
    with pytest.raises(SpecMismatchError):
        _ = a + b


def test_sample_determinism_and_kinds(algebra):
    a1 = sample(algebra, 42)
    a2 = sample(algebra, 42)
    assert allclose(a1, a2, 0.0)
    u = sample_unitary(algebra, 7)
    assert allclose(u.adjoint() @ u, AMatrix.eye(algebra, 1), 1e-10)
    p = sample_positive(algebra, 7)
    assert is_positive(p)
    h = sample_hermitian(algebra, 7)
    assert is_hermitian(h)


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
        a = sample(algebra, 9)
        assert allclose(ident.apply(a), a, 0.0)

    def test_permutation_must_preserve_dims(self, algebra):
        with pytest.raises(ConfigurationError):
            Automorphism(algebra, (1, 0, 2))  # swaps a 2-block with a 1-block

    def test_unitary_data_checked(self):
        spec = AlgebraSpec((2,))
        with pytest.raises(ConfigurationError):
            Automorphism(spec, (0,), (2.0 * np.eye(2),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unitary_data_refused(self, bad):
        """A NaN in the data makes the unitarity deviation NaN, which fails
        the test ``dev <= 1e-8`` as ``dev > 1e-8`` did not."""
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ConfigurationError):
            Automorphism(AlgebraSpec((2,)), (0,), (u,))

    def test_unitary_count_checked(self):
        """One unitary per algebra block, no fewer and no more."""
        spec = AlgebraSpec((1, 1))
        for count in (1, 3):
            with pytest.raises(ConfigurationError):
                Automorphism(spec, (0, 1), (np.eye(1),) * count)

    def test_inverse_roundtrip(self):
        spec = AlgebraSpec((2, 2, 1))
        v = sample_unitary(spec, 13)
        alpha = Automorphism(spec, (1, 0, 2), tuple(b[0, 0] for b in v.blocks))
        a = sample(spec, 14)
        assert allclose(alpha.inverse().apply(alpha.apply(a)), a, 1e-12)

    def test_is_homomorphism(self):
        spec = AlgebraSpec((3,))
        v = sample_unitary(spec, 2)
        alpha = Automorphism(spec, (0,), tuple(b[0, 0] for b in v.blocks))
        a = sample(spec, 21)
        b = sample(spec, 22)
        assert allclose(alpha.apply(a @ b), alpha.apply(a) @ alpha.apply(b), 1e-10)
        assert allclose(alpha.apply(a.adjoint()), alpha.apply(a).adjoint(), 1e-12)

    def test_compose_matches_sequential(self):
        spec = AlgebraSpec((1, 1, 1))
        shift = Automorphism(spec, (1, 2, 0))
        a = sample(spec, 31)
        comp = shift.compose(shift)
        assert allclose(comp.apply(a), shift.apply(shift.apply(a)), 1e-12)


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
    haar = [b[0, 0] for b in sample_unitary(spec, seed).blocks]
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
        AMatrix(spec, 1, 1, [gauss((1, 1, d, d)) for d in spec.block_dims]),
        AMatrix(spec, 2, 3, [gauss((2, 3, d, d)) for d in spec.block_dims]),
        AMatrix(spec, 2, 2, [gauss((2, 2, 2, d, d)) for d in spec.block_dims]),
    ]
    for x in inputs:
        got = (alpha.inverse() if inverse else alpha).apply(x)
        assert type(got) is AMatrix
        assert (got.rows, got.cols) == (x.rows, x.cols)
        for blk, (want, src, identity) in zip(
                got.blocks, _explicit_apply(alpha, x.blocks, inverse)):
            assert blk.shape == x.blocks[src].shape and blk.dtype == complex
            if identity:
                assert blk.tobytes() == x.blocks[src].tobytes()
            else:
                assert np.max(np.abs(blk - want)) <= 1e-12


# ---------------------------------------------------------------------------
# the element constructor the benchmark's expectation check calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["twisted2", "rotation-m2"])
def test_aelement_constructor_contract(name):
    """star_core.AElement(spec, [(d, d) arrays]) is a 1 x 1 AMatrix, and
    Ex_k undoes phi_k_direct on it, its (1, 1, d, d) blocks compared against
    the (d, d) arrays it was built from."""
    spec = build_preset(name)
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for d in spec.algebra.block_dims]
    a = star_core.AElement(spec.algebra, blocks)
    assert type(a) is AMatrix and (a.rows, a.cols) == (1, 1)
    for k in (1, 2):
        back = ex_k(spec, k, spec.phi_k_direct(a, k))
        dev = max(float(np.max(np.abs(x - y))) for x, y in zip(back.blocks, blocks))
        assert dev <= spec.tol.eq_tol, (k, dev)
    with pytest.raises(SpecMismatchError):
        star_core.AElement(spec.algebra, blocks[:1] * (spec.algebra.n_blocks + 1))
