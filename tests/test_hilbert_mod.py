"""Free-module matrices, inner products, and CP certification."""

import numpy as np
import pytest

from pimsner_lab import hilbert_mod
from pimsner_lab.star_core import AlgebraSpec, SpecMismatchError
from pimsner_lab.fock import FockWindow
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import build_preset
from pimsner_lab.hilbert_mod import (
    AMatrix,
    CPReport,
    LinearMapTable,
    choi_cp_check,
    cp_check_auto,
    inner,
    positivity_probe,
    rank_one,
    sample,
)

from conftest import allclose, compose, is_positive


@pytest.fixture
def algebra():
    return AlgebraSpec((2, 1))


def entry(x, i, j):
    """Entry (i, j) of x as an element of A (a 1 x 1 view)."""
    return x.submatrix(slice(i, i + 1), slice(j, j + 1))


def set_entry(x, i, j, a):
    """Write the element a of A (1 x 1) into entry (i, j) of x."""
    for b, e in zip(x.blocks, a.blocks):
        b[i, j] = e[0, 0]


def random_amatrix(algebra, rows, cols, seed):
    """Entry (i, j) is sample(algebra, seed + 97 i + j)."""
    out = AMatrix.zeros(algebra, rows, cols)
    for i in range(rows):
        for j in range(cols):
            set_entry(out, i, j, sample(algebra, seed + 97 * i + j))
    return out


def flat_blocks(x):
    """The flattened algebra blocks of x, one complex matrix (stack) each."""
    return [x.flatten_block(s) for s in range(x.spec.n_blocks)]


def test_flatten_roundtrip(algebra):
    x = random_amatrix(algebra, 3, 2, 5)
    back = AMatrix.from_flat(algebra, 3, 2, flat_blocks(x))
    assert (x - back).max_abs() == 0.0


def test_flatten_is_multiplicative(algebra):
    """flatten_block(XY) = flatten_block(X) flatten_block(Y) on every block:
    the norm/positivity carrier is a genuine *-homomorphism."""
    x = random_amatrix(algebra, 3, 4, 1)
    y = random_amatrix(algebra, 4, 2, 2)
    for lhs, fx, fy in zip(flat_blocks(x @ y), flat_blocks(x), flat_blocks(y)):
        assert np.max(np.abs(lhs - fx @ fy)) < 1e-12


def test_adjoint_against_flatten(algebra):
    x = random_amatrix(algebra, 2, 3, 7)
    for adj, flat in zip(flat_blocks(x.adjoint()), flat_blocks(x)):
        assert np.max(np.abs(adj - flat.conj().T)) < 1e-14


def test_norm_against_numpy(algebra):
    x = random_amatrix(algebra, 3, 3, 11)
    want = max(np.linalg.norm(x.flatten_block(s), 2)
               for s in range(algebra.n_blocks))
    assert abs(x.norm() - want) < 1e-8 * want


def test_positivity_and_min_eig(algebra):
    x = random_amatrix(algebra, 2, 2, 3)
    pos = x.adjoint() @ x
    assert is_positive(pos)
    assert pos.min_eig() > -1e-12
    neg = pos - AMatrix.eye(algebra, 2) * (pos.norm() * 2.0)
    assert not is_positive(neg)


def test_inner_and_rank_one(algebra):
    mu = random_amatrix(algebra, 3, 1, 21)
    nu = random_amatrix(algebra, 3, 1, 22)
    xi = random_amatrix(algebra, 3, 1, 23)
    # e_{mu,nu} xi = mu <nu, xi>
    lhs = rank_one(mu, nu) @ xi
    rhs = mu @ inner(nu, xi)
    assert (lhs - rhs).max_abs() < 1e-12
    assert np.sqrt(inner(mu, mu).norm()) > 0.0
    # <xi, xi> is positive
    assert is_positive(inner(xi, xi))


def test_submatrix_and_entries(algebra):
    x = random_amatrix(algebra, 4, 4, 31)
    sub = x.submatrix(slice(1, 3), slice(0, 2))
    assert (sub.rows, sub.cols) == (2, 2)
    assert allclose(entry(sub, 0, 0), entry(x, 1, 0), 0.0)


# ---------------------------------------------------------------------------
# CP certification
# ---------------------------------------------------------------------------

def identity_table(algebra, p):
    return LinearMapTable(algebra, p, p, lambda x, row: x)


def transpose_table(algebra):
    """The transpose of each block, on A = M_p(A) for p = 1."""
    return LinearMapTable(algebra, 1, 1, lambda x, row: AMatrix(
        algebra, 1, 1, [np.swapaxes(b, -1, -2) for b in x.blocks]))


def first(x):
    """The first element of a stack."""
    return AMatrix(x.spec, x.rows, x.cols, [b[0] for b in x.blocks])


def test_constructor_rejects_bad_blocks(algebra):
    """The public constructor checks the block count, block shapes and one
    stack depth; the unchecked results of arithmetic rely on that."""
    with pytest.raises(SpecMismatchError):
        AMatrix(algebra, 2, 2, [np.zeros((2, 2, 2, 2))])
    with pytest.raises(SpecMismatchError):
        AMatrix(algebra, 2, 2, [np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 1, 1)),
                                np.zeros((2, 2, 1, 1))])
    with pytest.raises(SpecMismatchError):
        AMatrix(algebra, 2, 2, [np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2))])
    with pytest.raises(SpecMismatchError):
        AMatrix(algebra, 2, 2, [np.zeros((2, 3, 2, 2)), np.zeros((2, 3, 1, 1))])
    with pytest.raises(SpecMismatchError):
        AMatrix(algebra, 2, 2, [np.zeros((3, 2, 2, 2, 2)), np.zeros((2, 2, 1, 1))])
    x = AMatrix(algebra, 2, 2, [np.ones((3, 2, 2, 2, 2), dtype=int),
                                np.ones((3, 2, 2, 1, 1))])
    assert x.stack_shape == (3,)
    assert all(b.dtype == complex for b in x.blocks)


def test_choi_identity_map_is_cp(algebra):
    rep = choi_cp_check(identity_table(algebra, 2))
    assert rep.passed
    assert rep.method == "choi"
    assert rep.min_eigenvalue > -1e-12
    assert rep.unital_defect < 1e-12
    assert abs(rep.norm_bound - 1.0) < 1e-10


def test_choi_transpose_map_fails():
    """The transpose is positive but not completely positive: its Choi matrix
    has a -1 eigenvalue."""
    rep = choi_cp_check(transpose_table(AlgebraSpec((2,))))
    assert not rep.passed
    assert rep.min_eigenvalue < -0.5


def test_choi_cap_triggers(algebra):
    """The Choi check runs while the full Choi side m c of the widest domain
    block is at most the cap, and the probe takes over one below it."""
    table = identity_table(algebra, 40)
    side = max(table.domain_sides) * table.codomain_dim  # 80 * 120
    rep = cp_check_auto(table, choi_cap=side, seed=1)
    assert rep.method == "choi" and rep.passed
    rep = cp_check_auto(table, choi_cap=side - 1, seed=1)
    assert rep.method == "probe" and rep.passed


def test_probe_flags_transpose():
    rep = positivity_probe(transpose_table(AlgebraSpec((2,))), trials=20, seed=3)
    assert not rep.passed


def test_non_hermitian_map_fails_choi_and_probe():
    """x -> (1 + 0.5i) x keeps the Hermitian part of its outputs positive, so
    only the hermiticity deviation shows that it is not a positive map."""
    algebra = AlgebraSpec((2,))
    table = LinearMapTable(algebra, 1, 1, lambda x, row: x * (1 + 0.5j))
    assert not choi_cp_check(table).passed
    rep = positivity_probe(table, trials=5, seed=3)
    assert rep.min_eigenvalue > 0
    assert not rep.passed


def test_compose_tables(algebra):
    double = LinearMapTable(algebra, 2, 2, lambda x, row: x * 2.0)
    comp = compose(double, identity_table(algebra, 2))
    x = random_amatrix(algebra, 2, 2, 41)
    stack = AMatrix(algebra, 2, 2, [b[None] for b in x.blocks])
    assert allclose(first(comp.apply(stack)), 2.0 * x, 1e-12)


def corner_table(algebra, p, keep, honest):
    """The identity on p x p matrices over A, declared to read the rows
    below ``keep``: honest when it zeroes every other entry first, and
    reading outside its reads when it does not."""
    def apply(x, row):
        if honest:
            x = x.copy()
            for b in x.blocks:
                b[..., keep:, :, :, :] = 0
                b[..., :, keep:, :, :] = 0
        return x

    return LinearMapTable(algebra, p, p, apply, reads=np.arange(keep))


def test_reads_restrict_the_choi_and_probe_checks(algebra):
    """A map that keeps its reads promise: both checks pass on the corner,
    with the reads deviation exactly 0, and the Choi minimum is the full
    Choi matrix's (0, from the zero rows) on the reported grid."""
    table = corner_table(algebra, 3, 2, honest=True)
    full = LinearMapTable(table.spec, table.p, table.q, table._apply)
    assert table.restricted and not full.restricted
    rep, want = choi_cp_check(table), choi_cp_check(full)
    assert rep.passed and rep.reads_dev == 0.0
    assert rep.to_dict() == want.to_dict() and rep.to_dict()["min_eig"] == 0.0
    probe = positivity_probe(table, trials=5, seed=3)
    assert probe.passed and probe.reads_dev == 0.0
    assert probe.to_dict() == positivity_probe(full, trials=5, seed=3).to_dict()


def test_map_reading_outside_its_reads_fails_choi_and_probe(algebra):
    """The identity declared to read a corner is CP, and its corner is too,
    but it reads outside the rows its checks assemble and probe: both checks
    fail it on the reads deviation."""
    table = corner_table(algebra, 3, 2, honest=False)
    for rep in (choi_cp_check(table), positivity_probe(table, trials=5, seed=3)):
        assert rep.min_eigenvalue > -1e-12
        assert not rep.passed
        assert rep.reads_dev > 1e-9


def test_reads_must_lie_sorted_inside_each_block(algebra):
    """``reads`` is one sorted array of rows of M_p(A), shared by every
    domain block: a list of arrays, unsorted or repeated rows and rows
    outside [0, p) are refused."""
    for reads in ([np.arange(2)], np.array([1, 0]), np.array([0, 0]),
                  np.arange(3), np.array([-1, 0])):
        with pytest.raises(SpecMismatchError):
            LinearMapTable(algebra, 2, 2, None, reads=reads)


def test_cp_report_serializes(algebra):
    d = choi_cp_check(identity_table(algebra, 1)).to_dict()
    assert set(d) == {"method", "min_eig", "unital_defect", "norm_bound", "pass"}
    # computed values on the grid of the tolerance each is checked against
    d = CPReport("choi", -1.23456789012345e-9, 4.56789012345678e-13,
                 1.0000000000000004, 0.0).to_dict()
    assert (d["min_eig"], d["unital_defect"], d["norm_bound"]) == (-1.23e-9, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the CP checks run on one OpenBLAS thread
# ---------------------------------------------------------------------------

needs_openblas = pytest.mark.skipif(
    "openblas" not in str(getattr(np.__config__, "CONFIG", {})
                          .get("Build Dependencies", {}).get("blas", {})).lower(),
    reason="numpy is not built against OpenBLAS")


@needs_openblas
def test_one_blas_thread_sets_and_restores_the_count(monkeypatch, algebra):
    """Inside the block OpenBLAS runs one thread; after it, the count set
    before, also when the block raises.  cp_check_auto runs its check in
    the block."""
    get, set_ = hilbert_mod._openblas_threads()
    before = get()
    try:
        set_(2)
        with hilbert_mod._one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with hilbert_mod._one_blas_thread():
                assert get() == 1
                raise RuntimeError("inside the check")
        assert get() == 2
        seen = []
        monkeypatch.setattr(hilbert_mod, "choi_cp_check", lambda table: seen.append(get()))
        cp_check_auto(identity_table(algebra, 1))
        assert seen == [1] and get() == 2
    finally:
        set_(before)


@needs_openblas
@pytest.mark.parametrize("big_n", [3, 4], ids=["choi", "probe"])
def test_cp_check_auto_same_report_without_the_thread_switch(monkeypatch, big_n):
    """On twisted2's two factor maps, through Choi (N = 3) and the probe
    (N = 4): the check on one thread records what it records at the
    process's own count.  The record is compared as serialized: the probe's
    unrounded least eigenvalue moves in its last digits with the count."""
    spec = build_preset("twisted2")
    phi, psi, _ = factor_tables(spec, FockWindow.one_sided(big_n + 2), big_n)
    method = "choi" if big_n == 3 else "probe"
    for table, seed in ((phi, 1), (psi, 2)):
        one = cp_check_auto(table, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(hilbert_mod, "_openblas_threads", lambda: None)
            own = cp_check_auto(table, seed=seed)
        assert one.method == own.method == method and one.passed
        assert one.to_dict() == own.to_dict()
