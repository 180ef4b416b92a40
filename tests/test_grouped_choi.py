"""The Choi assembly per row class (``LinearMapTable.classes``): its entries
against those of each matrix unit's image alone and of one row per class,
its count of applications, and the test of the grouping
(``CPReport.assembly_dev``), which sends every table whose declaration does
not hold back to one row per class, so that no verdict rests on it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab import hilbert_mod
from pimsner_lab.fock import (
    FockWindow,
    GradedOperator,
    _degree_offsets,
    extension_classes,
    psi_amplify,
    window_table,
)
from pimsner_lab.hilbert_mod import AMatrix, LinearMapTable, _choi_entries, _choi_min_eig, choi_cp_check
from pimsner_lab.lift import factor_tables
from pimsner_lab.star_core import DEFAULT_TOL, AlgebraSpec

from test_batched_maps import build, per_row, per_unit_choi_entries
from test_choi import dense_choi_min_eig, decoded_triples, kernel_table, same_triples
from test_peel import correspondences

EQ_TOL = DEFAULT_TOL.eq_tol


def psi_of(spec, big_n):
    """Psi_N of the certificate's window [0, N + 2], as factor_tables builds it."""
    return factor_tables(spec, FockWindow.one_sided(big_n + 2), big_n)[1]


@pytest.mark.parametrize("name, big_n", [("twisted2", 2), ("twisted2", 3), ("cuntz2", 2),
                                         ("cuntz2", 3), ("mixed", 2)])
def test_grouped_triples_equal_the_per_unit_images(name, big_n):
    """Psi_N, its Choi check called directly (no cap): the entries assembled
    per (degree, algebra index) class equal, bit for bit, those of the image
    of each matrix unit alone (``per_unit_choi_entries``).  mixed has an
    algebra block of side 2, so two classes per degree there; at N = 3 its
    per-unit images take 1.5 s, and the random correspondences below cover
    blocks of side up to 3."""
    psi = psi_of(build(name), big_n)
    assert psi.classes is not None
    assert same_triples(decoded_triples(psi), per_unit_choi_entries(psi))


def by_position(row, col, val):
    order = np.lexsort((col, row))
    return row[order], col[order], val[order]


@pytest.mark.parametrize("name", ["twisted2", "cuntz2"])
def test_grouped_triples_equal_the_per_row_ones_at_n_4(name):
    """At N = 4 (Choi side 7,874 on twisted2) each factor map's entries of
    domain block 0, assembled per class, equal those assembled one row per
    class, bit for bit.  cuntz2 at N = 5 is compared with its Kraus oracle
    in test_choi."""
    spec = build(name)
    for table in factor_tables(spec, FockWindow.one_sided(6), 4)[:2]:
        got, want = ({t: by_position(*e) for t, e in enumerate(_choi_entries(table, 0, classes)[0])}
                     for classes in (table.classes, None))
        assert same_triples(got, want)


@settings(max_examples=12, deadline=None)
@given(correspondences().filter(lambda spec: spec.n >= 2), st.integers(1, 2))
def test_grouped_triples_on_random_correspondences(spec, big_n):
    """On random correspondences with n >= 2 and blocks of side up to 3,
    where the classes are (degree, algebra index): Psi_N's entries per class
    pass the test of the grouping and equal those of one row per class."""
    if spec.n ** (big_n + 1) > 9:
        big_n = 1
    psi = factor_tables(spec, FockWindow.one_sided(big_n + 1), big_n)[1]
    assert same_triples(decoded_triples(psi), decoded_triples(per_row(psi)))


def counted(table, classes):
    """``table`` with ``classes`` declared, and the list of the (stack
    shape, rows hint) of each of its applies."""
    applies = []
    spy = LinearMapTable(table.spec, table.p, table.q, reads=table.reads, classes=classes,
                         apply=lambda x, rows: applies.append((x.stack_shape, rows))
                         or table.apply(x, rows))
    return spy, applies


def test_class_applies_are_counted():
    """Psi_N of twisted2 at N = 3 (two algebra blocks, 15 rows of degrees
    0..3): per domain block, four class stacks four deep, then one Gaussian
    that tests the grouping, and the unit; one row per class takes 15
    stacks 15 deep per block."""
    psi = psi_of(build("twisted2"), 3)
    spy, applies = counted(psi, psi.classes)
    choi_cp_check(spy)
    per_block = [((4,), True)] * 4 + [((1,), False)]
    assert [(shape, rows is not None) for shape, rows in applies] == \
        per_block * 2 + [((1,), False)]
    spy, applies = counted(psi, None)
    choi_cp_check(spy)
    assert [(shape, rows is not None) for shape, rows in applies] == \
        [((15,), True)] * 30 + [((1,), False)]


def transposed(spec, window):
    """Psi_N followed by the transpose (positive, not CP): each unit's image
    lands in the rows that extend its column."""
    def fn(g):
        out = psi_amplify(g, window)
        return GradedOperator(spec, window, {(j, i): AMatrix(
            spec.algebra, val.cols, val.rows, [b.swapaxes(-4, -3).swapaxes(-2, -1) for b in val.blocks])
            for (i, j), val in out.blocks.items()})
    return fn


def newest_layer_oldest(spec, window):
    """(N + 1)^-1 sum_k Ad P_k (x (x) I_{E^k}), P_k moving the k letters
    appended at the least significant end (where ``amplify1`` puts the
    twist) to the most significant: row x.w becomes w.x.  Still CP, but a
    unit's image no longer lies in the rows that extend it."""
    def fn(g):
        big_n, out = g.window.hi, GradedOperator(spec, window)
        for (i, j), val in g.blocks.items():
            for k in range(window.hi - max(i, j) + 1):
                pi, pj = (np.arange(spec.n ** (d + k)).reshape(spec.n ** d, spec.n ** k).T.ravel()
                          for d in (i, j))
                amp = spec.amplify(val, k) * (1.0 / (big_n + 1))
                out.add_block(i + k, j + k, AMatrix(spec.algebra, amp.rows, amp.cols, [
                    b[..., pi[:, None], pj, :, :] for b in amp.blocks]))
        return out
    return fn


@pytest.mark.parametrize("big_n", [2, 3])
@pytest.mark.parametrize("name", ["twisted2", "cuntz2"])
@pytest.mark.parametrize("defect", [transposed, newest_layer_oldest])
def test_broken_grouping_falls_back_to_one_row_per_class(defect, name, big_n):
    """A Psi_N-like map that declares Psi_N's classes but breaks them
    records assembly_dev above eq_tol, and otherwise the record of the same
    map checked one row per class: the transpose fails it on a negative
    eigenvalue, the moved layer passes."""
    spec = build(name)
    window = FockWindow.one_sided(big_n + 2)
    table = window_table(spec, FockWindow.one_sided(big_n), window, defect(spec, window),
                         extension_classes(spec, big_n, window))
    rep = choi_cp_check(table)
    assert rep.assembly_dev > EQ_TOL
    assert dataclasses.replace(rep, assembly_dev=None) == choi_cp_check(per_row(table))
    assert rep.passed == (defect is newest_layer_oldest)
    assert (rep.min_eigenvalue < -0.1) == (defect is transposed)


def plant_nan(table, when):
    """``table``, its declaration kept, with a NaN written into entry
    (0, 0) of the first image of each apply for which ``when(x, rows)``."""
    def apply(x, rows):
        out = table.apply(x, rows).copy()
        if when(x, rows):
            out.blocks[0][0, 0, 0, 0, 0] = np.nan
        return out
    return LinearMapTable(table.spec, table.p, table.q, apply, reads=table.reads, classes=table.classes)


def test_nan_in_a_grouped_image_fails():
    """Psi_N of twisted2 at N = 2.  A NaN where the unit e_00's image lands,
    in its class stack and in its row's stack alike (not in the Gaussian
    test's image): the deviation and the least eigenvalue read NaN, and the
    check fails.  A NaN in the class stack alone: the deviation reads NaN
    and the record is that of the clean map, one row per class."""
    psi = psi_of(build("twisted2"), 2)
    rep = choi_cp_check(plant_nan(psi, lambda x, rows: rows is not None and rows[0] == 0))
    assert np.isnan(rep.assembly_dev) and np.isnan(rep.min_eigenvalue)
    assert rep.passed is False and rep.to_dict()["min_eig"] is None
    rep = choi_cp_check(plant_nan(psi, lambda x, rows: x.stack_shape == (3,) and rows[0] == 0))
    assert np.isnan(rep.assembly_dev)
    assert dataclasses.replace(rep, assembly_dev=None) == choi_cp_check(per_row(psi))


def test_entry_with_no_owner_falls_back():
    """A declaration whose owner table leaves out a row that an image
    reaches: the deviation is inf, and the record is the per-row one."""
    psi = psi_of(build("cuntz2"), 2)
    row_class, owner = psi.classes
    owner = owner.copy()
    owner[0, -1] = -1
    table = LinearMapTable(psi.spec, psi.p, psi.q, psi.apply, classes=(row_class, owner))
    rep = choi_cp_check(table)
    assert rep.assembly_dev == np.inf
    assert dataclasses.replace(rep, assembly_dev=None) == choi_cp_check(per_row(psi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 2), min_size=1, max_size=2),
       st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_random_declarations_never_reach_the_verdict(seed, dims, p, q, restrict):
    """Random kernel maps with random row classes and owner tables (almost
    always wrong): the least eigenvalue and max |C - C*| are exactly those
    of the dense reference."""
    rng = np.random.default_rng(seed)
    spec = AlgebraSpec(tuple(dims))
    kernels = [[rng.standard_normal((p * s, p * s, q * t, q * t)) * (rng.random() < 0.8)
                for t in dims] for s in dims]
    reads = np.flatnonzero(rng.random(p) < 0.6) if restrict else None
    table = kernel_table(spec, p, q, kernels, reads)
    r = table.reads.size
    classes = (rng.integers(0, 2, r), rng.integers(-1, r, (2, q)))
    declared = LinearMapTable(spec, p, q, table.apply, reads=table.reads, classes=classes)
    assert _choi_min_eig(declared)[:2] == dense_choi_min_eig(table)


@pytest.mark.skipif(hilbert_mod._openblas_threads() is None, reason="numpy is not built against OpenBLAS")
@pytest.mark.parametrize("name, big_n", [("twisted2", 3), ("cuntz2", 4)])
def test_records_equal_at_one_and_two_blas_threads(name, big_n):
    """The grouped entries, the test of the grouping and the record, at one
    and at two OpenBLAS threads."""
    psi = psi_of(build(name), big_n)
    get, set_ = hilbert_mod._openblas_threads()
    before, seen = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            rep = choi_cp_check(psi)
            assert rep.assembly_dev <= EQ_TOL
            seen.append((rep.to_dict(), decoded_triples(psi)))
    finally:
        set_(before)
    assert seen[0][0] == seen[1][0]
    assert same_triples(seen[0][1], seen[1][1])


def test_extension_classes_are_the_degree_prefixes():
    """cuntz2 from [0, 2] into [0, 3]: a class per degree; in class i, the
    row of degree m and word index w is owned by the degree-i row of word
    index w // 2^(m - i), and a row of lower degree by none."""
    spec = build("cuntz2")
    row_class, owner = extension_classes(spec, 2, FockWindow.one_sided(3))
    assert row_class.tolist() == [0, 1, 1, 2, 2, 2, 2]
    offs = _degree_offsets(spec, FockWindow.one_sided(3))
    for i in range(3):
        for m in range(4):
            got = owner[i, offs[m]:offs[m + 1]].tolist()
            assert got == ([2 ** i - 1 + w // 2 ** (m - i) for w in range(2 ** m)] if m >= i
                           else [-1] * 2 ** m)
