"""The batched factor maps against the one-element path through
GradedOperator, and batched application against application one element
at a time, on all four presets and on one correspondence whose degree
blocks and algebra blocks are both wider than one (which no preset has)."""

import numpy as np
import pytest

from pimsner_lab.star_core import AlgebraSpec, Automorphism
from pimsner_lab.correspondence import CorrespondenceSpec
from pimsner_lab.hilbert_mod import (
    AMatrix,
    LinearMapTable,
    choi_cp_check,
    cp_check_auto,
    positivity_probe,
)
from pimsner_lab.fock import (
    FockWindow,
    GradedOperator,
    compress,
    compress_table,
    psi_amplify,
    window_table,
)
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import PRESETS, build_preset

from conftest import compose
from test_choi import decoded_choi_entries, first_difference

BIG_N = 2


def mixed_spec():
    """n = 2 over A = M_2 (+) C, a Hadamard/phase U and a rotation."""
    algebra = AlgebraSpec((2, 1))
    t = 0.7
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    unitary = AMatrix(algebra, 2, 2, [np.einsum("ij,ab->ijab", hadamard, np.eye(2)),
                                      np.diag([1.0, 1.0j]).reshape(2, 2, 1, 1)])
    return CorrespondenceSpec(
        algebra=algebra, n=2, unitary=unitary,
        alphas=(Automorphism.identity(algebra),
                Automorphism(algebra, (0, 1), (rot, np.eye(1)))),
        name="mixed")


def build(name):
    return mixed_spec() if name == "mixed" else build_preset(name)


def pipeline_table(spec, window, big_n):
    """The window-restricted pipeline Psi_N o phi_N as a linear map on the
    flattened window algebra, for CP certification.  The compression reads
    [0, N] alone: the rows that compress_table reads."""
    table = window_table(spec, window, window,
                         lambda x: psi_amplify(compress(x, big_n), window))
    return LinearMapTable(spec.algebra, table.p, table.q, table.apply,
                          reads=compress_table(spec, window, big_n).reads)


def window_for(spec):
    return FockWindow.two_sided_sym(3) if spec.n == 1 else FockWindow.one_sided(3)


def graded(spec, window, x):
    """The one-element path: the degree blocks of the window matrix x."""
    return GradedOperator.from_amatrix(spec, window, x)


def reference_maps(spec, window):
    """name -> (table, the same map through GradedOperator)."""
    inner = FockWindow.one_sided(BIG_N)
    phi, psi, _ = factor_tables(spec, window, BIG_N)
    maps = {
        "compress": (phi, lambda x: graded(spec, window, x).restrict(inner)),
        "amplify": (psi, lambda x: psi_amplify(graded(spec, inner, x), window)),
        "pipeline": (pipeline_table(spec, window, BIG_N), lambda x: psi_amplify(
            compress(graded(spec, window, x), BIG_N), window)),
        "compose": (compose(psi, phi), lambda x: psi_amplify(
            graded(spec, window, x).restrict(inner), window)),
    }
    if spec.n == 1:
        # the bilateral lift's compression onto the one-sided part
        one = FockWindow.one_sided(window.hi)
        maps["bilateral-compression"] = (
            factor_tables(spec, window, window.hi)[0],
            lambda x: graded(spec, window, x).restrict(one))
    return maps


def random_stack(table, size, seed):
    """A stack of dense random p x p matrices over A."""
    rng = np.random.default_rng(seed)
    shapes = [(size, table.p, table.p, d, d) for d in table.spec.block_dims]
    return AMatrix(table.spec, table.p, table.p,
                   [rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes])


def elements(x):
    """The elements of a stack with one stack axis, one AMatrix each."""
    return [AMatrix(x.spec, x.rows, x.cols, [b[e] for b in x.blocks])
            for e in range(x.stack_shape[0])]


def stack_of(x):
    """The one-element stack of x."""
    return AMatrix(x.spec, x.rows, x.cols, [b[None] for b in x.blocks])


def unit_stack(table, s, u, cols):
    """The stack of matrix units e_{u v}, v in ``cols``, of flattened domain
    block s, as p x p matrices over A."""
    flats = [np.zeros((len(cols), m, m), dtype=complex) for m in table.domain_sides]
    flats[s][np.arange(len(cols)), u, cols] = 1.0
    return AMatrix.from_flat(table.spec, table.p, table.p, flats)


def same_bits(x, y):
    return all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))


CASES = [(spec_name, name) for spec_name in sorted(PRESETS) + ["mixed"]
         for name in ("compress", "amplify", "pipeline", "compose",
                      "bilateral-compression")
         if name != "bilateral-compression" or build(spec_name).n == 1]


@pytest.mark.parametrize("spec_name, name", CASES)
def test_stack_apply_equals_per_element(spec_name, name):
    spec = build(spec_name)
    table, _ = reference_maps(spec, window_for(spec))[name]
    stack = random_stack(table, 3, 5)
    out = table.apply(stack)
    assert out.stack_shape == (3,) and (out.rows, out.cols) == (table.q, table.q)
    for x, y in zip(elements(stack), elements(out)):
        assert (y - elements(table.apply(stack_of(x)))[0]).max_abs() <= 1e-12


@pytest.mark.parametrize("spec_name, name", CASES)
def test_batched_maps_equal_graded_operator_path(spec_name, name):
    spec = build(spec_name)
    table, reference = reference_maps(spec, window_for(spec))[name]
    stack = random_stack(table, 2, 11)
    for x, y in zip(elements(stack), elements(table.apply(stack))):
        want = reference(x).to_amatrix()
        assert (want.rows, want.cols) == (y.rows, y.cols)
        assert (y - want).max_abs() <= 1e-12


def per_unit_choi_entries(table) -> dict:
    """The nonzero entries of the Choi matrices C_t of each domain block s,
    per (s, t), as sorted (row, col, re, im) tuples, from one unhinted apply
    per unit e_uv of the read flat rows: entry ((i, a), (j, b)) of C_t is
    Phi(e_uv)_t[a, b] for u and v the i-th and j-th read flat rows.  Every
    other unit's image must be exactly zero, so these are all of them."""
    dims = table.spec.block_dims
    out = {(s, t): [] for s in range(len(dims)) for t in range(len(dims))}
    for s, (m, d) in enumerate(zip(table.domain_sides, dims)):
        rows = (table.reads[:, None] * d + np.arange(d)).ravel().tolist()
        for u in range(m):
            for v in range(m):
                image = elements(table.apply(unit_stack(table, s, u, [v])))[0]
                if u not in rows or v not in rows:
                    assert image.max_abs() == 0.0
                    continue
                i, j = rows.index(u), rows.index(v)
                for t, d_t in enumerate(dims):
                    c, flat = table.q * d_t, image.flatten_block(t)
                    out[s, t] += [(i * c + a, j * c + b, flat[a, b].real, flat[a, b].imag)
                                  for a, b in zip(*np.nonzero(flat))]
    return {key: sorted(entries) for key, entries in out.items()}


@pytest.mark.parametrize("spec_name, name", CASES)
def test_basis_images_equal_per_unit_loop(spec_name, name):
    """The Choi entries the Choi check decodes, from one hinted apply per
    read flat row of each domain block, equal those of one unhinted apply
    per matrix unit, entry for entry and with no tolerance; every unit
    outside ``reads`` has a zero image."""
    spec = build(spec_name)
    table, _ = reference_maps(spec, window_for(spec))[name]
    want = per_unit_choi_entries(table)
    assert first_difference(decoded_choi_entries(table), want) is None


@pytest.mark.parametrize("big_n", [2, 3, 4, 5])
@pytest.mark.parametrize("spec_name", sorted(PRESETS) + ["mixed"])
def test_compress_table_is_compress_bit_for_bit(spec_name, big_n):
    """compress_table reads P_N x P_N off each window matrix as its corner.
    On the certificate's window for N (top degree N + 2, two-sided for
    n = 1), its images of a random stack, and of unit stacks on the first
    and last row it reads and on a row it does not, each hinted with its
    row, equal compress(from_amatrix(x)).to_amatrix() bit for bit, element
    by element.  An image is a view of its input."""
    spec = build(spec_name)
    window = (FockWindow.two_sided_sym if spec.n == 1 else FockWindow.one_sided)(big_n + 2)
    phi = compress_table(spec, window, big_n)

    def compressed(x):
        return compress(GradedOperator.from_amatrix(spec, window, x), big_n).to_amatrix()

    stack = random_stack(phi, 2, big_n)
    out = phi.apply(stack)
    assert out.stack_shape == (2,) and (out.rows, out.cols) == (phi.q, phi.q)
    assert all(np.shares_memory(a, b) for a, b in zip(out.blocks, stack.blocks))
    for x, y in zip(elements(stack), elements(out)):
        assert same_bits(y, compressed(x))
    outside = phi.reads[-1] + 1  # the first row of degree N + 1
    for s, (m, d) in enumerate(zip(phi.domain_sides, spec.algebra.block_dims)):
        cols = np.unique(np.linspace(0, m - 1, 6).astype(int))
        for row in (phi.reads[0], phi.reads[-1], outside):
            units = unit_stack(phi, s, row * d, cols)
            for x, y in zip(elements(units), elements(phi.apply(units, row))):
                assert same_bits(y, compressed(x))


def test_factor_maps_read_the_compressed_window():
    """phi and the pipeline read the rows of degrees [0, N]; Psi_N and a
    composition with phi inside read what their inner map reads."""
    spec = build("mixed")
    window = FockWindow.one_sided(3)
    maps = reference_maps(spec, window)
    # degrees 0..N = 2 hold 1 + 2 + 4 = 7 rows over A
    for name in ("compress", "pipeline", "compose"):
        table = maps[name][0]
        assert table.restricted
        assert table.reads.tolist() == list(range(7))
    assert not maps["amplify"][0].restricted


def compression_and_pipeline(spec, window, big_n):
    """name -> (the table as factor_tables and pipeline_table build it, which
    reads [0, N] alone, the same map with reads left at the whole domain)."""
    inner = FockWindow.one_sided(big_n)
    return {
        "compress": (factor_tables(spec, window, big_n)[0], window_table(
            spec, window, inner, lambda g: compress(g, big_n))),
        "pipeline": (pipeline_table(spec, window, big_n), window_table(
            spec, window, window, lambda g: psi_amplify(compress(g, big_n), window))),
    }


@pytest.mark.parametrize("big_n", [2, 3])
@pytest.mark.parametrize("spec_name", sorted(PRESETS) + ["mixed"])
def test_reads_change_no_cp_verdict(spec_name, big_n):
    """The CP record of the restricted compression and pipeline, on the
    window [0, N+1] (two-sided for n = 1), equals that of the same map read
    on its whole domain: method, min_eig on the tol_grid, pass, norm_bound.
    The cap decides on the full side for both; above it both probe."""
    spec = build(spec_name)
    hi = big_n + 1
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    for restricted, full in compression_and_pipeline(spec, window, big_n).values():
        assert restricted.restricted and not full.restricted
        got = cp_check_auto(restricted, seed=1)
        want = cp_check_auto(full, seed=1)
        assert got.to_dict() == want.to_dict()
        assert got.passed


def test_reads_change_no_probe_verdict():
    """The probe (k = 2, 50 trials) on twisted2 at N = 4, on the
    certificate's window [0, 6]: the restricted compression and pipeline
    give the records of the maps read on their whole domain."""
    spec = build_preset("twisted2")
    for restricted, full in compression_and_pipeline(spec, FockWindow.one_sided(6), 4).values():
        got = positivity_probe(restricted, trials=50, seed=5)
        want = positivity_probe(full, trials=50, seed=5)
        assert got.to_dict() == want.to_dict()
        assert got.passed


@pytest.mark.parametrize("spec_name", sorted(PRESETS) + ["mixed"])
def test_stack_compressed_to_zero_gives_zero_images(spec_name):
    """A stack supported on the window's top degree, outside [0, N]^2, has
    no degree blocks left after compression; the compress and pipeline maps
    still return one zero image per element."""
    spec = build(spec_name)
    window = window_for(spec)
    phi, _, _ = factor_tables(spec, window, BIG_N)
    for table in (phi, pipeline_table(spec, window, BIG_N)):
        stack = AMatrix(spec.algebra, table.p, table.p, [
            np.zeros((3, table.p, table.p, d, d)) for d in spec.algebra.block_dims])
        stack.blocks[-1][:, -1, -1, -1, -1] = 1.0  # the last row of the last degree
        out = table.apply(stack)
        assert out.stack_shape == (3,) and (out.rows, out.cols) == (table.q, table.q)
        assert out.max_abs() == 0.0


@pytest.mark.parametrize("spec_name", sorted(PRESETS) + ["mixed"])
def test_stacked_amatrix_acts_per_element(spec_name):
    """A stack from from_flat flattens back, block by block, and its
    submatrices and amplifications equal those of its elements one at a
    time."""
    spec = build(spec_name)
    alg = spec.algebra
    p = 3
    rng = np.random.default_rng(3)
    flats = [rng.standard_normal((2, p * d, p * d)) + 1j * rng.standard_normal((2, p * d, p * d))
             for d in alg.block_dims]
    stack = AMatrix.from_flat(alg, p, p, flats)
    singles = [AMatrix.from_flat(alg, p, p, [f[e] for f in flats]) for e in range(2)]
    assert stack.stack_shape == (2,) and singles[0].stack_shape == ()
    ks = (1, 2, -1) if spec.n == 1 else (1, 2)
    for e, x in enumerate(singles):
        for s in range(alg.n_blocks):
            assert np.array_equal(stack.flatten_block(s)[e], x.flatten_block(s))
            assert np.array_equal(stack.flatten_block(s)[e], flats[s][e])
            assert np.array_equal(
                stack.submatrix(slice(1, 3), slice(0, 2)).flatten_block(s)[e],
                x.submatrix(slice(1, 3), slice(0, 2)).flatten_block(s))
            for k in ks:
                got = spec.amplify(stack, k).flatten_block(s)[e]
                assert np.max(np.abs(got - spec.amplify(x, k).flatten_block(s))) <= 1e-12


@pytest.mark.parametrize("spec_name", sorted(PRESETS) + ["mixed"])
def test_identity_map_basis_images_are_the_matrix_units(spec_name):
    """The identity map's Choi matrix on domain block s of side m is
    |Omega><Omega| in codomain block s, entry 1 at row u m + u and column
    v m + v, and zero in every other block: exactly the decoded entries, for
    the identity window map and for the map that hands back its input.  The
    latter's images are views of the unit stack that the Choi check rewrites
    row by row, so each row's images must be read before its units are
    zeroed again."""
    spec = build(spec_name)
    window = FockWindow.two_sided_sym(1) if spec.n == 1 else FockWindow.one_sided(2)
    table = window_table(spec, window, window, lambda g: g.restrict(window))
    same = LinearMapTable(table.spec, table.p, table.p, lambda x, row: x)
    units = unit_stack(same, 0, 0, [0, 1])
    assert all(np.shares_memory(a, b) for a, b in zip(same.apply(units, 0).blocks, units.blocks))
    n = spec.algebra.n_blocks
    want = {(s, t): [(u * m + u, v * m + v, 1.0, 0.0) for u in range(m) for v in range(m)]
            if t == s else [] for s, m in enumerate(table.domain_sides) for t in range(n)}
    for identity in (table, same):
        assert first_difference(decoded_choi_entries(identity), want) is None


def row_unit_stacks(table):
    """(the row of M_p(A), the stack of matrix units in one flat row of it),
    as the Choi check builds them."""
    for s, (m, d) in enumerate(zip(table.domain_sides, table.spec.block_dims)):
        for u in range(m):
            yield u // d, unit_stack(table, s, u, np.arange(m))


@pytest.mark.parametrize("spec_name, name", CASES)
def test_row_hint_gives_the_unhinted_images(spec_name, name):
    """A row hint only spares the map the search for the stack's support:
    on every row's unit stack the images are exactly the unhinted ones."""
    spec = build(spec_name)
    table, _ = reference_maps(spec, window_for(spec))[name]
    for row, units in row_unit_stacks(table):
        assert same_bits(table.apply(units, row), table.apply(units))


@pytest.fixture
def splits(monkeypatch):
    """(stack shape, row index, the degrees of the result's block rows) of
    each GradedOperator.from_amatrix call, in order."""
    calls = []
    split = GradedOperator.from_amatrix.__func__

    def spy(cls, spec, window, mat, row_degree=None):
        out = split(cls, spec, window, mat, row_degree)
        calls.append((mat.stack_shape, row_degree, {i for i, _ in out.blocks}))
        return out

    monkeypatch.setattr(GradedOperator, "from_amatrix", classmethod(spy))
    return calls


@pytest.mark.parametrize("spec_name", ["twisted2", "crossed-z3", "mixed"])
def test_choi_assembly_never_scans_a_unit_stack(spec_name, splits):
    """The Choi check hints every row it reads, and the probe hints nothing.
    A Choi check applies, in order: for phi, which reads [0, N] alone, the
    pair G, Q G Q that tests its reads; one hinted unit stack per read flat
    row; then the unit.  The probe applies the reads pair, its cell stacks,
    then the unit.  psi, a window table, splits each hinted stack into its
    one block row; phi, the corner of the window matrix, makes no split."""
    spec = build(spec_name)
    phi, psi, _ = factor_tables(spec, window_for(spec), BIG_N)
    for table, reads_pair in ((phi, [(2,)]), (psi, [])):
        applies = []  # (stack shape, row hint) of each apply, in order
        spy = LinearMapTable(table.spec, table.p, table.q, reads=table.reads, apply=lambda x, row: (
            applies.append((x.stack_shape, row)) or table.apply(x, row)))
        splits.clear()
        assert choi_cp_check(spy).passed
        r = table.reads.size
        assert [shape for shape, row in applies if row is not None] == [
            (r * d,) for d in spec.algebra.block_dims for _ in range(r * d)]
        assert [shape for shape, row in applies if row is None] == reads_pair + [(1,)]
        if table is phi:
            assert splits == []
        else:
            assert [(shape, row is None) for shape, row, _ in splits] == [
                (shape, row is None) for shape, row in applies]
            assert all(len(rows) == 1 for _, row, rows in splits if row is not None)
        applies.clear()
        splits.clear()
        positivity_probe(spy, trials=2, seed=0)
        assert applies == [(shape, None) for shape in reads_pair + [(4,), (4,), (1,)]]
        assert [shape for shape, _, _ in splits] == ([] if table is phi else reads_pair + [(4,), (4,), (1,)])
