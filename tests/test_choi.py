"""The Choi check, which keeps only the nonzero entries of each Choi block,
against a dense reference: the Choi matrix built from one map application
per matrix unit and handed whole to ``_hermitian_min_eig``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimsner_lab import fock, hilbert_mod
from pimsner_lab.expectation import ex_k_table
from pimsner_lab.fock import (
    FockWindow,
    GradedOperator,
    extension_classes,
    psi_amplify,
    window_table,
)
from pimsner_lab.hilbert_mod import (
    AMatrix,
    LinearMapTable,
    _choi_min_eig,
    _hermitian_min_eig,
    choi_cp_check,
)
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import PRESETS, build_preset
from pimsner_lab.star_core import DEFAULT_TOL, AlgebraSpec


def direct_sum(x):
    """The one matrix x flattened as the direct sum of its algebra blocks."""
    mats = [x.flatten_block(t) for t in range(x.spec.n_blocks)]
    side = sum(m.shape[0] for m in mats)
    out = np.zeros((side, side), dtype=complex)
    off = 0
    for m in mats:
        out[off:off + m.shape[0], off:off + m.shape[0]] = m
        off += m.shape[0]
    return out


def dense_choi_min_eig(table):
    """(least eigenvalue, max |C - C*|) over the dense Choi matrices C of the
    table's domain blocks, restricted to the flat rows of ``reads`` x
    ``reads`` (a table that reads less adds the eigenvalue 0 of its zero
    rows).  Entry ((i, a), (j, b)) of C is Phi(e_{u_i u_j})[a, b], the image
    flattened whole (:func:`direct_sum`), one ``apply`` per unit."""
    spec, p, c = table.spec, table.p, table.codomain_dim
    low = 0.0 if table.restricted else np.inf
    herm_dev = 0.0
    for s, (m, d) in enumerate(zip(table.domain_sides, spec.block_dims)):
        rows = (table.reads[:, None] * d + np.arange(d)).ravel()
        r = rows.size
        choi = np.zeros((r * c, r * c), dtype=complex)
        for i, u in enumerate(rows.tolist()):
            for j, v in enumerate(rows.tolist()):
                flats = [np.zeros((m_t, m_t), dtype=complex) for m_t in table.domain_sides]
                flats[s][u, v] = 1.0
                unit = AMatrix.from_flat(spec, p, p, flats)
                image = table.apply(AMatrix(spec, p, p, [b[None] for b in unit.blocks]))
                image = AMatrix(spec, table.q, table.q, [b[0] for b in image.blocks])
                choi[i * c:(i + 1) * c, j * c:(j + 1) * c] = direct_sum(image)
        low, dev = _hermitian_min_eig(choi, low)
        herm_dev = max(herm_dev, dev)
    return low, herm_dev


def kernel_table(spec, p, q, kernels, reads=None):
    """The map M_p(A) -> M_q(A) whose flattened block t of the image of X is
    sum_s sum_{u,v} K_st[u, v] X_s[u, v], X_s the flattened block s of X and
    K_st = ``kernels[s][t]`` of shape (p d_s, p d_s, q d_t, q d_t): the part
    of its Choi matrix on domain block s and codomain block t has entry
    ((u, a), (v, b)) = K_st[u, v, a, b]."""
    n = spec.n_blocks

    def apply(x, row):
        flats = [sum(np.einsum("uvab,xuv->xab", kernels[s][t], x.flatten_block(s))
                     for s in range(n)) for t in range(n)]
        return AMatrix.from_flat(spec, q, q, flats)

    return LinearMapTable(spec, p, q, apply, reads=reads)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 2), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.0, 0.05, 0.2, 0.7]),
       st.booleans(), st.booleans(), st.booleans())
def test_sparse_choi_equals_dense_reference_on_random_tables(
        seed, dims, p, q, density, transpose, negative, restrict):
    """Random kernels K_st for every pair of a domain block s and a codomain
    block t, t != s included, on blocks of unequal sides: non-Hermitian
    entries, zero Choi rows, an isolated 1 x 1 component with negative real
    part (and the largest imaginary part), the transpose map (whose Choi
    matrix is the swap: components of side 2 with eigenvalue -1) and reads
    that leave rows out (some of them empty): exactly the dense reference."""
    rng = np.random.default_rng(seed)
    spec = AlgebraSpec(tuple(dims))
    kernels = []
    for d_s in dims:
        m = p * d_s
        zero_row = rng.integers(m)
        row = []
        for d_t in dims:
            c = q * d_t
            shape = (m, m, c, c)
            k = np.where(rng.random(shape) < density,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)
            k[zero_row] = 0  # the Choi rows (u, .) of one unit row are zero
            if transpose:
                u, v = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
                k[u, v, v % c, u % c] += 1.0
            row.append(k)
        if negative:
            t = rng.integers(len(dims))
            k, c = row[t], q * dims[t]
            u, a = rng.integers(m), rng.integers(c)
            k[u, :, a, :] = 0
            k[:, u, :, a] = 0
            k[u, u, a, a] = -rng.random() - 0.5 + 10j  # sets the Hermitian deviation
        kernels.append(row)
    reads = np.flatnonzero(rng.random(p) < 0.6) if restrict else None
    table = kernel_table(spec, p, q, kernels, reads)
    want = dense_choi_min_eig(table)
    assert _choi_min_eig(table) == want + (None,)
    if negative and not restrict:
        assert want[0] < 0 and want[1] == 20.0
    rep = choi_cp_check(table)
    assert rep.min_eigenvalue == want[0]
    assert rep.hermitian_dev == want[1]


def test_zero_map_and_empty_reads_equal_the_reference():
    """All rows zero (every row a 1 x 1 component of eigenvalue 0), and a
    table that reads no row (no Choi rows at all)."""
    zero = kernel_table(AlgebraSpec((1,)), 2, 3, [[np.zeros((2, 2, 3, 3), dtype=complex)]])
    assert _choi_min_eig(zero) == dense_choi_min_eig(zero) + (None,) == (0.0, 0.0, None)
    k = np.zeros((2, 2, 2, 2), dtype=complex)
    k[0, 0, 0, 0] = 2.0
    empty = kernel_table(AlgebraSpec((1, 1)), 2, 2, [[k, k], [k, k]], reads=np.arange(0))
    assert _choi_min_eig(empty) == dense_choi_min_eig(empty) + (None,) == (0.0, 0.0, None)


@pytest.mark.parametrize("big_n", [2, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sparse_choi_equals_dense_reference_on_factor_tables(name, big_n):
    """The compression and the amplification on the certificate's window
    [0, N + 2] (two-sided for n = 1), assembled per class where they
    declare classes (the test of the grouping passing)."""
    spec = build_preset(name)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    for table in factor_tables(spec, window, big_n)[:2]:
        low, herm_dev, assembly_dev = _choi_min_eig(table)
        assert (low, herm_dev) == dense_choi_min_eig(table)
        assert (assembly_dev is None) == (table.classes is None)
        assert table.classes is None or assembly_dev <= DEFAULT_TOL.eq_tol


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sparse_choi_equals_dense_reference_on_ex_k(name, level):
    table = ex_k_table(build_preset(name), level)
    assert _choi_min_eig(table) == dense_choi_min_eig(table) + (None,)


def test_choi_check_memory_stays_below_the_dense_block():
    """The twisted2 N = 3 amplification has Choi side 1,890: its dense
    Choi block alone would take 57 MB.  The check keeps one row's image
    stack (3.8 MB) and the nonzero entries, and peaks below 20 MB."""
    spec = build_preset("twisted2")
    psi = factor_tables(spec, FockWindow.one_sided(5), 3)[1]
    assert max(psi.domain_sides) * psi.codomain_dim == 1890
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = choi_cp_check(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 20e6


# ---------------------------------------------------------------------------
# an exact oracle for the compression's Choi matrix, from the Fock indexing
# ---------------------------------------------------------------------------

def compression_choi_oracle(block_dims, n: int, big_n: int) -> dict:
    """The nonzero entries of phi_N's Choi matrices on its read corner, per
    (domain block s, codomain block t), as sorted (row, col, re, im) tuples,
    from the Fock indexing alone, with no package code.

    The corner holds degrees 0..N of the Fock module, degree k on n^k rows
    over A, so D = sum_k n^k rows (on a two-sided window, n = 1, the degrees
    below 0 are not read).  In block s of side d_s its flat rows are
    u = 0..D d_s - 1, and phi_N = Ad P_N maps the unit e_uv to the unit e_uv
    of M_D(A), in block s.  So C_s is |Omega><Omega| with
    Omega = sum_u e_u (x) e_u, entry 1 at row u c + u and column v c + v for
    c = D d_s, and C_t = 0 for t != s: 0/1 entries on every preset, since the
    map is a coordinate corner."""
    rows = sum(n ** k for k in range(big_n + 1))
    out = {}
    for s, d_s in enumerate(block_dims):
        c = rows * d_s
        for t in range(len(block_dims)):
            out[s, t] = [(u * c + u, v * c + v, 1.0, 0.0)
                         for u in range(c) for v in range(c)] if t == s else []
    return out


def decoded_triples(table) -> dict:
    """The (row, col, value) arrays ``_choi_min_eig`` decodes for ``table``,
    captured at ``_sparse_hermitian_min_eig``, per (s, t) in its call order,
    each sorted by (row, col).  A table that declares classes must pass the
    test of its grouping, so these are its grouped entries."""
    calls, original = [], hilbert_mod._sparse_hermitian_min_eig

    def spy(row, col, val, side, bound):
        order = np.lexsort((col, row))
        calls.append((row[order], col[order], val[order]))
        return original(row, col, val, side, bound)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hilbert_mod, "_sparse_hermitian_min_eig", spy)
        assembly_dev = _choi_min_eig(table)[2]
    assert table.classes is None or assembly_dev <= DEFAULT_TOL.eq_tol
    dims = table.spec.block_dims
    return {(s, t): calls[s * len(dims) + t] for s in range(len(dims)) for t in range(len(dims))}


def same_triples(got: dict, want: dict) -> bool:
    """Whether two sets of sorted triples agree bit for bit."""
    return got.keys() == want.keys() and all(
        np.array_equal(g.view(np.int64), w.view(np.int64))
        for key in want for g, w in zip(got[key], want[key]))


def decoded_choi_entries(table) -> dict:
    """:func:`decoded_triples` as sorted (row, col, re, im) tuples."""
    return {key: list(zip(row.tolist(), col.tolist(), val.real.tolist(), val.imag.tolist()))
            for key, (row, col, val) in decoded_triples(table).items()}


def first_difference(got: dict, want: dict):
    """The first (s, t), position and pair of entries at which two entry
    lists differ (None for a missing entry), or None when they are equal."""
    for key in want:
        for i in range(max(len(got[key]), len(want[key]))):
            pair = tuple(e[i] if i < len(e) else None for e in (got[key], want[key]))
            if pair[0] != pair[1]:
                return key, i, pair
    return None


@pytest.mark.parametrize("name, big_n", [(name, big_n) for name in sorted(PRESETS)
                                         for big_n in (2, 3)]
                         + [("crossed-z3", 4), ("crossed-z3", 5)])
def test_compression_choi_equals_the_fock_oracle_exactly(name, big_n):
    """The compression of the certificate's window [0, N + 2] (two-sided for
    n = 1, where the read corner sits in the middle): every decoded entry
    equals the oracle's, with no tolerance."""
    spec = build_preset(name)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    phi = factor_tables(spec, window, big_n)[0]
    want = compression_choi_oracle(spec.algebra.block_dims, spec.n, big_n)
    assert first_difference(decoded_choi_entries(phi), want) is None


def test_compression_reading_past_n_is_named_by_the_oracle():
    """The leak of the defect test (0.1 x the top-left corner of the degree
    N + 1 block added into degree N), on a table whose ``reads`` cover the
    degree N + 1 rows it now reads, cuntz2 at N = 2: the first differing
    entry is the first leaked one, past every entry of the oracle.  (With
    ``reads`` left at [0, N] the Choi corner cannot see the leak; the reads
    check catches that one, test_cli's defect test.)"""
    spec, big_n = build_preset("cuntz2"), 2
    window = FockWindow.one_sided(big_n + 2)
    phi = factor_tables(spec, window, big_n)[0]
    offs = fock._degree_offsets(spec, window)
    at_n, past_n = (slice(offs[d], offs[d] + spec.fiber_dim(big_n)) for d in (big_n, big_n + 1))

    def apply(x, row):
        out = phi.apply(x, row).copy()
        for b, top in zip(out.blocks, x.submatrix(past_n, past_n).blocks):
            b[..., at_n, at_n, :, :] += 0.1 * top
        return out

    leaky = LinearMapTable(phi.spec, phi.p, phi.q, apply, reads=np.arange(offs[big_n + 2]))
    got = decoded_choi_entries(leaky)
    want = compression_choi_oracle(spec.algebra.block_dims, spec.n, big_n)
    # D = 7 rows of degrees 0..2; the first read row of degree 3 is i = 7, and
    # the unit e_{7,7} lands on e_{3,3} (the first row of degree 2) as 0.1
    assert first_difference(got, want) == ((0, 0), 49, ((7 * 7 + 3, 7 * 7 + 3, 0.1, 0.0), None))


# ---------------------------------------------------------------------------
# an exact oracle for Psi_N's Choi matrix, from its Kraus vectors
# ---------------------------------------------------------------------------

def psi_choi_oracle(name: str, big_n: int, hi: int) -> dict:
    """N + 1 times the nonzero entries of the Choi matrices of Psi_N, into the
    window of top degree ``hi`` (two-sided on crossed-z3), per (domain block
    s, codomain block t), as sorted (row, col, re, im) tuples, from its Kraus
    vectors alone, with no package code.

    C = (N + 1)^-1 sum_{k,w} v_{k,w} v_{k,w}*, with the Kraus vector
    v_{k,w} = sum_u e_u (x) e_{u.w} over the domain rows u (degrees 0..N)
    whose extension u.w by a word w of length k lies in the window (Choi
    1975; Kraus 1971).  The v_{k,w} have disjoint supports, so each entry of
    (N + 1) C is 0 or 1.
    - cuntz2 (n = 2, U = I, alpha = id): degree g holds its 2^g words at the
      rows 2^g - 1 + word index, and u.w appends the letters of w least
      significant, (g, x).w = (g + k, x 2^k + w), as ``amplify1`` orders them.
    - crossed-z3 (n = 1, U = I, alpha the block shift (1, 2, 0)): degree g
      is one row, g in the domain and g + hi in the window [-hi, hi].  The
      words are the shifts k of either sign, and a shift by k moves algebra
      block s to s + k mod 3: phi_1(e^0) = e^1 (``phi_k_direct``, pinned in
      the test).
    twisted2's Hadamard U and rotation-m2's golden-angle rotation give
    irrational entries, which this oracle does not cover."""
    out = {}
    if name == "cuntz2":
        c = 2 ** (hi + 1) - 1
        out[0, 0] = []
        for k in range(hi + 1):
            for w in range(2 ** k):
                v = [(2 ** g - 1 + x, 2 ** (g + k) - 1 + x * 2 ** k + w)
                     for g in range(min(big_n, hi - k) + 1) for x in range(2 ** g)]
                out[0, 0] += [(u * c + a, y * c + b, 1.0, 0.0) for u, a in v for y, b in v]
    else:
        c = 2 * hi + 1
        out = {(s, t): [] for s in range(3) for t in range(3)}
        for s in range(3):
            for k in range(-hi - big_n, hi + 1):
                v = [(g, g + k + hi) for g in range(big_n + 1) if -hi <= g + k <= hi]
                out[s, (s + k) % 3] += [(u * c + a, y * c + b, 1.0, 0.0) for u, a in v for y, b in v]
    return {key: sorted(entries) for key, entries in out.items()}


def scaled(entries: dict, factor: float) -> dict:
    """Each entry's value times ``factor``, computed in floating point."""
    return {key: [(r, c, re * factor, im * factor) for r, c, re, im in e]
            for key, e in entries.items()}


def psi_window(spec, hi):
    return FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)


@pytest.mark.parametrize("name, big_n, hi", [(name, n, n + 2) for name in ("crossed-z3", "cuntz2")
                                             for n in (2, 3, 4, 5)])
def test_psi_choi_equals_the_kraus_oracle_exactly(name, big_n, hi):
    """Psi_N on the certificate's window [0, N + 2] (two-sided for n = 1),
    assembled per degree class on cuntz2: N + 1 times every decoded entry
    equals the oracle's, with no tolerance.  The oracle's matrix is PSD by
    construction (a Gram form), so the float least eigenvalue lies within
    the rounding of an eigen-solve, side * eps * max |C|, above 0."""
    spec = build_preset(name)
    if spec.n == 1:
        unit = AMatrix.zeros(spec.algebra, 1, 1)
        unit.blocks[0][...] = 1.0
        assert [b.item() for b in spec.phi_k_direct(unit, 1).blocks] == [0, 1, 0]
    psi = factor_tables(spec, psi_window(spec, hi), big_n)[1]
    assert (psi.classes is None) == (spec.n == 1)
    got = scaled(decoded_choi_entries(psi), big_n + 1)
    assert first_difference(got, psi_choi_oracle(name, big_n, hi)) is None
    side = max(psi.domain_sides) * psi.q  # every algebra block has d = 1
    low = _choi_min_eig(psi)[0]
    assert low >= -side * np.finfo(float).eps / (big_n + 1)


@pytest.mark.parametrize("name", ["cuntz2", "crossed-z3"])
def test_psi_defects_are_named_by_the_kraus_oracle(name):
    """Two defects of Psi_N at N = 3 on the certificate's window, each named
    at its first differing entry: the Fejer weight 1/(N + 2), off by one (the
    input padded to [0, N + 1]), which changes the first entry; and the
    output scaled by 2 where both degrees exceed N, which first changes the
    first oracle entry in that corner."""
    spec, big_n, hi = build_preset(name), 3, 5
    window = psi_window(spec, hi)
    want = psi_choi_oracle(name, big_n, hi)

    def off_by_one(g):
        return psi_amplify(GradedOperator(spec, FockWindow.one_sided(big_n + 1), g.blocks), window)

    def scaled_above_n(g):
        out = psi_amplify(g, window)
        for (i, j), val in out.blocks.items():
            if i > big_n and j > big_n:
                out.blocks[i, j] = val * 2.0
        return out

    def psi_table(fn):  # Psi_N's table, as factor_tables builds it, around ``fn``
        return window_table(spec, FockWindow.one_sided(big_n), window, fn,
                            extension_classes(spec, big_n, window) if spec.n > 1 else None)

    key = next(iter(want))
    first = want[key][0]
    got = scaled(decoded_choi_entries(psi_table(off_by_one)), big_n + 1)
    weight = 1.0 / (big_n + 2) * (big_n + 1)
    assert first_difference(got, want) == (key, 0, ((*first[:2], weight, 0.0), first))

    # the window rows of degree N + 1 start at ``lo``, of c rows in all
    c, lo = (2 * hi + 1, big_n + 1 + hi) if spec.n == 1 else (2 ** (hi + 1) - 1, 2 ** (big_n + 1) - 1)
    key, i = next((key, i) for key, e in want.items() for i, (row, col, _, _) in enumerate(e)
                  if row % c >= lo and col % c >= lo)
    got = scaled(decoded_choi_entries(psi_table(scaled_above_n)), big_n + 1)
    entry = want[key][i]
    assert first_difference(got, want) == (key, i, ((*entry[:2], 2.0, 0.0), entry))
