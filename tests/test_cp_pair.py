"""A certificate's two factor-map CP checks, side by side, and the probe's
trimmed buffers.

When a map goes to the probe, ``lift._cp_pair`` runs the compression's
check in a worker thread beside Psi_N's in the calling thread, inside one
``_one_blas_thread`` block.  These tests pin that the records are those of
the serial run bit for bit, which thread runs which check, that an error
or a NaN in either check comes back intact with no thread left behind, and
the OpenBLAS thread count in both threads.  The probe draws into one reused
buffer and reuses its cells; its outputs must equal, bit for bit, those of
the form that drew and built everything afresh each trial."""

import threading

import numpy as np
import pytest

from pimsner_lab import hilbert_mod, lift
from pimsner_lab.cli import main
from pimsner_lab.fock import FockWindow
from pimsner_lab.hilbert_mod import CHOI_CAP
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import build_preset

needs_openblas = pytest.mark.skipif(
    "openblas" not in str(getattr(np.__config__, "CONFIG", {})
                          .get("Build Dependencies", {}).get("blas", {})).lower(),
    reason="numpy is not built against OpenBLAS")


def certificate_tables(name: str, big_n: int):
    """The two factor maps of ``certificate --preset name --N big_n``, on its
    default window [0, N + 2] (two-sided for n = 1)."""
    spec = build_preset(name)
    hi = big_n + 2
    window = FockWindow.two_sided_sym(hi) if spec.n == 1 else FockWindow.one_sided(hi)
    return factor_tables(spec, window, big_n)[:2]


@pytest.fixture(autouse=True)
def cpus(monkeypatch):
    """Two CPUs are ours, as ``os.sched_getaffinity`` reports them to the
    pair, on any machine; ``cpus(1)`` makes the pair serial.  Undone when
    the test ends."""
    def patch(n):
        monkeypatch.setattr(lift.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    patch(2)
    return patch


@pytest.fixture
def checks(monkeypatch):
    """Each CP check the pair runs, as {"phi" or "psi": (method, on the main
    thread, the OpenBLAS thread counts read as it starts and as it ends)};
    keyed by map, since the two may end in either order.  phi reads a
    corner, psi its whole domain."""
    seen = {}
    get = (hilbert_mod._openblas_threads() or (lambda: None,))[0]

    def spying(method, check):
        def spy(table, *args, **kwargs):
            on_main, first = threading.current_thread() is threading.main_thread(), get()
            try:
                return check(table, *args, **kwargs)
            finally:
                seen["phi" if table.restricted else "psi"] = (method, on_main, (first, get()))
        return spy

    monkeypatch.setattr(hilbert_mod, "choi_cp_check",
                        spying("choi", hilbert_mod.choi_cp_check))
    monkeypatch.setattr(hilbert_mod, "positivity_probe",
                        spying("probe", hilbert_mod.positivity_probe))
    return seen


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs (they still start)."""
    out, start = [], threading.Thread.start

    def spy(self):
        out.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return out


# ---------------------------------------------------------------------------
# the records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, big_n, cap", [
    ("twisted2", 4, CHOI_CAP),
    ("cuntz2", 2, 10), ("cuntz2", 3, 10),
    ("crossed-z3", 2, 10), ("crossed-z3", 3, 10),
    ("rotation-m2", 2, 10), ("rotation-m2", 3, 10),
])
def test_pair_records_equal_the_serial_run_bit_for_bit(cpus, checks, name, big_n, cap):
    """Every field of both CP records, compared by ``repr`` (each float's
    exact shortest repr, -0.0 apart from 0.0), equals that of the run on one
    CPU, where the two checks run one after the other in this thread."""
    phi, psi = certificate_tables(name, big_n)
    side_by_side = lift._cp_pair(phi, psi, cap, 0)
    assert checks["phi"][:2] == ("probe", False) and checks["psi"][:2] == ("probe", True)
    cpus(1)
    serial = lift._cp_pair(phi, psi, cap, 0)
    assert checks["phi"][:2] == ("probe", True) and checks["psi"][:2] == ("probe", True)
    assert repr(side_by_side) == repr(serial)
    assert all(rep.passed and rep.contractive for rep in side_by_side)


def test_pair_is_serial_where_the_os_reports_no_affinity(monkeypatch, checks, started):
    """Off Linux, with no ``os.sched_getaffinity``, the CPUs that are ours
    are unknown: the pair runs serially, in this thread."""
    monkeypatch.delattr(lift.os, "sched_getaffinity")
    phi, psi = certificate_tables("cuntz2", 2)
    assert all(rep.passed for rep in lift._cp_pair(phi, psi, 10, 0))
    assert checks["phi"][:2] == checks["psi"][:2] == ("probe", True)
    assert started == []


def test_pair_records_are_those_of_cp_check_auto():
    """The pair seeds phi's check with seed + 1 and psi's with seed + 2, as
    the certificate did when it called ``cp_check_auto`` twice."""
    phi, psi = certificate_tables("cuntz2", 2)
    pair = lift._cp_pair(phi, psi, 10, 5)
    alone = (hilbert_mod.cp_check_auto(phi, choi_cap=10, seed=6),
             hilbert_mod.cp_check_auto(psi, choi_cap=10, seed=7))
    assert repr(pair) == repr(alone)


# ---------------------------------------------------------------------------
# which thread runs which check
# ---------------------------------------------------------------------------

def test_probe_pair_checks_the_compression_off_the_main_thread(tmp_path, checks, started):
    """twisted2 at N = 4 (Choi side 7,874 > 4,096): one worker thread, which
    runs the compression's probe; Psi_N's runs in the caller.  The worker is
    gone when ``main`` returns."""
    before = threading.active_count()
    args = ["certificate", "--preset", "twisted2", "--N", "4", "--out", str(tmp_path / "c.json")]
    assert main(args) == 0
    assert checks == {"phi": ("probe", False, checks["phi"][2]),
                      "psi": ("probe", True, checks["psi"][2])}
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("args", [
    ["certificate", "--preset", "twisted2", "--N", "2..3"],
    ["report", "--preset", "crossed-z3"],
], ids=["certificate-twisted2-choi", "report-crossed-z3"])
def test_choi_pairs_start_no_thread(tmp_path, checks, started, args):
    """When both maps use Choi, both checks run on the main thread, and the
    run starts no thread at all."""
    assert main(args + ["--out", str(tmp_path / "r.json")]) == 0
    assert checks["phi"][:2] == checks["psi"][:2] == ("choi", True)
    assert started == []


# ---------------------------------------------------------------------------
# errors and NaN come back intact
# ---------------------------------------------------------------------------

def planted_raise(monkeypatch, in_phi: bool):
    """``_probe_outputs`` that raises for one map, from a function named
    ``planted_probe_fault``, and runs as it does for the other."""
    original = hilbert_mod._probe_outputs

    def planted_probe_fault(table, *args):
        if table.restricted == in_phi:
            raise RuntimeError("planted in the probe")
        return original(table, *args)

    monkeypatch.setattr(hilbert_mod, "_probe_outputs", planted_probe_fault)


@pytest.mark.parametrize("in_phi", [True, False], ids=["worker-raises", "caller-raises-first"])
def test_a_raise_in_either_probe_exits_three_and_leaves_no_thread(
        monkeypatch, tmp_path, capsys, in_phi):
    """A raise in the compression's probe, in the worker, reaches ``main``
    with the traceback of the planted function.  A raise in Psi_N's, in the
    caller, comes while the worker still runs its probe: the worker is joined
    before the error goes on.  Either way exit 3 and no extra thread."""
    planted_raise(monkeypatch, in_phi)
    before = threading.active_count()
    args = ["certificate", "--preset", "twisted2", "--N", "4", "--out", str(tmp_path / "c.json")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "RuntimeError: planted in the probe" in err and "planted_probe_fault" in err
    assert threading.active_count() == before


@pytest.mark.parametrize("in_phi", [True, False], ids=["phi-worker", "psi-caller"])
def test_a_nan_in_one_probe_output_exits_one(monkeypatch, tmp_path, checks, in_phi):
    """One NaN in the first output of one map's probe, twisted2 at N = 4: the
    record from that thread fails the certificate (exit 1, never 0 or 3)."""
    original = hilbert_mod._probe_outputs

    def planted(table, *args):
        for i, out in enumerate(original(table, *args)):
            if i == 0 and table.restricted == in_phi:
                out = out.copy()
                out[0, 0] = np.nan
            yield out

    monkeypatch.setattr(hilbert_mod, "_probe_outputs", planted)
    args = ["certificate", "--preset", "twisted2", "--N", "4", "--out", str(tmp_path / "c.json")]
    assert main(args) == 1
    assert checks["phi"][:2] == ("probe", False)


# ---------------------------------------------------------------------------
# one BLAS thread in both threads
# ---------------------------------------------------------------------------

@needs_openblas
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_pair_runs_one_blas_thread_in_both_threads(monkeypatch, raises):
    """The OpenBLAS count reads 1 inside both checks, in the worker and in
    the caller, from start to end; afterwards the caller's count is back,
    also on a raise in the worker.  The checks are put in the order in which
    a count that only the checks themselves set would leak: the caller's
    starts once the worker's is under way (and the planted raise waits for
    it), and ends once the worker's ``cp_check_auto`` has returned,
    restoring the count it found."""
    get, set_ = hilbert_mod._openblas_threads()
    phi, psi = certificate_tables("twisted2", 4)
    (phi_in, psi_in, phi_out), counts = [threading.Event() for _ in range(3)], {}
    check, probe = lift.cp_check_auto, hilbert_mod.positivity_probe

    def ordered_check(table, *args, **kwargs):
        if table.restricted:
            try:
                return check(table, *args, **kwargs)
            finally:
                phi_out.set()
        assert phi_in.wait(60)
        return check(table, *args, **kwargs)

    def counted_probe(table, *args):
        name, first = "phi" if table.restricted else "psi", get()
        (phi_in if table.restricted else psi_in).set()
        try:
            if raises and table.restricted and psi_in.wait(60):
                raise RuntimeError("planted in the probe")
            return probe(table, *args)
        finally:
            assert table.restricted or phi_out.wait(60)
            counts[name] = (first, get())

    monkeypatch.setattr(lift, "cp_check_auto", ordered_check)
    monkeypatch.setattr(hilbert_mod, "positivity_probe", counted_probe)
    before = get()
    try:
        set_(2)
        if raises:
            with pytest.raises(RuntimeError, match="planted in the probe"):
                lift._cp_pair(phi, psi, CHOI_CAP, 0)
        else:
            lift._cp_pair(phi, psi, CHOI_CAP, 0)
        assert counts == {"phi": (1, 1), "psi": (1, 1)}
        assert get() == 2
    finally:
        set_(before)


# ---------------------------------------------------------------------------
# the probe's trimmed buffers
# ---------------------------------------------------------------------------

def fresh_probe_outputs(table, k: int, trials: int, seed: int):
    """The probe's outputs as they were formed before its buffers were
    trimmed: a (2, m k, m k) normal draw, new cells and a new element each
    trial, every part split from the image while it is alive."""
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        cells = []
        for s, m in enumerate(table.domain_sides):
            rows = table._flat_reads[s]
            r = rows.size
            draw = rng.standard_normal((2, m * k, m * k))
            zr = np.empty((m * k, k * r), dtype=complex)
            zr.real, zr.imag = draw[..., (np.arange(k)[:, None] * m + rows).ravel()]
            x = zr.conj().T @ zr / (m * k)
            cell = np.zeros((k * k, m, m), dtype=complex)
            cell[:, rows[:, None], rows] = \
                x.reshape(k, r, k, r).transpose(0, 2, 1, 3).reshape(k * k, r, r)
            cells.append(cell)
        out = table.apply(hilbert_mod.AMatrix.from_flat(table.spec, table.p, table.p, cells))
        for t in range(table.spec.n_blocks):
            flat = out.flatten_block(t)
            c = flat.shape[-1]
            yield flat.reshape(k, k, c, c).transpose(0, 2, 1, 3).reshape(k * c, k * c).copy()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["twisted2", "crossed-z3", "rotation-m2"])
def test_probe_outputs_equal_the_fresh_form_and_are_copies(name, k):
    """Both factor maps at N = 2, three trials, collected into one list: each
    output equals the fresh form's bit for bit.  The compression's image is a
    view of the reused cells, so an output that were not a copy would be
    overwritten by the next trial (at k = 1 the split itself is a view)."""
    for table in certificate_tables(name, 2):
        got = list(hilbert_mod._probe_outputs(table, k, 3, 7))
        want = list(fresh_probe_outputs(table, k, 3, 7))
        assert len(got) == len(want) == 3 * table.spec.n_blocks
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
