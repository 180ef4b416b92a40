"""Non-finite numbers: a NaN or infinity in a matrix, a map's output or a
config never passes a verdict, never crashes, and never reaches a report.

Every ordered comparison with NaN is False, so each verdict here reads
``x <= tol`` and each running minimum or maximum is folded with numpy's
NaN-carrying ``minimum``/``maximum``.  A run with a NaN plant exits 1 (a
failing verdict) or 2 (a config refused), never 0 or 3, and any report it
writes parses with every JSON constant (NaN, Infinity) refused."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pimsner_lab
from pimsner_lab import expectation, fock, lift
from pimsner_lab.cli import ReportBundle, main, serialize
from pimsner_lab.fock import FockWindow
from pimsner_lab.hilbert_mod import (
    AMatrix,
    LinearMapTable,
    _dense_min_eig,
    _hermitian_min_eig,
    _sparse_hermitian_min_eig,
    choi_cp_check,
    positivity_probe,
    tol_grid,
)
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import build_preset, load_config
from pimsner_lab.star_core import AlgebraSpec, ConfigurationError, DEFAULT_TOL, Tolerances

SRC = Path(pimsner_lab.__file__).parent


def strict_loads(text: str):
    """``json.loads`` that refuses the constants NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"JSON constant {constant} in a report")
    return json.loads(text, parse_constant=refuse)


def no_lapack(monkeypatch):
    """Make every LAPACK entry point the CP checks use raise."""
    def boom(*args, **kwargs):
        raise AssertionError("LAPACK called on non-finite input")
    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    monkeypatch.setattr(np.linalg, "cholesky", boom)


# ---------------------------------------------------------------------------
# the eigen kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("bound", [np.inf, 0.5])
def test_isolated_diagonal_entry_reads_nan(monkeypatch, bad, bound):
    """diag(1, bad, 2): three 1 x 1 components.  A builtin ``min(bound,
    nan)`` kept the bound and dropped the finite minimum 1 with the NaN."""
    no_lapack(monkeypatch)
    mat = np.diag([1.0, 0.0, 2.0]).astype(complex)
    mat[1, 1] = bad
    low, dev = _hermitian_min_eig(mat, bound)
    assert np.isnan(low) and np.isnan(dev)


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_of_a_component_reads_nan(monkeypatch, where, bad):
    """A non-finite entry inside a dense component, on or off the diagonal,
    gives NaN from both kernels before any Cholesky screen or eigen-solve."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = z @ z.conj().T
    mat[where] = bad
    no_lapack(monkeypatch)
    for low in (np.inf, 0.25):
        assert all(np.isnan(_hermitian_min_eig(mat, low)))
        assert all(np.isnan(_dense_min_eig(mat, low)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("where", ["lone", "diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("bound", [np.inf, 0.5])
def test_sparse_kernel_non_finite_entry_reads_nan(monkeypatch, where, bad, bound):
    """Triples of a 6-row matrix: rows 0 and 5 alone, rows 1..4 one
    component.  A non-finite entry in a 1 x 1 component, or on or off the
    diagonal of the larger one, reads NaN for both, with no LAPACK call."""
    no_lapack(monkeypatch)
    row = np.array([0, 1, 2, 1, 2, 3, 4, 3, 4, 5, 2])
    col = np.array([0, 1, 2, 2, 1, 3, 4, 4, 3, 5, 3])
    val = np.array([1, 2, 2, 0.5, 0.5, 3, 3, 1j, -1j, 4, 0.25], dtype=complex)
    val[{"lone": 9, "diagonal": 5, "off-diagonal": 10}[where]] = bad
    low, dev = _sparse_hermitian_min_eig(row, col, val, 6, bound)
    assert np.isnan(low) and np.isnan(dev)


def test_nan_running_minimum_is_carried():
    """A NaN bound stays NaN through a finite matrix."""
    mat = np.diag([1.0, 2.0]).astype(complex)
    assert np.isnan(_hermitian_min_eig(mat, np.nan)[0])
    assert np.isnan(_dense_min_eig(mat, np.nan)[0])


def test_tol_grid_writes_non_finite_values_as_null():
    for value in (np.nan, np.inf, -np.inf):
        assert tol_grid(value, DEFAULT_TOL.psd_tol) is None
    assert tol_grid(-1e-20, DEFAULT_TOL.psd_tol) == 0.0


def test_serialize_refuses_nan():
    """A NaN that escapes every verdict is an internal error, not a report."""
    bundle = ReportBundle("validate", {}, 0, suites={"x": {"dev": float("nan"), "pass": False}})
    with pytest.raises(ValueError):
        serialize(bundle, "json", None)


# ---------------------------------------------------------------------------
# CP checks
# ---------------------------------------------------------------------------

def nan_corner_table():
    """Phi(x) = diag(x_11, x_22) on M_2(C), except that a nonzero x_22 maps
    to NaN: its Choi matrix is diagonal, diag(1, 0, 0, NaN), so the NaN sits
    on an isolated diagonal entry, and Phi(1) = diag(1, NaN)."""
    spec = AlgebraSpec((1,))

    def apply(x, row):
        b = x.blocks[0]
        out = np.zeros_like(b)
        out[..., 0, 0, :, :] = b[..., 0, 0, :, :]
        out[..., 1, 1, :, :] = np.where(b[..., 1, 1, :, :] != 0, np.nan, 0)
        return AMatrix(spec, 2, 2, [out])

    return LinearMapTable(spec, 2, 2, apply)


def assert_fails_and_serializes(rep):
    assert rep.passed is False
    text = json.dumps(rep.to_dict(), allow_nan=False)
    assert strict_loads(text)["pass"] is False


def test_choi_check_with_a_nan_on_an_isolated_diagonal_entry_fails():
    """Before, the NaN was dropped and the check read min_eig = inf, a pass."""
    rep = choi_cp_check(nan_corner_table())
    assert np.isnan(rep.min_eigenvalue)
    assert rep.to_dict()["min_eig"] is None
    # Phi(1) holds the NaN: no SVD is run on it, and the map is no contraction
    assert np.isnan(rep.norm_bound) and rep.contractive is False
    assert_fails_and_serializes(rep)


def plant_nan(table, when, where=(0, 0, 0, 0, 0)):
    """``table`` with one NaN written into its output on the applications
    for which ``when(x, row)`` holds."""
    def apply(x, row):
        out = table.apply(x, row)
        if when(x, row):
            out.blocks[0][where] = np.nan
        return out
    return LinearMapTable(table.spec, table.p, table.q, apply, reads=table.reads)


@pytest.mark.parametrize("where", [(0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 3, 0, 0, 0)],
                         ids=["diagonal", "off-diagonal", "off-diagonal-cell"])
def test_probe_with_a_nan_in_one_output_fails(where):
    """One NaN in the first probe trial's image under Psi_N, twisted2 at
    N = 2 (a k^2 = 4 stack): before, LAPACK raised "Eigenvalues did not
    converge", an internal error.  Phi(1) is left finite."""
    spec = build_preset("twisted2")
    _, psi, _ = factor_tables(spec, FockWindow.one_sided(4), 2)
    calls = []

    def first_trial(x, row):
        calls.append(x.stack_shape)
        return x.stack_shape == (4,) and calls.count((4,)) == 1

    rep = positivity_probe(plant_nan(psi, first_trial, where), trials=3, seed=2)
    assert np.isnan(rep.min_eigenvalue) and np.isnan(rep.hermitian_dev)
    assert rep.contractive is True
    assert_fails_and_serializes(rep)


def test_choi_check_with_a_nan_in_one_basis_image_fails():
    """A NaN in the images of the units in the first block row, Psi_N of
    twisted2 at N = 2, through the exact check."""
    spec = build_preset("twisted2")
    _, psi, _ = factor_tables(spec, FockWindow.one_sided(4), 2)
    rep = choi_cp_check(plant_nan(psi, lambda x, row: row == 0))
    assert np.isnan(rep.min_eigenvalue)
    assert_fails_and_serializes(rep)


# ---------------------------------------------------------------------------
# the CLI under a NaN plant in Psi_N
# ---------------------------------------------------------------------------

def planted_psi_amplify(on_band: bool):
    """``fock.psi_amplify`` with one NaN added to its output: in its first
    block (on the generator's band in the Schur suite), or in a new block
    (0, window.hi), off every band the suites use."""
    original = fock.psi_amplify

    def psi_amplify(x, window):
        out = original(x, window)
        if on_band:
            key = min(out.blocks)
            blk = out.blocks[key].copy()
        else:
            key = (0, window.hi)
            blk = AMatrix.zeros(x.spec.algebra, *out._shape_of(*key))
        blk.blocks[0][..., 0, 0, 0, 0] = np.nan
        out.blocks[key] = blk
        return out

    return psi_amplify


@pytest.mark.parametrize("on_band", [True, False], ids=["on-band", "off-band"])
@pytest.mark.parametrize("args", [
    ["schur", "--preset", "cuntz2", "--N", "2", "--format", "json"],
    ["schur", "--preset", "twisted2", "--N", "2", "--format", "json"],
    ["certificate", "--preset", "twisted2", "--N", "2"],
], ids=["schur-cuntz2", "schur-twisted2", "certificate-twisted2"])
def test_nan_in_psi_n_exits_one(monkeypatch, tmp_path, capsys, args, on_band):
    """Before, ``schur`` exited 0 with ``"pass": true`` and NaN in its JSON,
    and ``certificate`` exited 3 from an SVD of the NaN."""
    planted = planted_psi_amplify(on_band)
    monkeypatch.setattr(fock, "psi_amplify", planted)
    monkeypatch.setattr(lift, "psi_amplify", planted)
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 1
    assert "violation" in capsys.readouterr().err
    if out.exists():
        assert strict_loads(out.read_text())["pass"] is False


# ---------------------------------------------------------------------------
# the lift and expectation suites under a NaN plant
# ---------------------------------------------------------------------------

def with_nan(mat: AMatrix) -> AMatrix:
    """A copy of ``mat`` with a NaN at the first entry of its last algebra
    block, where a fold over the blocks meets it after the finite ones."""
    out = mat.copy()
    out.blocks[-1][..., 0, 0, 0, 0] = np.nan
    return out


def run_planted(tmp_path, args):
    """Run the CLI; it must exit 1, and its report must parse strictly."""
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 1
    return strict_loads(out.read_text())


def test_nan_in_the_lifted_generator_fails_lift_check(monkeypatch, tmp_path):
    """A NaN in the last block of eps-hat of the lifted generator, an offset
    at or above every compact level: before, the running maximum dropped it
    after the finite offsets, ``dev > eq_tol`` left it out of the support,
    and lift-check exited 0 with every case passing."""
    original = lift.eps_hat_graded

    def planted(ctx, blocks, window):
        out = original(ctx, blocks, window)
        key = max(out.blocks)
        out.blocks[key] = with_nan(out.blocks[key])
        return out

    monkeypatch.setattr(lift, "eps_hat_graded", planted)
    doc = run_planted(tmp_path, ["lift-check", "--preset", "twisted2"])
    cases = doc["suites"]["lift_check"]["defect"]["cases"]
    assert cases and all(c["max_dev_at_or_above_i"] is None and not c["pass"] for c in cases)
    assert all(c["support"][-1] == 5 - max(c["r"], c["s"]) for c in cases)


def test_nan_in_the_compressed_bilateral_band_fails_lift_check(monkeypatch, tmp_path):
    """crossed-z3: a NaN in the last block of the bilateral lift's
    compression, on the one-sided band, reads band_dev null and fails."""
    original = lift.compress

    def planted(x, big_n):
        out = original(x, big_n)
        key = max(out.blocks)
        out.blocks[key] = with_nan(out.blocks[key])
        return out

    monkeypatch.setattr(lift, "compress", planted)
    doc = run_planted(tmp_path, ["lift-check", "--preset", "crossed-z3"])
    cases = doc["suites"]["lift_check"]["bimodule_lift"]["cases"]
    assert cases and all(c["band_dev"] is None and not c["pass"] for c in cases)


@pytest.mark.parametrize("preset", ["twisted2", "crossed-z3"])
def test_nan_in_ex_k_fails_expectation(monkeypatch, tmp_path, preset):
    """A NaN in Ex_k's output from its fifth call on, after a finite first
    sample of every axiom: before, the builtin folds dropped it (exit 0 at
    first, then exit 3 once the Schwarz minimum read NaN and the fold kept
    its starting infinity).  Every sampled axiom now reads null and fails;
    the CP check, on the table's own Ex_k, still passes."""
    original, calls = expectation.ex_k, []

    def planted(spec, k, x):
        calls.append(k)
        out = original(spec, k, x)
        return with_nan(out) if len(calls) > 4 else out

    monkeypatch.setattr(expectation, "ex_k", planted)
    doc = run_planted(tmp_path, ["expectation", "--preset", preset])
    for level in doc["suites"]["expectation"]["levels"].values():
        axioms = level["axioms"]
        assert not level["pass"] and axioms["cp"]["pass"]
        assert [axioms[a].get("max_dev", axioms[a].get("min_eig"))
                for a in ("idempotence", "bimodule", "schwarz", "tower")] == [None] * 4
        assert not any(axioms[a]["pass"] for a in ("idempotence", "bimodule", "schwarz", "tower"))


def test_nan_in_the_last_algebra_block_reads_nan(monkeypatch):
    """max_abs and norm over A = C + C (twisted2) with the NaN only in the
    second block: before, the builtin max over the blocks kept the first
    block's finite value.  norm gives no SVD a non-finite matrix."""
    spec = build_preset("twisted2")
    mat = with_nan(spec.sample_vector(2, 5))
    assert np.isfinite(mat.blocks[0]).all()
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: pytest.fail("SVD of a NaN"))
    assert np.isnan(mat.max_abs()) and np.isnan(mat.norm())
    assert np.isnan((mat @ mat.adjoint()).min_eig())


def test_nan_in_an_inverse_automorphism_fails_validate():
    """The second automorphism's inverse writes a NaN into the last algebra
    block: the automorphism check follows three finite deviations and must
    read NaN, and name itself among the failing checks."""
    spec = build_preset("twisted2")

    class NanInverse:
        def __init__(self, al):
            self.al = al

        def apply(self, x):
            return with_nan(self.al.apply(x))

    class Planted:
        def __init__(self, al):
            self.al = al

        def apply(self, x):
            return self.al.apply(x)

        def inverse(self):
            return NanInverse(self.al.inverse())

    spec.alphas = (spec.alphas[0], Planted(spec.alphas[1]))
    rep, violated = spec._validate(seed=11)
    assert np.isnan(rep["checks"]["automorphisms"])
    assert list(violated) == ["automorphisms"]


# ---------------------------------------------------------------------------
# configs with non-finite numbers
# ---------------------------------------------------------------------------

SWAP_N2 = {"block_dims": [1], "n": 2, "unitary": [[[0, 1], [1, 0]]],
           "alphas": [{"perm": [0]}, {"perm": [0]}]}
ROTATION_M2 = {"block_dims": [2], "n": 1,
               "alphas": [{"perm": [0], "unitaries": [[[0, -1], [1, 0]]]}]}


def config_with(bad):
    """Configs that validate when ``bad`` is 0, with that leaf replaced by
    ``bad``: in ``unitary``, in ``alphas[].unitaries``, and as the imaginary
    part of an [re, im] pair."""
    return [
        dict(SWAP_N2, unitary=[[[bad, 1], [1, 0]]]),
        dict(ROTATION_M2, alphas=[{"perm": [0], "unitaries": [[[bad, -1], [1, 0]]]}]),
        dict(SWAP_N2, unitary=[[[[0, bad], [1, 0]], [[1, 0], [0, 0]]]]),
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "NaN", "Infinity"],
                         ids=["NaN", "Infinity", "-Infinity", "string-NaN", "string-Infinity"])
def test_non_finite_config_number_exits_two(tmp_path, capsys, bad):
    """json.dumps writes the floats as the literals NaN, Infinity and
    -Infinity, which Python's json reads back; before, they exited 3."""
    cfg = tmp_path / "c.json"
    for config in config_with(0):
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
    for config in config_with(bad):
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config")


FUZZ_BASE = {"block_dims": [1, 2], "n": 2, "max_degree": 3, "name": "fuzz",
             "unitary": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[0, 1], [1, 0]]],
             "alphas": [{"perm": [0, 1]},
                        {"perm": [0, 1], "unitaries": [[[1]], [[0, -1], [1, 0]]]}]}


def json_paths(value, path=()):
    """The path (keys and list indices) of every value in a JSON document,
    the root's members and every nested one."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = value
    return doc


JSON_VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.floats(-4, 4),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(path=st.sampled_from(list(json_paths(FUZZ_BASE))), value=JSON_VALUES)
def test_fuzzed_config_exits_zero_one_or_two_never_three(tmp_path_factory, path, value):
    """A valid config with the value at one path replaced by a number, a
    non-finite number, a string, a list, an object or null.  ``validate``
    exits 2 exactly when the loader refuses the config, never 3; an exit 0
    is a passing validate, and an exit 1 one that names a failing axiom
    (a replaced entry of U can leave it a well-formed matrix that is not
    unitary)."""
    work = tmp_path_factory.mktemp("fuzz")
    cfg, out = work / "c.json", work / "v.json"
    cfg.write_text(json.dumps(replaced(FUZZ_BASE, path, value)))
    code = main(["validate", "--config", str(cfg), "--out", str(out)])
    try:
        spec = load_config(str(cfg))
    except ConfigurationError:
        assert code == 2
        return
    _, violated = spec._validate(seed=11)
    assert code == (1 if violated else 0)
    if code == 0:
        assert strict_loads(out.read_text())["pass"] is True


def test_fuzz_base_config_validates(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(FUZZ_BASE))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0


# ---------------------------------------------------------------------------
# an AST guard: no verdict or fold in src/ that a NaN passes
# ---------------------------------------------------------------------------

TOL_FIELDS = {f.name for f in dataclasses.fields(Tolerances)}
# an identifier that names a deviation, an error or a running extreme
DEVIATION = re.compile(r"(^|_)(dev|devs|err|error|errors|worst|resid|low|eig)(_|$)")


def _is_tol(node) -> bool:
    """DEFAULT_TOL.<field>, <x>.tol.<field>, or a local named like a field."""
    if isinstance(node, ast.Name):
        return node.id in TOL_FIELDS
    return isinstance(node, ast.Attribute) and node.attr in TOL_FIELDS and (
        isinstance(node.value, ast.Name) and node.value.id == "DEFAULT_TOL"
        or isinstance(node.value, ast.Attribute) and node.value.attr == "tol")


def nan_unsafe_sites(source: str) -> list:
    """The line numbers of the sites that let a NaN through.

    * A builtin ``max`` or ``min`` whose arguments name a deviation:
      ``max(worst, nan)`` is ``worst``, so a running fold drops a NaN.
    * A comparison that fails when a value is above a tolerance field,
      ``dev > DEFAULT_TOL.eq_tol`` (or ``>=``, or ``tol < dev``): it is False
      for NaN.  A verdict must pass when ``dev <= tol`` instead."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("max", "min"):
            names = [n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))]
            if any(DEVIATION.search(name) for name in names):
                sites.append(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            for left, op, right in zip(sides, node.ops, sides[1:]):
                if isinstance(op, (ast.Gt, ast.GtE)) and _is_tol(right) \
                        or isinstance(op, (ast.Lt, ast.LtE)) and _is_tol(left):
                    sites.append(node.lineno)
    return sites


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_nan_passing_fold_or_verdict_in_src(module):
    assert nan_unsafe_sites((SRC / module).read_text()) == []


@pytest.mark.parametrize("planted, flagged", [
    ("worst = max(worst, dev)", True),
    ("schwarz_min = min(schwarz_min, (y - z).min_eig())", True),
    ("if dev > DEFAULT_TOL.eq_tol:\n    raise ValueError", True),
    ("ok = not (spec.tol.psd_tol < err)", True),
    ("bad = dev >= eq_tol", True),
    ("worst = float(np.max([worst, dev]))", False),
    ("if not (dev <= DEFAULT_TOL.eq_tol):\n    raise ValueError", False),
    ("ok = min_eig >= -DEFAULT_TOL.psd_tol", False),
    ("side = max(r, s)", False),
])
def test_nan_guard_flags_a_planted_site(planted, flagged):
    """Each planted line, appended to lift.py, is flagged or not."""
    source = (SRC / "lift.py").read_text() + "\n" + planted + "\n"
    assert bool(nan_unsafe_sites(source)) == flagged
