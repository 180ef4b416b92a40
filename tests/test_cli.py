"""Command-line contract: exit codes, serialization, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pimsner_lab
from pimsner_lab import cli, expectation, fock, lift
from pimsner_lab.cli import RunConfig, _parse_n_range, main, run, serialize
from pimsner_lab.correspondence import CorrespondenceSpec
from pimsner_lab.hilbert_mod import AMatrix, LinearMapTable
from pimsner_lab.star_core import ConfigurationError, SpecMismatchError
from pimsner_lab.presets import build_preset


def test_parse_n_range():
    assert _parse_n_range("2..5") == (2, 3, 4, 5)
    assert _parse_n_range("4") == (4,)
    with pytest.raises(ConfigurationError):
        _parse_n_range("5..2")
    with pytest.raises(ConfigurationError):
        _parse_n_range("abc")


def test_validate_exit_zero(tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--preset", "cuntz2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["suites"]["validate"]["pass"] is True
    assert doc["tool_version"]


def test_unknown_preset_exit_two(capsys):
    assert main(["validate", "--preset", "nope"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_config_mutual_exclusion(tmp_path):
    assert main(["validate"]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["validate", "--preset", "cuntz2", "--config", str(cfg)]) == 2


def test_bad_config_exit_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"n": 2}')
    assert main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", [
    '{"block_dims": [1], "n": 2,',            # not valid JSON
    json.dumps({"block_dims": [1], "n": 2, "max_degree": "x",
                "alphas": [{"perm": [0]}, {"perm": [0]}]}),
], ids=["invalid-json", "non-integer-max-degree"])
def test_unreadable_config_is_configuration_error(tmp_path, capsys, text):
    """A config that cannot be parsed is a configuration error (exit 2), not
    a violation (exit 1)."""
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config") and "violation" not in err


# the 2 x 2 identity with [re, im] leaves, and the 1 x 1 one
IDENTITY_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
IDENTITY_1 = [[[1, 0]]]


def two_block_config(alpha_unitaries: int, unitary_blocks: int) -> dict:
    """A = C (+) C, n = 2, with the given numbers of per-block data."""
    return {"block_dims": [1, 1], "n": 2,
            "unitary": [IDENTITY_2] * unitary_blocks,
            "alphas": [{"perm": [0, 1], "unitaries": [IDENTITY_1] * alpha_unitaries},
                       {"perm": [0, 1]}]}


@pytest.mark.parametrize("counts", [(1, 2), (3, 2), (2, 1), (2, 3)], ids=[
    "alpha-one-unitary", "alpha-three-unitaries", "unitary-one-block",
    "unitary-three-blocks"])
def test_wrong_block_count_exit_two(tmp_path, capsys, counts):
    """Per-block data comes one per algebra block: too few would crash on an
    index, too many would be dropped silently.  Both are configuration
    errors; the same config with two of each validates."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(two_block_config(2, 2)))
    assert main(["validate", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps(two_block_config(*counts)))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# a real rotation alpha on M_2 and a real swap U for n = 2, with plain-number
# leaves and with [re, im] leaves: a side of 2 is not a pair axis
ROTATION_M2 = {"block_dims": [2], "n": 1,
               "alphas": [{"perm": [0], "unitaries": [[[0, -1], [1, 0]]]}]}
ROTATION_M2_PAIRS = dict(ROTATION_M2, alphas=[
    {"perm": [0], "unitaries": [[[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]]}])
SWAP_N2 = {"block_dims": [1], "n": 2, "unitary": [[[0, 1], [1, 0]]],
           "alphas": [{"perm": [0]}, {"perm": [0]}]}
SWAP_N2_PAIRS = dict(SWAP_N2, unitary=[[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]])


@pytest.mark.parametrize("plain, pairs", [(ROTATION_M2, ROTATION_M2_PAIRS),
                                          (SWAP_N2, SWAP_N2_PAIRS)],
                         ids=["rotation-m2", "swap-n2"])
def test_config_leaves_numbers_or_pairs(tmp_path, plain, pairs):
    """A config matrix whose side is 2 reads the same with plain-number
    leaves as with [re, im] leaves: each validates with the same report."""
    reports = []
    for config in (plain, pairs):
        cfg, out = tmp_path / "c.json", tmp_path / "v.json"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["suites"]["validate"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("config", [
    dict(SWAP_N2, unitary=[[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]),
    dict(SWAP_N2, unitary=[[0, 1]]),
    dict(ROTATION_M2, alphas=[{"perm": [0], "unitaries": [[[0, -1, 0], [1, 0, 0]]]}]),
    dict(ROTATION_M2, alphas=[{"perm": [0], "unitaries": [[0, 1]]}]),
], ids=["unitary-3x3", "unitary-one-axis", "alpha-2x3", "alpha-one-axis"])
def test_config_block_of_wrong_shape_exit_two(tmp_path, capsys, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config")


# the Cuntz correspondence on A = C, which validates
CUNTZ_N2 = {"block_dims": [1], "n": 2, "alphas": [{"perm": [0]}, {"perm": [0]}]}


@pytest.mark.parametrize("config", [
    dict(CUNTZ_N2, n=2.7),
    dict(CUNTZ_N2, n=True, alphas=[{"perm": [0]}]),
    dict(CUNTZ_N2, block_dims=[1.9]),
    dict(CUNTZ_N2, alphas=[{"perm": [0.4]}, {"perm": [0]}]),
    dict(CUNTZ_N2, max_degree=2.5),
    dict(CUNTZ_N2, max_degree=-3),
], ids=["n-float", "n-bool", "block-dims-float", "perm-float",
        "max-degree-float", "max-degree-negative"])
def test_config_integers_are_not_truncated(tmp_path, capsys, config):
    """block_dims, n, perm and max_degree are JSON integers, and max_degree
    is at least 1: a float, a bool or a max_degree below 1 is a configuration
    error (exit 2), not read as a nearby integer or the default degree."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CUNTZ_N2))
    assert main(["validate", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config")


@pytest.mark.parametrize("config", [
    dict(CUNTZ_N2, alphas=[1, 2]),
    dict(CUNTZ_N2, alphas="ab"),
    dict(CUNTZ_N2, name=None),
    dict(CUNTZ_N2, name=[1, 2]),
], ids=["alphas-numbers", "alphas-string", "name-null", "name-list"])
def test_config_entries_of_the_wrong_json_type_exit_two(tmp_path, capsys, config):
    """Each ``alphas`` entry is a JSON object and ``name`` a JSON string: an
    entry that is not an object, and a name that is null or a list, is a
    configuration error (exit 2), not an internal error (exit 3) or a name
    spelled by ``str``."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config")


@pytest.mark.parametrize("config", [
    two_block_config(2, 2),
    {"block_dims": [1, 1], "n": 1, "alphas": [{"perm": [1, 0]}]},
], ids=["n2", "n1"])
def test_lift_check_skips_degrees_outside_its_windows(tmp_path, config):
    """max_degree = 1 leaves windows of degree 1: lift-check runs the two
    level-1 defect cases whose degrees fit, (1, 0) and (1, 1), and on n = 1
    the bimodule lifts of degrees up to 1, and passes."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(config, max_degree=1)))
    out = tmp_path / "l.json"
    assert main(["lift-check", "--config", str(cfg), "--out", str(out)]) == 0
    suite = json.loads(out.read_text())["suites"]["lift_check"]
    assert [(c["level"], c["i"], c["r"], c["s"]) for c in suite["defect"]["cases"]] == \
        [(1, 1, 1, 0), (1, 1, 1, 1)]
    lifts = suite.get("bimodule_lift", {"cases": []})["cases"]
    assert [(c["r"], c["s"]) for c in lifts] == \
        ([(r, s) for r in range(2) for s in range(2)] if config["n"] == 1 else [])


@pytest.mark.parametrize("args, pairs", [
    (["certificate", "--preset", "cuntz2", "--N", "1", "--M", "1"],
     [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (["report", "--preset", "rotation-m2", "--N", "1", "--M", "1"],
     [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (["certificate", "--preset", "crossed-z3", "--N", "0", "--M", "0"], [(0, 0)]),
], ids=["cuntz2-M1", "rotation-m2-report-M1", "crossed-z3-M0"])
def test_certificate_skips_pairs_outside_its_window(tmp_path, args, pairs):
    """A window of top degree M < 2 holds only the generator pairs with
    r, s <= M: the certificate lists those, as the Schur suite measures
    them, and passes."""
    out = tmp_path / "c.json"
    assert main(args + ["--out", str(out)]) == 0
    (cert,) = json.loads(out.read_text())["certificates"]
    assert [(g["r"], g["s"]) for g in cert["generators"]] == pairs


def test_certificate_seeds_generators_by_degrees(tmp_path):
    """A generator pair draws its vectors at seed + 100 (3 r + s), whatever
    pairs the window or the band keep beside it."""
    for args in (["--N", "2"], ["--N", "1", "--M", "1"], ["--N", "2", "--band", "1"]):
        out = tmp_path / "c.json"
        assert main(["certificate", "--preset", "cuntz2", "--out", str(out)] + args) == 0
        (cert,) = json.loads(out.read_text())["certificates"]
        seeds = {(g["r"], g["s"]): g["seed"] for g in cert["generators"]}
        assert (seeds[1, 0], seeds[1, 1]) == (300, 400), args


def test_lift_check_runs_each_defect_case_once():
    """Level 1 has one compact level, i = 1, and level 2 has i = 1 and 2:
    nine defect cases, none repeated."""
    suite = run("lift-check", RunConfig(spec=build_preset("twisted2"), n_values=(2,)))
    cases = [(c["level"], c["i"], c["r"], c["s"]) for c in
             suite.suites["lift_check"]["defect"]["cases"]]
    assert cases == [(level, i, r, s) for level, i in ((1, 1), (2, 1), (2, 2))
                     for r, s in ((1, 0), (1, 1), (2, 1))]


def test_corrupted_unitary_exit_one(tmp_path, capsys):
    """A single injected violation (U scaled by 2) flips exit to 1."""
    cfg = tmp_path / "bad_u.json"
    cfg.write_text(json.dumps({
        "block_dims": [1], "n": 2,
        "unitary": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]],
        "alphas": [{"perm": [0]}, {"perm": [0]}],
    }))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "violation" in capsys.readouterr().err


def test_violation_names_only_the_failing_checks(tmp_path, capsys):
    """U = diag(2, 1) over A = C breaks unitarity, unitality and
    multiplicativity; the message names those and none of the checks that
    pass (star_property reads 0, the least singular value sqrt(17))."""
    cfg = tmp_path / "diag_2_1.json"
    cfg.write_text(json.dumps({
        "block_dims": [1], "n": 2,
        "unitary": [[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "alphas": [{"perm": [0]}, {"perm": [0]}],
    }))
    assert main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in ("unitarity", "unitality", "multiplicativity"))
    assert not any(name in err for name in ("star_property", "faithfulness_min_sv",
                                            "automorphisms"))


@pytest.mark.parametrize("error", [
    SpecMismatchError("block array (1, 1, 2, 2) != (1, 1, 1, 1)"),
    np.linalg.LinAlgError("Eigenvalues did not converge"),
    ValueError("cannot reshape array of size 8 into shape (2,2,1)"),
], ids=["spec-mismatch", "linalg", "value"])
def test_internal_error_exit_three(monkeypatch, capsys, error):
    """All three errors are ValueErrors, but a crash is not a violation:
    only a ValidationError exits 1, any other exception 3."""
    def crash(cfg):
        raise error

    monkeypatch.setattr(cli, "suite_validate", crash)
    assert main(["validate", "--preset", "cuntz2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "violation" not in err


def test_broadcasting_bug_exit_three(monkeypatch, tmp_path, capsys):
    """A misplaced axis in AMatrix.__add__ raises numpy's broadcasting
    ValueError inside the Schur pipeline: a bug in the program, not a
    violation of the mathematics, so exit 3, naming the exception's type and,
    through the traceback, the function that raised it."""
    def __add__(self, other):
        return AMatrix._new(self.spec, self.rows, self.cols,
                            [a + b[..., :, None, :, :] for a, b in zip(self.blocks, other.blocks)])

    args = ["schur", "--preset", "cuntz2", "--N", "2", "--out", str(tmp_path / "s.csv")]
    assert main(args) == 0
    assert "Traceback" not in capsys.readouterr().err
    monkeypatch.setattr(AMatrix, "__add__", __add__)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: ") and "broadcast" in err
    assert "Traceback" in err and "in __add__" in err


def test_each_command_validates_once_at_the_run_seed(monkeypatch, tmp_path):
    """One validation per command, at seed --seed + 11: by the validate
    suite for validate and report, by main's gate for the other commands,
    and none at all inside run for those."""
    seeds = []
    original = CorrespondenceSpec._validate

    def spy(self, seed):
        seeds.append(seed)
        return original(self, seed)

    monkeypatch.setattr(CorrespondenceSpec, "_validate", spy)
    out = str(tmp_path / "out")
    assert main(["report", "--preset", "twisted2", "--N", "2", "--seed", "5",
                 "--out", out]) == 0
    assert seeds == [16]
    assert json.loads(Path(out).read_text())["suites"]["validate"]["pass"] is True
    seeds.clear()
    assert main(["validate", "--preset", "twisted2", "--out", out]) == 0
    assert seeds == [11]
    seeds.clear()
    assert main(["schur", "--preset", "cuntz2", "--N", "2", "--seed", "3",
                 "--out", out]) == 0
    assert seeds == [14]
    seeds.clear()
    run("schur", RunConfig(spec=build_preset("cuntz2"), n_values=(2,)))
    assert seeds == []


def test_window_too_small_exit_two(capsys):
    assert main(["schur", "--preset", "cuntz2", "--N", "5", "--M", "3"]) == 2
    assert "window" in capsys.readouterr().err


def test_schur_draws_and_builds_each_generator_once(monkeypatch):
    """twisted2 at N = 2..5, band 3: 16 generator pairs, each drawn (mu and
    nu) and its band built once per run and shared by every N, where a draw
    and a band per (N, r, s) made 128 draws and 64 bands."""
    cfg = RunConfig(spec=build_preset("twisted2"))
    draws, bands, band_ops = [], [], []
    sample_vector, toeplitz_op, band_op = (CorrespondenceSpec.sample_vector,
                                           fock.toeplitz_op, fock.band_op)

    def spy_draw(spec, degree, seed):
        draws.append((degree, seed))
        return sample_vector(spec, degree, seed)

    def spy_band(spec, mu, nu, window, r, s):
        bands.append((r, s, window))
        return toeplitz_op(spec, mu, nu, window, r, s)

    def spy_band_op(*args):
        band_ops.append(args[2:4])
        return band_op(*args)

    monkeypatch.setattr(CorrespondenceSpec, "sample_vector", spy_draw)
    monkeypatch.setattr(fock, "toeplitz_op", spy_band)
    monkeypatch.setattr(fock, "band_op", spy_band_op)
    _, rows = cli.suite_schur(cfg)
    assert len(draws) == 32 and len(set(draws)) == 32
    assert sorted((r, s) for r, s, _ in bands) == [(r, s) for r in range(4) for s in range(4)]
    assert {w for _, _, w in bands} == {cfg.window_for(5)}
    assert len(band_ops) == 16
    assert [(row.N, row.r, row.s) for row in rows] == sorted((row.N, row.r, row.s) for row in rows)


@pytest.mark.parametrize("extra", [[], ["--M", "7"], ["--band", "1"]],
                         ids=["default", "M7", "band1"])
@pytest.mark.parametrize("preset", ["twisted2", "crossed-z3"])
def test_schur_rows_equal_those_of_single_n_runs(tmp_path, preset, extra):
    """The rows of one run over N = 2..5 are, byte for byte, those of the
    four runs at one N each, in N order."""
    def rows(n_range):
        out = tmp_path / "s.csv"
        assert main(["schur", "--preset", preset, "--N", n_range, "--out", str(out)] + extra) == 0
        return out.read_text().splitlines()[1:]

    assert rows("2..5") == [line for big_n in (2, 3, 4, 5) for line in rows(str(big_n))]


def test_schur_checks_every_window_before_any_work(monkeypatch, capsys):
    """N = 9..20 on twisted2 (max_degree 12): the first window that does not
    fit, N = 11, is the error, and no generator is drawn."""
    def refuse(*args):
        raise AssertionError("a generator drawn before every window was checked")

    monkeypatch.setattr(CorrespondenceSpec, "sample_vector", refuse)
    with pytest.raises(ConfigurationError, match="window_m=13 exceeds max_degree=12"):
        cli.suite_schur(RunConfig(spec=build_preset("twisted2"), n_values=tuple(range(9, 21))))


@pytest.mark.parametrize("preset, n_range", [("crossed-z3", "2..5"), ("cuntz2", "2..4"),
                                             ("twisted2", "2..3")])
def test_certificate_draws_and_builds_each_generator_once(monkeypatch, preset, n_range):
    """certificate over an N range: its 6 generator pairs are each drawn (mu
    and nu) and their bands built once per run, on the widest window, where
    a draw and a band per (N, r, s) made one per certificate."""
    n_values = _parse_n_range(n_range)
    cfg = RunConfig(spec=build_preset(preset), n_values=n_values)
    draws, band_ops = [], []
    sample_vector, band_op = CorrespondenceSpec.sample_vector, fock.band_op

    def spy_draw(spec, degree, seed):
        draws.append((degree, seed))
        return sample_vector(spec, degree, seed)

    def spy_band_op(spec, x, r, s, window):
        band_ops.append((r, s, window))
        return band_op(spec, x, r, s, window)

    monkeypatch.setattr(CorrespondenceSpec, "sample_vector", spy_draw)
    monkeypatch.setattr(fock, "band_op", spy_band_op)
    _, certs = cli.suite_certificate(cfg, "2026-01-01")
    pairs = [(r, s) for r in range(3) for s in range(3)][:6]
    assert len(draws) == 12 and len(set(draws)) == 12
    assert band_ops == [(r, s, cfg.window_for(n_values[-1])) for r, s in pairs]
    assert [c.N for c in certs] == list(n_values)
    assert all([(g.r, g.s) for g in c.generators] == pairs for c in certs)


@pytest.mark.parametrize("preset, n_range", [("crossed-z3", "2..5"), ("cuntz2", "2..4"),
                                             ("twisted2", "2..3")])
def test_certificates_equal_those_of_single_n_runs(tmp_path, preset, n_range):
    """The certificates of one run over an N range are, byte for byte, those
    of the runs at one N each, in N order."""
    def certificates(n_text):
        out = tmp_path / "c.json"
        assert main(["certificate", "--preset", preset, "--N", n_text, "--out", str(out)]) == 0
        return [json.dumps(c) for c in json.loads(out.read_text())["certificates"]]

    assert certificates(n_range) == [c for big_n in _parse_n_range(n_range)
                                     for c in certificates(str(big_n))]


@pytest.mark.parametrize("flag", ["--seed", "--band", "--choi-cap"])
def test_negative_seed_or_band_exit_two(capsys, flag):
    """A negative seed would reach numpy's seeding as a ValueError (read as a
    violation), a negative band would pass with no Schur rows at all, and a
    negative Choi cap would send every map to the probe."""
    assert main(["schur", "--preset", "cuntz2", "--N", "2", flag, "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative" in err
    with pytest.raises(ConfigurationError):
        RunConfig(spec=build_preset("cuntz2"), **{flag[2:].replace("-", "_"): -1})


# ---------------------------------------------------------------------------
# defects that must be caught: each corrupts one map and must turn a passing
# run into a violation (exit 1), never a crash (exit 3)
# ---------------------------------------------------------------------------

def test_defect_beta_inverse_replaced_by_beta_exit_one(monkeypatch, tmp_path):
    """beta^-1 := beta on every n = 1 spec: the bilateral band's negative
    offsets, checked against Ex_{-k}, must fail lift-check."""
    post_init = CorrespondenceSpec.__post_init__

    def corrupted(self):
        post_init(self)
        if self.n == 1:
            self._beta_inv = self._beta

    out = str(tmp_path / "r.json")
    assert main(["lift-check", "--preset", "crossed-z3", "--out", out]) == 0
    monkeypatch.setattr(CorrespondenceSpec, "__post_init__", corrupted)
    assert main(["lift-check", "--preset", "crossed-z3", "--out", out]) == 1


def test_defect_fejer_weight_off_by_one_exit_one(monkeypatch, tmp_path):
    """Psi_N weighted by 1/(N+2) instead of 1/(N+1): the Schur coefficients
    miss the counting oracle."""
    psi = fock.psi_amplify

    def off_by_one(x, window):
        big_n = x.window.hi
        return psi(x, window) * ((big_n + 1) / (big_n + 2))

    out = str(tmp_path / "t.csv")
    assert main(["schur", "--preset", "cuntz2", "--out", out]) == 0
    monkeypatch.setattr(fock, "psi_amplify", off_by_one)
    assert main(["schur", "--preset", "cuntz2", "--out", out]) == 1


def test_defect_wrong_row_of_u_exit_one(monkeypatch, tmp_path):
    """phi_1 built from U with its rows reversed is still a unital
    *-homomorphism, so validation passes; but the tower no longer matches
    the peel through U (expectation) or the independent phi_k_direct
    (lift-check).  On cuntz2 (U = 1, alpha = id) the swap changes nothing,
    so twisted2 is the case."""
    def wrong_row(self, a):
        u = self.unitary.submatrix(slice(None, None, -1), slice(None))
        return u.adjoint() @ self.alpha_tilde(a) @ u

    runs = [[command, "--preset", "twisted2", "--N", "2..3",
             "--out", str(tmp_path / "r.json")] for command in ("expectation", "lift-check")]
    assert [main(args) for args in runs] == [0, 0]
    monkeypatch.setattr(CorrespondenceSpec, "phi1", wrong_row)
    assert [main(args) for args in runs] == [1, 1]


@pytest.mark.parametrize("preset", ["twisted2", "crossed-z3"])
def test_defect_band_offset_dropped_exit_one(monkeypatch, tmp_path, preset):
    """band_powers skipping k = 1 in both its callers: the Schur multipliers,
    the certificate's Fejer bound and the lifted band all miss that block."""
    band_powers = fock.band_powers

    def skip_one(*args):
        return ((k, x) for k, x in band_powers(*args) if k != 1)

    runs = [[command, "--preset", preset, "--N", "2..3", "--out", str(tmp_path / "r.out")]
            for command in ("schur", "certificate", "lift-check")]
    assert [main(args) for args in runs] == [0, 0, 0]
    monkeypatch.setattr(fock, "band_powers", skip_one)
    monkeypatch.setattr(lift, "band_powers", skip_one)
    assert [main(args) for args in runs] == [1, 1, 1]


@pytest.mark.parametrize("command", ["schur", "certificate"])
@pytest.mark.parametrize("preset", ["cuntz2", "twisted2", "crossed-z3", "rotation-m2"])
def test_defect_off_band_leak_exit_one(monkeypatch, tmp_path, command, preset):
    """Psi_N leaking 0.1 x the top-left corner of each output block (i, j)
    onto (i, j-1): a Schur multiplier maps each band into itself, so output
    off the generator's band must fail both commands."""
    psi = fock.psi_amplify

    def leak(x, window):
        out = psi(x, window)
        for (i, j), val in list(out.blocks.items()):
            if j - 1 >= window.lo:
                corner = val.submatrix(slice(None), slice(0, out.spec.fiber_dim(j - 1)))
                out.add_block(i, j - 1, corner * 0.1)
        return out

    args = [command, "--preset", preset, "--N", "2..3", "--out", str(tmp_path / "r.out")]
    assert main(args) == 0
    monkeypatch.setattr(fock, "psi_amplify", leak)
    assert main(args) == 1


@pytest.mark.parametrize("preset", ["cuntz2", "twisted2", "crossed-z3", "rotation-m2"])
def test_defect_complex_phase_exit_one(monkeypatch, tmp_path, preset):
    """Psi_N's output multiplied by 1 + 0.3i: every band block is still a
    multiple of the generator's, by a complex coefficient, so a fit that
    reported only Re c passed.  A Schur coefficient must be real."""
    psi = fock.psi_amplify

    def phased(x, window):
        return psi(x, window) * (1 + 0.3j)

    args = ["schur", "--preset", preset, "--N", "2..3", "--out", str(tmp_path / "t.csv")]
    assert main(args) == 0
    monkeypatch.setattr(fock, "psi_amplify", phased)
    assert main(args) == 1


@pytest.mark.parametrize("big_n, method", [(3, "choi"), (4, "probe")])
def test_defect_compress_reads_past_n_exit_one(monkeypatch, tmp_path, big_n, method):
    """phi leaking 0.1 x the top-left corner of the degree-(N+1) block into
    degree N reads outside the [0, N] corner that its Choi check assembles
    (N = 3) and its probe fills (N = 4).  The leak is planted in the
    compression table, on a copy of its image (the image is a view of the
    input).  The check of its reads must fail the certificate, with the
    deviation in the CP record's ``reads_dev``.  The records are keyed by
    map (phi reads a corner, psi all of its domain): at N = 4 the two probes
    run side by side and may finish in either order."""
    compress_table = lift.compress_table

    def leak(spec, window, n):
        phi = compress_table(spec, window, n)
        offs = fock._degree_offsets(spec, window)
        at_n, past_n = (slice(offs[d], offs[d] + spec.fiber_dim(n)) for d in (n, n + 1))

        def apply(x, row):
            out = phi.apply(x, row).copy()
            for b, top in zip(out.blocks, x.submatrix(past_n, past_n).blocks):
                b[..., at_n, at_n, :, :] += 0.1 * top
            return out

        return LinearMapTable(phi.spec, phi.p, phi.q, apply, reads=phi.reads)

    records = []
    check = lift.cp_check_auto

    def spy(table, *args, **kwargs):
        rep = check(table, *args, **kwargs)
        records.append(("phi" if table.restricted else "psi", rep))
        return rep

    monkeypatch.setattr(lift, "cp_check_auto", spy)
    args = ["certificate", "--preset", "twisted2", "--N", str(big_n),
            "--out", str(tmp_path / "c.json")]
    assert main(args) == 0
    assert dict(records)["phi"].reads_dev == 0.0
    records.clear()
    monkeypatch.setattr(lift, "compress_table", leak)
    assert main(args) == 1
    assert sorted(name for name, _ in records) == ["phi", "psi"]
    phi, psi = dict(records)["phi"], dict(records)["psi"]
    assert phi.method == method and not phi.passed
    assert phi.reads_dev > 1e-9
    assert psi.passed


def _rewritten_psi(monkeypatch, rewrite):
    """The certificate's Psi_N factor map, with each output block (i, j)
    replaced by ``rewrite(i, j, block, N)``, a (degree pair, block) pair.
    The Schur pipeline's Psi_N (``fock.psi_amplify``) is left as it is."""
    psi = lift.psi_amplify

    def rewritten(x, window):
        out = psi(x, window)
        out.blocks = dict(rewrite(i, j, val, x.window.hi) for (i, j), val in out.blocks.items())
        return out

    monkeypatch.setattr(lift, "psi_amplify", rewritten)


def _scaled_psi(monkeypatch, factor, above_n_only):
    """Psi_N with its output blocks scaled by ``factor``: everywhere, or only
    where both degrees exceed N.  The latter is a Schur product with a
    positive kernel, J + (factor - 1) w w^T for w the indicator of the
    degrees above N, so the map stays CP."""
    _rewritten_psi(monkeypatch, lambda i, j, val, big_n: (
        (i, j), val * factor if not above_n_only or min(i, j) > big_n else val))


def _transposed_psi(monkeypatch):
    """Psi_N followed by the transpose: block (j, i) is the entrywise
    transpose of block (i, j), stack axes left alone.  The transpose is
    positive and isometric but not CP, so the map is a positive contraction
    that is not CP."""
    _rewritten_psi(monkeypatch, lambda i, j, val, big_n: ((j, i), AMatrix(
        val.spec, val.cols, val.rows, [b.swapaxes(-4, -3).swapaxes(-2, -1) for b in val.blocks])))


def _factor_maps(out):
    """The serialized factor maps of every certificate in the report ``out``."""
    return [fm for cert in json.loads(out.read_text())["certificates"]
            for fm in cert["factor_maps"]]


@pytest.mark.parametrize("preset", ["twisted2", "cuntz2"])
@pytest.mark.parametrize("n_range, cap, method", [("2..3", "4096", "choi"),
                                                  ("2", "10", "probe")],
                         ids=["choi", "probe"])
@pytest.mark.parametrize("factor, above_n_only", [(1.5, True), (1 + 1e-6, False)],
                         ids=["1.5-above-N", "1e-6-everywhere"])
def test_defect_non_contractive_psi_exit_one(monkeypatch, tmp_path, preset, n_range,
                                             cap, method, factor, above_n_only):
    """A Psi_N that is CP but not a contraction: its CP check still passes,
    and only ``contractive`` (norm_bound <= 1 + norm_rel_tol) fails the
    certificate."""
    out = tmp_path / "c.json"
    args = ["certificate", "--preset", preset, "--N", n_range, "--choi-cap", cap,
            "--out", str(out)]
    assert main(args) == 0
    assert all(fm["contractive"] for fm in _factor_maps(out))
    _scaled_psi(monkeypatch, factor, above_n_only)
    assert main(args) == 1
    for fm in _factor_maps(out):
        assert fm["cp"]["method"] == method and fm["cp"]["pass"]
        assert fm["contractive"] == (fm["direction"] == "compress")
    assert json.loads(out.read_text())["suites"]["certificate"]["pass"] is False


@pytest.mark.parametrize("preset", ["twisted2", "cuntz2", "crossed-z3"])
@pytest.mark.parametrize("n_range, cap, method", [("2..3", "4096", "choi"),
                                                  ("2", "10", "probe")],
                         ids=["choi", "probe"])
def test_defect_positive_not_cp_psi_exit_one(monkeypatch, tmp_path, preset, n_range,
                                             cap, method):
    """A Psi_N that is a positive contraction but not CP (followed by the
    transpose): the run exits 1, not 3, and only the amplify map's CP check
    fails, on a negative eigenvalue, under the Choi check and the probe
    alike; both maps stay ``contractive``."""
    out = tmp_path / "c.json"
    args = ["certificate", "--preset", preset, "--N", n_range, "--choi-cap", cap,
            "--out", str(out)]
    _transposed_psi(monkeypatch)
    assert main(args) == 1
    maps = _factor_maps(out)
    assert maps
    for fm in maps:
        assert fm["cp"]["method"] == method and fm["contractive"]
        assert fm["cp"]["pass"] == (fm["direction"] == "compress")
        assert (fm["cp"]["min_eig"] < -0.1) == (fm["direction"] == "amplify")
    assert json.loads(out.read_text())["suites"]["certificate"]["pass"] is False


def test_expectation_contractive_by_the_factor_map_rule(monkeypatch, tmp_path):
    """Ex_k's CP record is ``contractive`` by the rule the factor maps use,
    ||Ex_k(1)|| <= 1 + norm_rel_tol: Ex_k scaled by 1 + 1e-9, in its CP check
    alone, stays CP and within the unital-defect limit, but is no longer
    contractive, at every level, and the run exits 1."""
    out = tmp_path / "e.json"
    args = ["expectation", "--preset", "twisted2", "--out", str(out)]
    assert main(args) == 0
    table = expectation.ex_k_table

    def scaled(spec, k):
        t = table(spec, k)
        return LinearMapTable(t.spec, t.p, t.q, lambda x, row: t.apply(x, row) * (1 + 1e-9))

    monkeypatch.setattr(expectation, "ex_k_table", scaled)
    assert main(args) == 1
    levels = json.loads(out.read_text())["suites"]["expectation"]["levels"]
    assert sorted(levels) == ["1", "2", "3"]
    for level in levels.values():
        cp = level["axioms"]["cp"]
        assert cp["pass"] and cp["contractive"] is False and not level["pass"]
        assert all(v["pass"] for v in level["axioms"].values())


def test_schur_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["schur", "--preset", "crossed-z3", "--N", "1..3",
                 "--M", "5", "--band", "2", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "empty Schur table"
    for row in rows:
        num, den = int(row["expected_num"]), int(row["expected_den"])
        assert abs(float(row["measured"]) - num / den) < 1e-9
        assert float(row["abs_err"]) < 1e-9
        assert row["sided"] == "two"
    # row count = sum over N of |generator pairs| x |representable offsets|
    want = sum(len(_offsets(r, s, 5))
               for _ in (1, 2, 3) for r in range(3) for s in range(3))
    assert len(rows) == want


def _offsets(r, s, hi):
    return [l for l in range(-hi - min(r, s), hi + 1)
            if -hi <= r + l <= hi and -hi <= s + l <= hi]


def test_empty_csv_has_header(tmp_path):
    """A bundle with no Schur rows still serializes to a valid CSV header."""
    out = tmp_path / "empty.csv"
    code = main(["validate", "--preset", "cuntz2", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == \
        "N,r,s,l,expected_num,expected_den,measured,abs_err,sided"
    assert len(text.splitlines()) == 1


def test_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["schur", "--preset", "rotation-m2", "--N", "2..3", "--M", "5",
            "--seed", "9", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _assert_report_matches(got, want, tol, path="$"):
    """Keys, strings, ints and bools exactly; a number that is a float on
    either side to within ``tol``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_report_matches(got[key], want[key], tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for idx, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, tol, f"{path}[{idx}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert type(got) in (int, float) and type(want) in (int, float), path
        assert abs(got - want) <= tol, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("command,preset,n_values", [
    ("report", "cuntz2", (2, 3)),
    ("report", "crossed-z3", (2, 3)),
    ("report", "rotation-m2", (2, 3)),
    ("certificate", "twisted2", (2, 3, 4)),
    ("lift-check", "twisted2", (2, 3, 4, 5)),
    ("expectation", "twisted2", (2, 3, 4, 5)),
], ids=["cuntz2", "crossed-z3", "rotation-m2", "certificate-twisted2",
        "lift-check-twisted2", "expectation-twisted2"])
def test_report_matches_golden(tmp_path, command, preset, n_values):
    """A whole report against a committed golden file (written by this same
    run/serialize call), to within eq_tol, so the comparison does not depend
    on the BLAS build or the CPU.  The twisted2 certificate covers both CP
    methods (Choi at N = 2, 3, the probe at N = 4), so it also pins the
    probe's random draws and their order.  rotation-m2 is the one preset
    whose beta conjugates by a non-identity unitary.  The twisted2 lift-check
    and expectation reports pin the extended-module defects and the Ex_k
    axioms."""
    spec = build_preset(preset)
    bundle = run(command, RunConfig(spec=spec, n_values=n_values),
                 created="2000-01-01")
    out = tmp_path / "report.json"
    serialize(bundle, "json", str(out))
    golden = Path(__file__).parent / "data" / f"{command}-{preset}.json"
    _assert_report_matches(json.loads(out.read_text()),
                           json.loads(golden.read_text()), spec.tol.eq_tol)


def _stdout_at_blas_threads(args, threads):
    """stdout of ``python args`` run with the package from this checkout and
    the given BLAS thread count."""
    src = Path(pimsner_lab.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout


def test_certificate_bytes_stable_across_blas_threads():
    """CP eigenvalues are serialized on a grid derived from psd_tol, so the
    last-digit drift of LAPACK across BLAS thread counts does not reach the
    report."""
    args = ["-m", "pimsner_lab.cli", "certificate", "--preset", "twisted2", "--N", "2..4"]
    assert _stdout_at_blas_threads(args, "1") == _stdout_at_blas_threads(args, "2")


# the serialized CP record of both twisted2 factor maps at N = 5, from their
# unit images alone (no Choi check, no probe)
FACTOR_MAP_NORMS = """
import json
from pimsner_lab.fock import FockWindow
from pimsner_lab.hilbert_mod import CPReport, _unit_image_norms
from pimsner_lab.lift import factor_tables
from pimsner_lab.presets import build_preset
spec = build_preset("twisted2")
for table in factor_tables(spec, FockWindow.one_sided(7), 5)[:2]:
    unital_defect, norm_bound = _unit_image_norms(table)
    print(json.dumps(CPReport("probe", 0.0, unital_defect, norm_bound, 0.0).to_dict()))
"""


@pytest.mark.parametrize("args", [
    ["-m", "pimsner_lab.cli", "schur", "--preset", "cuntz2"],
    ["-m", "pimsner_lab.cli", "schur", "--preset", "twisted2"],
    ["-c", FACTOR_MAP_NORMS],
    ["-m", "pimsner_lab.cli", "lift-check", "--preset", "twisted2"],
    ["-m", "pimsner_lab.cli", "expectation", "--preset", "twisted2"],
], ids=["schur-cuntz2", "schur-twisted2", "factor-map-norms-twisted2-N5",
        "lift-check-twisted2", "expectation-twisted2"])
def test_measured_values_stable_across_blas_threads(args):
    """Schur coefficients and factor-map norms come from BLAS and LAPACK, and
    their last digits move with the thread count; reports print them on the
    eq_tol grid, so the bytes do not.  The lift and expectation suites go
    through the extended module's matrix products at n = 2."""
    assert _stdout_at_blas_threads(args, "1") == _stdout_at_blas_threads(args, "2")


def test_unwritable_out_exit_two():
    assert main(["validate", "--preset", "cuntz2",
                 "--out", "/nonexistent-dir/x.json"]) == 2


def test_run_rejects_unknown_command():
    cfg = RunConfig(spec=build_preset("cuntz2"))
    with pytest.raises(ConfigurationError):
        run("fnord", cfg)


def test_serialize_json_floats_17g(tmp_path):
    cfg = RunConfig(spec=build_preset("crossed-z3"), n_values=(2,),
                    window_m=4, band=1, seed=1)
    bundle = run("schur", cfg, created="2026-08-23")
    out = tmp_path / "t.json"
    serialize(bundle, "json", str(out))
    doc = json.loads(out.read_text())
    assert doc["created"] == "2026-08-23"
    assert doc["schur_table"]
    row = doc["schur_table"][0]
    assert isinstance(row["expected"], list) and len(row["expected"]) == 2


def _assert_same_leaves(got, want):
    """got == want, with the same type at every leaf (an int is not a float)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same_leaves(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_leaves(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("command, preset, n_values", [
    ("report", "crossed-z3", (2, 3)),
    ("certificate", "twisted2", (2,)),
], ids=["report-crossed-z3", "certificate-twisted2"])
def test_reports_read_back_exactly(tmp_path, command, preset, n_values):
    """A JSON report parses back to the bundle's dict, type for type, and
    each Schur row's measured and abs_err CSV cells are the repr of the
    gridded floats."""
    bundle = run(command, RunConfig(spec=build_preset(preset), n_values=n_values),
                 created="2026-08-23")
    text = serialize(bundle, "json", str(tmp_path / "r.json"))
    _assert_same_leaves(json.loads(text), bundle.to_dict())
    rows = list(csv.DictReader(serialize(bundle, "csv", str(tmp_path / "r.csv")).splitlines()))
    assert len(rows) == len(bundle.schur_rows) and bool(rows) == (command == "report")
    for cells, row in zip(rows, bundle.schur_rows):
        want = row.to_dict()
        assert (cells["measured"], cells["abs_err"]) == \
            (repr(want["measured"]), repr(want["abs_err"]))
