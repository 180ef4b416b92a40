"""Batch front end: verification suites, convergence tables, certificates.

Commands
--------
validate     correspondence axioms for a preset or config
schur        finite-section Schur coefficients vs the counting oracle
lift-check   bimodule-lift and defect-vanishing suites
expectation  conditional-expectation tower axioms per level
certificate  CPAP certificates over an N range
report       all of the above in one bundle

Exit codes: 0 all suites pass, 1 any violation, 2 configuration error,
3 internal error (any other exception, e.g. operands that do not fit together;
its traceback goes to stderr).
Output is byte-stable for a fixed (config, seed, tool version): floats are
printed as their shortest exact repr and rationals as integer num/den pairs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .star_core import ConfigurationError, DEFAULT_TOL
from .correspondence import CorrespondenceSpec, ValidationError
from .fock import FockWindow, v_n_runs
from .expectation import _sample_matrix, verify_cond_exp
from .hilbert_mod import CHOI_CAP, tol_grid
from .lift import (
    EInftyContext,
    TOOL_VERSION,
    bilateral_lift,
    cpap_certificate,
    generator_records,
    lift_defect,
)
from .presets import load_spec

__all__ = ["RunConfig", "ReportBundle", "run", "serialize", "main"]

CSV_HEADER = ["N", "r", "s", "l", "expected_num", "expected_den",
              "measured", "abs_err", "sided"]
COMMANDS = ("validate", "schur", "lift-check", "expectation",
            "certificate", "report")
VALIDATING = ("validate", "report")  # the commands that run the validate suite
EXPECTATION_LEVELS = 3  # the expectation suite checks Ex_1 .. Ex_3


@dataclass
class RunConfig:
    spec: CorrespondenceSpec
    n_values: tuple[int, ...] = (2, 3, 4, 5)
    window_m: int | None = None        # window size; default derived from N
    band: int = 3                      # generator degree bound
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    choi_cap: int = CHOI_CAP

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("band", self.band),
                            ("choi_cap", self.choi_cap)):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")

    def window_for(self, big_n: int) -> FockWindow:
        hi = self.window_m if self.window_m is not None else big_n + 2
        if hi < big_n:
            raise ConfigurationError(
                f"window_m={hi} too small for N={big_n}")
        if hi > self.spec.max_degree:
            raise ConfigurationError(
                f"window_m={hi} exceeds max_degree={self.spec.max_degree}")
        if self.spec.n == 1:
            return FockWindow.two_sided_sym(hi)
        return FockWindow.one_sided(hi)


@dataclass
class ReportBundle:
    command: str
    spec_info: dict
    seed: int
    suites: dict = field(default_factory=dict)      # name -> report dict
    schur_rows: list = field(default_factory=list)  # SchurRow
    certificates: list = field(default_factory=list)
    created: str = ""

    @property
    def passed(self) -> bool:
        return all(s.get("pass", False) for s in self.suites.values())

    def to_dict(self) -> dict:
        return {
            "tool_version": TOOL_VERSION,
            "created": self.created,
            "command": self.command,
            "spec": self.spec_info,
            "seed": self.seed,
            "pass": self.passed,
            "suites": self.suites,
            "schur_table": [r.to_dict() for r in self.schur_rows],
            "certificates": [c.to_dict() for c in self.certificates],
        }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_validate(cfg: RunConfig) -> dict:
    """The correspondence axioms at seed ``cfg.seed + 11``.  A failing axiom
    raises :class:`ValidationError`: nothing downstream is meaningful over a
    broken correspondence."""
    return cfg.spec.validate_or_raise(seed=cfg.seed + 11)


def suite_schur(cfg: RunConfig):
    """Schur tables against the counting oracle over the (N, r, s) grid, in
    that order: V_N on one-sided windows, W_N on two-sided ones.  Every window
    is checked first; each pair (r, s) is then drawn, and its band built on the
    widest window, once per run (:func:`v_n_runs`).  The worst error is
    folded with ``np.max``, which carries a NaN through to a failing verdict."""
    runs = [(big_n, cfg.window_for(big_n)) for big_n in cfg.n_values]
    seeds = {(r, s): cfg.seed + 7001 * r + 31 * s + 1
             for r in range(cfg.band + 1) for s in range(cfg.band + 1)}
    rows_by_n = [[] for _ in runs]
    for k, _, _, (_, got, _) in v_n_runs(cfg.spec, seeds, runs):
        rows_by_n[k].extend(got)
    rows = [row for got in rows_by_n for row in got]
    worst = float(np.max([g.abs_err for g in rows], initial=0.0))
    report = {
        "rows": len(rows),
        "max_abs_err": tol_grid(worst, DEFAULT_TOL.eq_tol),
        "pass": worst <= DEFAULT_TOL.eq_tol,
    }
    return report, rows


def suite_lift_check(cfg: RunConfig) -> dict:
    """Defect vanishing on the extended module; bimodule lift when n = 1.
    Degree pairs that a suite's window cannot hold are skipped."""
    spec = cfg.spec
    window = FockWindow.one_sided(min(5, spec.max_degree))
    defects = []
    degree_pairs = [(1, 0), (1, 1), (2, 1)]
    for level in range(1, min(2, spec.max_degree) + 1):
        ctx = EInftyContext(spec, level)
        for i in range(1, level + 1):
            for idx, (r, s) in enumerate(degree_pairs):
                if max(r, s) > window.hi:
                    continue
                gseed = cfg.seed + 53 * level + 17 * i + idx
                mu, nu = spec.sample_vector(r, gseed), spec.sample_vector(s, gseed + 1)
                side = spec.fiber_dim(i)
                b0 = _sample_matrix(spec, side, gseed + 2)
                c0 = _sample_matrix(spec, side, gseed + 3)
                _, rep = lift_defect(ctx, mu, nu, b0, c0, i, window, r, s)
                defects.append(rep)
    out = {
        "defect": {
            "cases": defects,
            "pass": all(d["pass"] for d in defects),
        },
    }
    if spec.n == 1:
        two = FockWindow.two_sided_sym(min(8, spec.max_degree))
        lifts = []
        for r in range(cfg.band + 1):
            for s in range(cfg.band + 1):
                if max(r, s) > two.hi:
                    continue
                gseed = cfg.seed + 101 * r + 13 * s
                mu, nu = spec.sample_vector(r, gseed), spec.sample_vector(s, gseed + 1)
                _, rep = bilateral_lift(spec, mu, nu, r, s, two)
                lifts.append(rep)
        out["bimodule_lift"] = {
            "cases": lifts,
            "pass": all(l["pass"] for l in lifts),
        }
    out["pass"] = all(v["pass"] for k, v in out.items() if k != "pass")
    return out


def suite_expectation(cfg: RunConfig) -> dict:
    levels = {}
    for k in range(1, min(EXPECTATION_LEVELS, cfg.spec.max_degree) + 1):
        levels[str(k)] = verify_cond_exp(cfg.spec, k, seed=cfg.seed + 23,
                                         choi_cap=cfg.choi_cap)
    return {"levels": levels,
            "pass": all(v["pass"] for v in levels.values())}


def suite_certificate(cfg: RunConfig, created: str):
    """One certificate per N.  Every window is checked first; each generator
    pair is then drawn, and its band built, once per run (:func:`generator_records`)."""
    gens = [(r, s) for r in range(min(cfg.band, 2) + 1)
            for s in range(min(cfg.band, 2) + 1)][:6]
    runs = [(big_n, cfg.window_for(big_n)) for big_n in cfg.n_values]
    records = generator_records(cfg.spec, gens, runs, cfg.seed)
    certs = [replace(cpap_certificate(cfg.spec, big_n, [], window, seed=cfg.seed,
                                      created=created, choi_cap=cfg.choi_cap),
                     generators=recs)
             for (big_n, window), recs in zip(runs, records)]
    ok = all(cp.passed and cp.contractive for cert in certs for _, cp in cert.factor_maps)
    return {"count": len(certs), "pass": ok}, certs


# ---------------------------------------------------------------------------
# runner and serialization
# ---------------------------------------------------------------------------

def run(command: str, cfg: RunConfig, created: str | None = None) -> ReportBundle:
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    created = created or datetime.now(timezone.utc).date().isoformat()
    bundle = ReportBundle(
        command=command,
        spec_info={
            "preset": cfg.spec.name,
            "block_dims": list(cfg.spec.algebra.block_dims),
            "n": cfg.spec.n,
            "max_degree": cfg.spec.max_degree,
            "tool_version": TOOL_VERSION,
        },
        seed=cfg.seed,
        created=created,
    )
    if command in VALIDATING:
        bundle.suites["validate"] = suite_validate(cfg)
    if command in ("schur", "report"):
        rep, rows = suite_schur(cfg)
        bundle.suites["schur"] = rep
        bundle.schur_rows = rows
    if command in ("lift-check", "report"):
        bundle.suites["lift_check"] = suite_lift_check(cfg)
    if command in ("expectation", "report"):
        bundle.suites["expectation"] = suite_expectation(cfg)
    if command in ("certificate", "report"):
        rep, certs = suite_certificate(cfg, created)
        bundle.suites["certificate"] = rep
        bundle.certificates = certs
    return bundle


def serialize(bundle: ReportBundle, fmt: str, path: str | None):
    if fmt == "json":
        # a NaN that escapes every verdict is an internal error, never a report
        text = json.dumps(bundle.to_dict(), indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in bundle.schur_rows:
            writer.writerow(row.csv_fields())
        text = buf.getvalue()
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _parse_n_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            a, b = text.split("..")
            lo, hi = int(a), int(b)
            if lo > hi:
                raise ValueError("empty range")
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError as exc:
        raise ConfigurationError(f"bad --N value {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pimsner-lab",
        description="Finite-section laboratory for Pimsner-algebra "
                    "approximation certificates.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--preset", help="built-in correspondence name")
    p.add_argument("--config", help="JSON correspondence config file")
    p.add_argument("--N", default="2..5", help="truncation range a..b or a")
    p.add_argument("--M", type=int, default=None, help="Fock window size")
    p.add_argument("--band", type=int, default=3, help="generator degree bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                   default=None)
    p.add_argument("--choi-cap", type=int, default=CHOI_CAP)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(
            spec=load_spec(args.preset, args.config),
            n_values=_parse_n_range(args.N),
            window_m=args.M,
            band=args.band,
            seed=args.seed,
            out=args.out,
            fmt=args.fmt or ("csv" if args.command == "schur" else "json"),
            choi_cap=args.choi_cap,
        )
        if args.command not in VALIDATING:
            suite_validate(cfg)  # the same gate, without the suite's report
        bundle = run(args.command, cfg)
        serialize(bundle, cfg.fmt, cfg.out)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a crash, not a mathematical violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    sys.exit(main())
