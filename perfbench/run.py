"""Outside-in benchmark of the pimsner-lab verification suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload drives the package through
the same ``cli.run`` -> ``cli.serialize`` path that ``pimsner-lab <command>``
takes, one job after another in a single process (a closed loop with one
client), with the BLAS thread count fixed before numpy is imported.  Every
output is checked against computations made apart from the program.

--trace 0 measures the end-to-end metrics over whole rounds for about
--seconds seconds: at least one round, and another only while it should
end within --seconds.  --trace 1 runs one untraced round and one traced
round and reports the per-layer metrics; their payloads must be
byte-identical.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fixed report date, so payload bytes do not depend on the day of the run.
CREATED = "1970-01-01"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    preset: str
    commands: tuple
    n_values: tuple
    # re-run ``certificate --N 2`` single-threaded in a subprocess and
    # compare its bytes with the in-process job
    reproduce: bool = False


WORKLOADS = {
    # the certificate hot path: exact Choi checks at N = 2, 3 (sides 434 and
    # 1890) and the probe fallback at N = 4 (side 7874 > 4096)
    "cert-twisted2": Workload("twisted2", ("certificate",), (2, 3, 4), reproduce=True),
    # the n = 2 tower without a CP certificate: Ex_k peel, einsum, amplify1
    "suites-twisted2": Workload("twisted2", ("schur", "lift-check", "expectation"),
                                (2, 3, 4, 5)),
    # the bimodule path: automorphism powers, many cheap map applications
    "report-crossed-z3": Workload("crossed-z3", ("report",), (2, 3, 4, 5)),
}

REPRODUCE_FAULT = (
    "certificate --preset twisted2 --N 2 prints the amplify map's Choi min_eig "
    "(about -8e-16, below psd_tol) at 17 significant digits, and its last "
    "digits depend on the BLAS thread count")

BAND = 3  # the CLI's default --band


class OperationFailed(Exception):
    """An operation ran to its end but did not do what it should."""


class Tally:
    """Operations attempted and failed, and problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def attempt(self, name: str, fn):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any crash is a failed operation, not a stop
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class JobResult:
    command: str
    spec: object
    passed: bool
    text: str
    wall_s: float
    cpu_s: float


class Bench:
    def __init__(self, lab, workload: Workload, seed: int, threads: int):
        self.lab = lab
        self.wl = workload
        self.seed = random.Random(seed).randrange(1 << 16)
        self.threads = threads
        self._reference = None

    # -- operations ---------------------------------------------------------

    def job(self, command: str, tracer=None) -> JobResult:
        """One ``pimsner-lab <command>`` call; times cli.run + cli.serialize."""
        cli = self.lab.cli
        spec = cli.load_spec(self.wl.preset, None)
        spec.validate_or_raise(seed=11)
        return self._run(command, spec, self.wl.n_values, self.seed, tracer)

    def _run(self, command, spec, n_values, seed, tracer=None) -> JobResult:
        cli = self.lab.cli
        cfg = cli.RunConfig(spec=spec, n_values=tuple(n_values), seed=seed,
                            fmt="csv" if command == "schur" else "json")
        sink = io.StringIO()
        span = tracer.span("bench.job") if tracer else contextlib.nullcontext()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(sink):
            bundle = cli.run(command, cfg, created=CREATED)
            cli.serialize(bundle, cfg.fmt, None)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return JobResult(command, spec, bundle.passed, sink.getvalue(), wall, cpu)

    def reproduce(self) -> bool:
        """``certificate --N 2 --seed 0`` single-threaded in a fresh process
        must print the bytes the same job prints here."""
        if self._reference is None:
            spec = self.lab.cli.load_spec("twisted2", None)
            self._reference = self._run("certificate", spec, (2,), 0).text
        out = run_child(["job", "certificate", "twisted2", "2", "0", CREATED],
                        1, capture=True)
        if out != self._reference:
            raise OperationFailed(
                f"payload differs between {self.threads} BLAS threads and 1: "
                + REPRODUCE_FAULT)
        return True

    def run_round(self, tally: Tally, tracer=None) -> list:
        results = []
        for command in self.wl.commands:
            res = tally.attempt(command, lambda: self.job(command, tracer))
            if res is not None:
                results.append(res)
        if self.wl.reproduce:
            tally.attempt("reproduce", self.reproduce)
        return results

    # -- checks -------------------------------------------------------------

    def check(self, res: JobResult) -> list:
        # checks and tracer import numpy, so they load after main() has
        # fixed the BLAS thread count
        from checks import (check_certificate, check_expectation_inverse,
                            check_schur_rows, check_verdicts,
                            schur_rows_from_csv, schur_rows_from_json)
        spec, n_values = res.spec, self.wl.n_values
        eq_tol = spec.tol.eq_tol
        problems = [] if res.passed else [f"{res.command}: exit verdict is a violation"]
        if res.command == "schur":
            return problems + check_schur_rows(schur_rows_from_csv(res.text),
                                               spec.n, n_values, BAND, eq_tol)
        report = json.loads(res.text)
        problems += check_verdicts(report)
        if res.command == "report":
            problems += check_schur_rows(schur_rows_from_json(report["schur_table"]),
                                         spec.n, n_values, BAND, eq_tol)
        if res.command in ("certificate", "report"):
            certs = report["certificates"]
            if [c["N"] for c in certs] != list(n_values):
                problems.append(f"{res.command}: certificates for N = "
                                f"{[c['N'] for c in certs]}, asked {list(n_values)}")
            for cert in certs:
                problems += check_certificate(cert, spec, eq_tol)
        if res.command in ("expectation", "report"):
            levels = report["suites"]["expectation"]["levels"]
            if sorted(levels) != ["1", "2", "3"]:
                problems.append(f"expectation levels {sorted(levels)}")
            problems += check_expectation_inverse(self.lab, spec, self.seed, (1, 2, 3))
        return problems

    # -- the two kinds of run ----------------------------------------------

    def timed(self, seconds: float, tally: Tally) -> dict:
        setups = [measure_setup(self.wl.preset, self.threads)
                  for _ in range(SETUP_REPEATS)]
        walls, cpus, rounds_s = [], [], []
        start = time.perf_counter()
        # whole rounds; another one only if it should end within `seconds`
        while not rounds_s or (time.perf_counter() - start
                               + statistics.mean(rounds_s) <= seconds):
            t0 = time.perf_counter()
            results = self.run_round(tally)
            walls.append(sum(r.wall_s for r in results))
            cpus.append(sum(r.cpu_s for r in results))
            for res in results:
                tally.problems += self.check(res)
            rounds_s.append(time.perf_counter() - t0)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"rounds {len(walls)} wall_s {[round(w, 4) for w in walls]} "
              f"setup_s {[round(s, 4) for s in setups]}")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }

    def traced(self, tally: Tally) -> dict:
        from tracer import Tracer, install
        import layers

        plain = self.run_round(tally)
        tracer = Tracer()
        restore = install(tracer, self.lab)
        try:
            traced = self.run_round(tally, tracer)
        finally:
            restore()
        for res in plain + traced:
            tally.problems += self.check(res)
        if [r.text for r in plain] != [r.text for r in traced]:
            tally.problems.append("traced and untraced payloads differ")
        print_span_table(tracer, sys.stderr)
        return layers.layer_metrics(
            tracer, self.lab, SRC,
            wall_plain=sum(r.wall_s for r in plain),
            wall_traced=sum(r.wall_s for r in traced),
            report_bytes=sum(len(r.text.encode()) for r in traced))


# ---------------------------------------------------------------------------
# processes and environment
# ---------------------------------------------------------------------------

def run_child(args, threads: int, capture: bool = False) -> str:
    """Run perfbench/child.py with the given BLAS thread count; waits for it."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_ENV})
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                          env=env, cwd=ROOT,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure_setup(preset: str, threads: int) -> float:
    """Fresh-process import + load_spec + validate_or_raise, timed from the
    parent: interpreter start-up included, as every CLI call pays it."""
    t0 = time.perf_counter()
    run_child(["setup", preset], threads)
    return time.perf_counter() - t0


def blas_threads() -> int:
    """Two BLAS threads, or fewer when fewer cores are ours or when
    OPENBLAS_NUM_THREADS already asks for fewer (the single-threaded
    reference run in README.md sets it to 1)."""
    limit = 2
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if asked.isdigit() and int(asked) > 0:
        limit = min(limit, int(asked))
    return min(limit, len(os.sched_getaffinity(0)))


def environment(threads: int) -> dict:
    import numpy as np
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads}


def print_span_table(tracer, out, limit: int = 40):
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':52s} {'calls':>9s} {'self_s':>9s} {'incl_s':>9s}", file=out)
    for name, st in rows[:limit]:
        print(f"{name:52s} {st['calls']:9d} {st['self_s']:9.4f} {st['s']:9.4f}",
              file=out)
    for name, count in sorted(tracer.counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:52s} {count:9d}  (counted)", file=out)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pimsner_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pimsner_lab'}; "
              "run from the root of a pimsner-lab checkout", file=sys.stderr)
        return 2
    threads = blas_threads()
    for var in BLAS_ENV:  # before numpy is imported, here and in children
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import pimsner_lab
    import pimsner_lab.cli  # not imported by the package itself

    bench = Bench(pimsner_lab, WORKLOADS[args.workload], args.seed, threads)
    tally = Tally()
    print("env " + json.dumps(environment(threads), sort_keys=True))
    if args.trace:
        metrics = bench.traced(tally)
    else:
        metrics = bench.timed(args.seconds, tally)
    for line in tally.failures:
        print(f"failed {line}")
    for line in tally.problems[:50]:
        print(f"problem {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
