"""Output checks that do not trust the program's own oracles.

Every check returns a list of problems (empty when the output is right).
The Schur closed forms are derived by hand from the pipeline's definition,
not from ``schur_oracle``; generator norms come from LAPACK, not from
``spectral_norm``; the Choi side that decides between the exact and the
probe complete-positivity path is recomputed from the window sizes.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import numpy as np

CHOI_CAP = 4096  # the CLI's default --choi-cap


# ---------------------------------------------------------------------------
# Schur coefficients
# ---------------------------------------------------------------------------

def schur_closed_form(big_n: int, r: int, s: int, l: int, sided: str) -> Fraction:
    """Coefficient of the degree-N pipeline on t_mu t_nu* at band offset l.

    One-sided: the shifts k = 0..N that keep r+k, s+k <= N and k <= l,
    i.e. min(N - max(r,s), l) + 1 of them.  Two-sided: the shifts with
    0 <= r+k, s+k <= N, i.e. N + 1 - |r - s| of them.  Both over N + 1."""
    if sided == "one":
        if max(r, s) > big_n:
            return Fraction(0)
        return Fraction(min(big_n - max(r, s), l) + 1, big_n + 1)
    if sided == "two":
        return Fraction(max(0, big_n + 1 - abs(r - s)), big_n + 1)
    raise ValueError(f"unknown sidedness {sided!r}")


def schur_offsets(big_n: int, r: int, s: int, n: int) -> range:
    """Band offsets the schur suite measures at truncation N with the
    default window of top degree N + 2 (two-sided and symmetric when n = 1)."""
    hi = big_n + 2
    if n == 1:
        return range(-hi - min(r, s), hi - max(r, s) + 1)
    return range(0, hi - max(r, s) + 1)


def check_schur_rows(rows, n: int, n_values, band: int, eq_tol: float) -> list:
    """rows: dicts with N, r, s, l, expected (Fraction), measured, sided."""
    problems = []
    sided = "two" if n == 1 else "one"
    want = {(big_n, r, s, l)
            for big_n in n_values for r in range(band + 1) for s in range(band + 1)
            for l in schur_offsets(big_n, r, s, n)}
    got = set()
    for row in rows:
        key = (row["N"], row["r"], row["s"], row["l"])
        got.add(key)
        exact = schur_closed_form(*key, sided)
        if row["sided"] != sided:
            problems.append(f"schur row {key}: sided {row['sided']!r} != {sided!r}")
        if row["expected"] != exact:
            problems.append(f"schur row {key}: expected {row['expected']} != {exact}")
        if not abs(row["measured"] - float(exact)) <= eq_tol:
            problems.append(f"schur row {key}: measured {row['measured']!r} "
                            f"is off {exact} by more than {eq_tol}")
    if got != want:
        problems.append(f"schur table covers {len(got)} (N,r,s,l) keys, "
                        f"expected {len(want)}")
    return problems


def schur_rows_from_csv(text: str) -> list:
    reader = csv.DictReader(io.StringIO(text))
    return [{"N": int(row["N"]), "r": int(row["r"]), "s": int(row["s"]),
             "l": int(row["l"]),
             "expected": Fraction(int(row["expected_num"]), int(row["expected_den"])),
             "measured": float(row["measured"]), "sided": row["sided"]}
            for row in reader]


def schur_rows_from_json(table) -> list:
    return [{"N": row["N"], "r": row["r"], "s": row["s"], "l": row["l"],
             "expected": Fraction(*row["expected"]),
             "measured": row["measured"], "sided": row["sided"]}
            for row in table]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def generator_norm(mu, nu) -> float:
    """||mu nu*|| from the block arrays, by LAPACK on each flattened block.

    mu, nu are column AMatrix objects; their (rows, 1, d, d) block arrays
    are read directly, so no program arithmetic is involved."""
    norm = 0.0
    for mb, nb in zip(mu.blocks, nu.blocks):
        g = np.einsum("pab,qcb->pqac", mb[:, 0], nb[:, 0].conj())
        p, q, d, _ = g.shape
        flat = g.transpose(0, 2, 1, 3).reshape(p * d, q * d)
        norm = max(norm, float(np.linalg.norm(flat, 2)))
    return norm


def fejer_band(n: int, r: int, s: int) -> int:
    return abs(r - s) if n == 1 else max(r, s)


def choi_side(n: int, block_dims, window_hi: int, big_n: int) -> int:
    """Largest Choi side either factor map assembles: its largest domain
    block (module rank times the largest algebra block) times the flattened
    dimension of its codomain.  Both maps give rank(window) * rank([0, N])
    * max(d) * sum(d)."""
    def rank(deg):
        return 1 if n == 1 else n ** deg
    lo = -window_hi if n == 1 else 0
    total = sum(rank(d) for d in range(lo, window_hi + 1))
    small = sum(rank(d) for d in range(0, big_n + 1))
    return total * small * max(block_dims) * sum(block_dims)


def check_certificate(cert: dict, spec, eq_tol: float) -> list:
    """Factor maps CP and contractive; every generator inside its Fejer
    bound with a LAPACK norm; the CP method matches the recomputed side."""
    problems = []
    big_n = cert["N"]
    where = f"certificate N={big_n}"
    side = choi_side(spec.n, spec.algebra.block_dims, cert["spec"]["window"][1], big_n)
    method = "choi" if side <= CHOI_CAP else "probe"
    for fm in cert["factor_maps"]:
        cp = fm["cp"]
        if cp["pass"] is not True:
            problems.append(f"{where}: {fm['direction']} map fails CP")
        if not cp["norm_bound"] <= 1.0 + eq_tol:
            problems.append(f"{where}: {fm['direction']} norm bound "
                            f"{cp['norm_bound']!r} exceeds 1")
        if cp["method"] != method:
            problems.append(f"{where}: {fm['direction']} used {cp['method']}, "
                            f"Choi side {side} calls for {method}")
    sided = "two" if spec.n == 1 else "one"
    for g in cert["generators"]:
        r, s, seed = g["r"], g["s"], g["seed"]
        mu = spec.sample_vector(r, seed)
        nu = spec.sample_vector(s, seed + 1)
        norm = generator_norm(mu, nu)
        bound = fejer_band(spec.n, r, s) / (big_n + 1) * norm + eq_tol
        if not g["error"] <= bound:
            problems.append(f"{where} generator ({r},{s}): error {g['error']!r} "
                            f"above the Fejer bound {bound!r}")
        exact = schur_closed_form(big_n, r, s, 0 if spec.n == 1 else big_n, sided)
        if Fraction(*g["coeff_expected"]) != exact:
            problems.append(f"{where} generator ({r},{s}): coefficient "
                            f"{g['coeff_expected']} != {exact}")
        if not abs(g["coeff_measured"] - float(exact)) <= eq_tol:
            problems.append(f"{where} generator ({r},{s}): measured coefficient "
                            f"{g['coeff_measured']!r} is off {exact}")
    return problems


# ---------------------------------------------------------------------------
# expectation and verdicts
# ---------------------------------------------------------------------------

def check_expectation_inverse(lab, spec, seed: int, levels, samples: int = 3) -> list:
    """Ex_k(phi_k_direct(a)) == a on elements drawn from the benchmark's seed."""
    problems = []
    rng = np.random.default_rng(seed)
    algebra = spec.algebra
    for k in levels:
        for _ in range(samples):
            blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                      for d in algebra.block_dims]
            a = lab.star_core.AElement(algebra, blocks)
            back = lab.expectation.ex_k(spec, k, spec.phi_k_direct(a, k))
            dev = max(float(np.max(np.abs(x - y))) for x, y in zip(back.blocks, blocks))
            if not dev <= spec.tol.eq_tol:
                problems.append(f"Ex_{k} o phi_{k}_direct deviates from id by {dev!r}")
    return problems


def check_verdicts(report: dict) -> list:
    problems = []
    if report.get("pass") is not True:
        problems.append(f"{report.get('command')}: report verdict is not pass")
    for name, suite in report.get("suites", {}).items():
        if suite.get("pass") is not True:
            problems.append(f"{report.get('command')}: suite {name} does not pass")
    return problems
