"""Per-layer metrics from one traced round.

Each entry names the span (or counter) it reads and the statistic:
``calls`` (spans opened), ``returned`` (spans that did not raise),
``self_s`` (span time minus child spans) or ``s`` (inclusive time of the
outermost spans of that name).  The end-to-end metric and workload each
one should move are listed in README.md.
"""

from __future__ import annotations

from tracer import EIGEN_SPAN

SPAN_METRICS = (
    ("star_core.spectral_norm.calls", "star_core.spectral_norm", "calls"),
    ("star_core.spectral_norm.self_s", "star_core.spectral_norm", "self_s"),
    ("star_core.automorphism_apply.calls", "star_core.Automorphism.apply", "calls"),
    ("star_core.automorphism_apply.self_s", "star_core.Automorphism.apply", "self_s"),
    ("correspondence.amplify1.calls", "correspondence.CorrespondenceSpec.amplify1", "calls"),
    ("correspondence.amplify1.self_s", "correspondence.CorrespondenceSpec.amplify1", "self_s"),
    ("correspondence.amplify.calls", "correspondence.CorrespondenceSpec.amplify", "calls"),
    ("correspondence.amplify.self_s", "correspondence.CorrespondenceSpec.amplify", "self_s"),
    ("hilbert_mod.matmul.calls", "hilbert_mod.AMatrix.__matmul__", "calls"),
    ("hilbert_mod.matmul.self_s", "hilbert_mod.AMatrix.__matmul__", "self_s"),
    ("hilbert_mod.basis_images.self_s", "hilbert_mod.LinearMapTable.basis_images", "self_s"),
    ("hilbert_mod.choi.calls", "hilbert_mod.choi_cp_check", "returned"),
    ("hilbert_mod.choi.self_s", "hilbert_mod.choi_cp_check", "self_s"),
    ("hilbert_mod.probe.calls", "hilbert_mod.positivity_probe", "calls"),
    ("hilbert_mod.probe.self_s", "hilbert_mod.positivity_probe", "self_s"),
    ("hilbert_mod.eigen_solves", EIGEN_SPAN, "calls"),
    ("hilbert_mod.eigen_s", EIGEN_SPAN, "s"),
    ("fock.from_amatrix.calls", "fock.GradedOperator.from_amatrix", "calls"),
    ("fock.from_amatrix.self_s", "fock.GradedOperator.from_amatrix", "self_s"),
    ("fock.to_amatrix.self_s", "fock.GradedOperator.to_amatrix", "self_s"),
    ("fock.psi_amplify.self_s", "fock.psi_amplify", "self_s"),
    ("fock.toeplitz_op.self_s", "fock.toeplitz_op", "self_s"),
    ("expectation.ex_k.calls", "expectation.ex_k", "calls"),
    ("expectation.ex_k.self_s", "expectation.ex_k", "self_s"),
    ("expectation.verify_cond_exp.s", "expectation.verify_cond_exp", "s"),
    ("lift.amplify_inf.self_s", "lift.EInftyContext.amplify_inf", "self_s"),
    ("lift.lift_defect.s", "lift.lift_defect", "s"),
    ("lift.bilateral_lift.s", "lift.bilateral_lift", "s"),
    ("lift.cpap_certificate.s", "lift.cpap_certificate", "s"),
    ("presets.load_spec.s", "presets.load_spec", "s"),
    ("cli.suite.validate.s", "cli.suite_validate", "s"),
    ("cli.suite.schur.s", "cli.suite_schur", "s"),
    ("cli.suite.lift_check.s", "cli.suite_lift_check", "s"),
    ("cli.suite.expectation.s", "cli.suite_expectation", "s"),
    ("cli.suite.certificate.s", "cli.suite_certificate", "s"),
    ("cli.serialize.s", "cli.serialize", "s"),
)

COUNTER_METRICS = (
    # one AMatrix.from_flat per black-box map application
    ("hilbert_mod.map_applications", "hilbert_mod.AMatrix.from_flat"),
    ("hilbert_mod.max_abs.calls", "hilbert_mod.AMatrix.max_abs"),
)


def layer_metrics(tracer, package, src_dir, wall_plain: float,
                  wall_traced: float, report_bytes: int) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    summary = tracer.summary()

    def stat(span, key):
        return summary.get(span, {}).get(key, 0)

    out = {}
    for name, span, key in SPAN_METRICS:
        out[name] = (stat(span, key), "s" if key in ("self_s", "s") else "count")
    for name, counter in COUNTER_METRICS:
        out[name] = (tracer.counts[counter], "count")
    out["hilbert_mod.eigen_side3"] = (tracer.eigen_side3, "count")
    out["hilbert_mod.choi_side_max"] = (tracer.choi_side_max, "count")
    out["fock.schur_pipeline.s"] = (stat("fock.v_n", "s") + stat("fock.w_n", "s"), "s")
    out["cli.report_bytes"] = (report_bytes, "bytes")
    out["package.src_lines"] = (source_lines(src_dir), "count")
    out["package.public_names"] = (len(package.__all__), "count")
    out["trace.wall_s"] = (wall_traced, "s")
    out["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    out["trace.spans"] = (len(tracer.span_start), "count")
    return out


def source_lines(src_dir) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src_dir.rglob("*.py")))
