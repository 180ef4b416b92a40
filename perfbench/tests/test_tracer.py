"""Span accounting of the outside-in tracer."""

import time

import pytest

import pimsner_lab
import pimsner_lab.cli
from pimsner_lab import cli, fock, lift
from run import Bench, Workload
from tracer import Tracer, install


def test_self_times_of_nested_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def inner():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    wrapped_leaf = tracer.spanned("leaf", leaf)
    wrapped_inner = tracer.spanned("inner", inner)
    with tracer.span("root"):
        wrapped_inner()
    s = tracer.summary()
    assert s["leaf"]["calls"] == 2
    assert s["inner"]["self_s"] == pytest.approx(
        s["inner"]["s"] - s["leaf"]["s"], abs=1e-12)
    assert s["root"]["s"] == pytest.approx(tracer.root_seconds(), abs=1e-12)
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(
        tracer.root_seconds(), rel=1e-12)


def test_raised_spans_close_and_are_not_returned():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.spanned("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.summary()["boom"] == pytest.approx(
        {"calls": 1, "returned": 0, "self_s": 0.0, "s": 0.0}, abs=1e-3)
    assert tracer.stack == [-1]


def test_traced_job_accounts_for_its_wall_time_and_keeps_payload():
    bench = Bench(pimsner_lab, Workload("crossed-z3", ("certificate",), (2,)), 3, 1)
    plain = bench.job("certificate")
    originals = (fock.psi_amplify, lift.cpap_certificate, fock.GradedOperator.from_amatrix)
    tracer = Tracer()
    restore = install(tracer, pimsner_lab)
    try:
        # every namespace that holds a wrapped name sees the wrapper
        assert lift.psi_amplify is fock.psi_amplify is not originals[0]
        assert cli.cpap_certificate is lift.cpap_certificate is not originals[1]
        traced = bench.job("certificate", tracer)
    finally:
        restore()
    assert (fock.psi_amplify, lift.cpap_certificate,
            fock.GradedOperator.from_amatrix) == originals
    assert traced.text == plain.text
    summary = tracer.summary()
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert summary["bench.job"]["s"] == pytest.approx(traced.wall_s, rel=0.05)
    assert summary["lift.cpap_certificate"]["calls"] == 1
    assert tracer.counts["hilbert_mod.AMatrix.from_flat"] > 0
    assert tracer.choi_side_max == 81
