"""Failed-operation counting: whole rounds, a fixed share of failures."""

import pytest

from run import Bench, OperationFailed, Tally, Workload


def test_tally_counts_raised_operations_as_failed():
    tally = Tally()
    assert tally.attempt("ok", lambda: 5) == 5

    def bad():
        raise OperationFailed("bytes differ")

    assert tally.attempt("bad", bad) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures == ["bad: OperationFailed: bytes differ"]
    assert tally.correct  # a failed operation is not a wrong output
    tally.problems.append("schur row off")
    assert not tally.correct


class FakeBench(Bench):
    """Jobs that succeed and a reproduce step that always fails."""

    def job(self, command, tracer=None):
        return command

    def reproduce(self):
        raise OperationFailed("payload differs")


@pytest.mark.parametrize("rounds", [1, 2, 5])
def test_failed_share_is_the_same_for_any_number_of_rounds(rounds):
    bench = FakeBench(None, Workload("twisted2", ("schur", "lift-check"), (2,),
                                     reproduce=True), seed=7, threads=2)
    tally = Tally()
    for _ in range(rounds):
        assert bench.run_round(tally) == ["schur", "lift-check"]
    assert tally.attempted == 3 * rounds
    assert tally.failed == rounds
