"""Hypothesis profiles, and helpers the test modules share.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps
no example database, so a CI verdict does not depend on earlier runs; local
runs keep hypothesis's defaults."""

from hypothesis import settings

from pimsner_lab.star_core import DEFAULT_TOL

settings.register_profile("ci", derandomize=True, database=None)


def is_positive(x) -> bool:
    """Whether the AMatrix x is Hermitian to eq_tol with least eigenvalue at
    least -psd_tol."""
    return x.is_hermitian() and x.min_eig() >= -DEFAULT_TOL.psd_tol
