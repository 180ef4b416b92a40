"""Hypothesis profiles, and helpers the test modules share.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps
no example database, so a CI verdict does not depend on earlier runs; local
runs keep hypothesis's defaults."""

from hypothesis import settings

from pimsner_lab.star_core import DEFAULT_TOL

settings.register_profile("ci", derandomize=True, database=None)


def allclose(x, y, atol: float = DEFAULT_TOL.eq_tol) -> bool:
    """Whether the AMatrices x and y, over one algebra and of one shape,
    differ by at most ``atol`` in every entry."""
    return (x - y).max_abs() <= atol


def is_hermitian(x) -> bool:
    """Whether the AMatrix x is square and equals its adjoint to eq_tol."""
    return x.rows == x.cols and allclose(x, x.adjoint())


def is_positive(x) -> bool:
    """Whether the AMatrix x is Hermitian to eq_tol with least eigenvalue at
    least -psd_tol."""
    return is_hermitian(x) and x.min_eig() >= -DEFAULT_TOL.psd_tol


def validate(spec, seed: int = 11) -> dict:
    """The correspondence-axiom report of ``spec`` at ``seed``, without
    raising on a violation (what ``validate_or_raise`` returns when none)."""
    return spec._validate(seed)[0]
