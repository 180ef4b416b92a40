"""Hypothesis profiles, and helpers the test modules share.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps
no example database, so a CI verdict does not depend on earlier runs; local
runs keep hypothesis's defaults."""

import numpy as np
from hypothesis import settings

from pimsner_lab.hilbert_mod import AMatrix, LinearMapTable, sample
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


def _sample_blocks(spec, seed, fn) -> AMatrix:
    """``fn`` of each (d, d) block of ``sample(spec, seed)``, as an element."""
    return AMatrix(spec, 1, 1, [fn(b[0, 0])[None, None] for b in sample(spec, seed).blocks])


def sample_hermitian(spec, seed: int) -> AMatrix:
    """(z + z*) / 2 for z = ``sample(spec, seed)``."""
    return _sample_blocks(spec, seed, lambda z: (z + z.conj().T) / 2)


def sample_positive(spec, seed: int) -> AMatrix:
    """z* z / d on each d x d block of z = ``sample(spec, seed)``."""
    return _sample_blocks(spec, seed, lambda z: z.conj().T @ z / z.shape[0])


def sample_unitary(spec, seed: int) -> AMatrix:
    """The unitary factor of the QR decomposition of each block of
    ``sample(spec, seed)``, its phases fixed by R's diagonal so that it is
    seed-stable."""
    def unitary(z):
        q, r = np.linalg.qr(z)
        ph = np.diag(r).copy()
        ph[ph == 0] = 1.0
        return q * (ph / np.abs(ph))
    return _sample_blocks(spec, seed, unitary)


def shared_block_dev(x, y) -> float:
    """The largest entry of x - y over the degree pairs representable in
    the windows of both GradedOperators x and y."""
    lo, hi = max(x.window.lo, y.window.lo), min(x.window.hi, y.window.hi)
    keys = {k for k in set(x.blocks) | set(y.blocks)
            if lo <= k[0] <= hi and lo <= k[1] <= hi}
    return max(((x.block(i, j) - y.block(i, j)).max_abs() for i, j in keys), default=0.0)


def compose(outer, inner) -> LinearMapTable:
    """The table outer o inner, which reads what ``inner`` reads; a row hint
    describes the inner map's input only."""
    assert inner.spec == outer.spec and inner.q == outer.p
    return LinearMapTable(inner.spec, inner.p, outer.q,
                          lambda x, row: outer.apply(inner.apply(x, row)),
                          reads=inner.reads)
