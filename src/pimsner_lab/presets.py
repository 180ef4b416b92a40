"""Built-in correspondence presets and config-file loading.

Four presets exercise the four qualitatively different corners of the
family: the Cuntz correspondence (trivial coefficients, multiplicity 2),
a cyclic group action (commutative coefficients, bimodule case), a twisted
multiplicity-2 correspondence mixing a swap automorphism with a nontrivial
unitary, and an irrational-angle inner rotation on M_2.

Config files are JSON with the same fields a preset would produce:
``block_dims``, ``n``, ``unitary`` (nested [block][n][n] scalars, or
[block][n][n][d][d]), ``alphas`` (objects {perm, unitaries}, the unitaries
nested [block][d][d]), and optional ``max_degree`` and string ``name``.
Every leaf is a number or an [re, im] pair.  ``block_dims``, ``n``,
``perm`` and ``max_degree`` are JSON integers, ``max_degree`` at least 1.
"""

from __future__ import annotations

import json

import numpy as np

from .star_core import AlgebraSpec, Automorphism, ConfigurationError
from .hilbert_mod import AMatrix
from .correspondence import CorrespondenceSpec

__all__ = ["PRESETS", "build_preset", "load_config", "load_spec"]

GOLDEN_ANGLE = 2.0 * np.pi * 0.3819660112501051


def _unitary_from_blocks(algebra: AlgebraSpec, n: int, per_block) -> AMatrix:
    """Assemble U in M_n(A) from one (n*d_s) x (n*d_s)-shaped spec per block,
    given as a list of n x n scalar matrices acting on each algebra block."""
    if len(per_block) != algebra.n_blocks:
        raise ConfigurationError(
            f"unitary has {len(per_block)} blocks for {algebra.n_blocks} algebra blocks")
    out = AMatrix.zeros(algebra, n, n)
    for s, d in enumerate(algebra.block_dims):
        mat = np.asarray(per_block[s], dtype=complex)
        if mat.shape == (n, n):
            out.blocks[s] = mat[:, :, None, None] * np.eye(d)  # mat (x) 1_d
        elif mat.shape == (n, n, d, d):
            out.blocks[s] = mat
        else:
            raise ConfigurationError(f"unitary block {s} has shape {mat.shape}")
    return out


def _cuntz2() -> CorrespondenceSpec:
    algebra = AlgebraSpec((1,))
    ident = Automorphism.identity(algebra)
    return CorrespondenceSpec(
        algebra=algebra, n=2,
        unitary=AMatrix.eye(algebra, 2),
        alphas=(ident, ident),
        max_degree=12, name="cuntz2")


def _crossed_z3() -> CorrespondenceSpec:
    algebra = AlgebraSpec((1, 1, 1))
    shift = Automorphism(algebra, (1, 2, 0))
    return CorrespondenceSpec(
        algebra=algebra, n=1,
        unitary=AMatrix.eye(algebra, 1),
        alphas=(shift,),
        max_degree=16, name="crossed-z3")


def _twisted2() -> CorrespondenceSpec:
    algebra = AlgebraSpec((1, 1))
    ident = Automorphism.identity(algebra)
    swap = Automorphism(algebra, (1, 0))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    phase = np.diag([1.0, 1.0j])
    unitary = _unitary_from_blocks(algebra, 2, [hadamard, phase])
    return CorrespondenceSpec(
        algebra=algebra, n=2,
        unitary=unitary,
        alphas=(ident, swap),
        max_degree=12, name="twisted2")


def _rotation_m2() -> CorrespondenceSpec:
    algebra = AlgebraSpec((2,))
    t = GOLDEN_ANGLE
    v = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    rot = Automorphism(algebra, (0,), (v,))
    return CorrespondenceSpec(
        algebra=algebra, n=1,
        unitary=AMatrix.eye(algebra, 1),
        alphas=(rot,),
        max_degree=16, name="rotation-m2")


PRESETS = {
    "cuntz2": _cuntz2,
    "crossed-z3": _crossed_z3,
    "twisted2": _twisted2,
    "rotation-m2": _rotation_m2,
}


def build_preset(name: str) -> CorrespondenceSpec:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]()


def _complex_array(data, *ndims) -> np.ndarray:
    """Nested lists whose leaves are numbers or [re, im] pairs, as a complex
    array with one of ``ndims`` axes, those of the shape the caller expects
    and checks: pairs add a last axis of length 2, so the depth tells them apart.
    A NaN or infinite number (a JSON literal or a string such as "NaN") is refused."""
    arr = np.asarray(data, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigurationError("a config number is not finite (NaN or Infinity)")
    if arr.ndim in ndims:
        return arr.astype(complex)
    if arr.ndim - 1 in ndims and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ConfigurationError(f"array of shape {arr.shape}: expected {' or '.join(map(str, ndims))}"
                             " axes of numbers, or one more axis of [re, im] pairs")


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float or a bool is refused, not
    truncated."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def load_config(path: str) -> CorrespondenceSpec:
    """Build a correspondence from a JSON config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        algebra = AlgebraSpec(tuple(_json_int(d, "block_dims") for d in cfg["block_dims"]))
        n = _json_int(cfg["n"], "n")
        alphas = []
        for a in cfg["alphas"]:
            if not isinstance(a, dict):
                raise TypeError(f"each alphas entry must be an object, got {a!r}")
            perm = tuple(_json_int(p, "perm") for p in a.get("perm", range(algebra.n_blocks)))
            us = a.get("unitaries")
            if us is not None:
                us = tuple(_complex_array(u, 2) for u in us)  # (d, d) each
            alphas.append(Automorphism(algebra, perm, us))
        u_cfg = cfg.get("unitary")
        if u_cfg is None:
            unitary = AMatrix.eye(algebra, n)
        else:
            unitary = _unitary_from_blocks(
                algebra, n, [_complex_array(b, 2, 4) for b in u_cfg])  # (n, n) / (n, n, d, d)
        name = cfg.get("name", "custom")
        if type(name) is not str:
            raise TypeError(f"name must be a string, got {name!r}")
        max_degree = 0  # CorrespondenceSpec's default for n
        if "max_degree" in cfg:
            max_degree = _json_int(cfg["max_degree"], "max_degree")
            if max_degree < 1:
                raise ValueError(f"max_degree must be >= 1, got {max_degree}")
        return CorrespondenceSpec(
            algebra=algebra, n=n, unitary=unitary, alphas=tuple(alphas),
            max_degree=max_degree, name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config {path}: {exc}") from exc


def load_spec(preset: str | None, config: str | None) -> CorrespondenceSpec:
    """Resolve the mutually exclusive --preset / --config choice."""
    if (preset is None) == (config is None):
        raise ConfigurationError("exactly one of preset or config is required")
    return build_preset(preset) if preset else load_config(config)
