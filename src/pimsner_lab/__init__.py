"""Finite-section laboratory for Toeplitz-Pimsner and Cuntz-Pimsner
algebras over finite-dimensional coefficient algebras.

The package builds concrete correspondences E = l^2_n (x) A over
A = direct sums of matrix blocks, truncated Fock modules, finite-section
pipelines with exact Schur-coefficient oracles, conditional-expectation
towers, lifting machinery over the inductive-limit algebra, and completely
positive approximation certificates.
"""

from .star_core import (
    AlgebraSpec,
    Automorphism,
    ConfigurationError,
    DEFAULT_TOL,
    SpecMismatchError,
    Tolerances,
)
from .hilbert_mod import (
    AMatrix,
    CPReport,
    LinearMapTable,
    choi_cp_check,
    cp_check_auto,
    inner,
    positivity_probe,
    rank_one,
    sample,
)
from .correspondence import CorrespondenceSpec, ValidationError
from .fock import (
    FockWindow,
    GradedOperator,
    SchurRow,
    compress,
    creation_op,
    psi_amplify,
    schur_oracle,
    toeplitz_op,
    v_n,
)
from .expectation import eps_hat, ex_k, verify_cond_exp
from .lift import (
    CPAPCertificate,
    EInftyContext,
    bilateral_lift,
    cpap_certificate,
    lift_defect,
    pi_i,
    toeplitz_infty,
)
from .presets import PRESETS, build_preset, load_config, load_spec
from .lift import TOOL_VERSION as __version__

__all__ = [name for name in dir() if not name.startswith("_")]
