"""Divergence functionals on mixture paths.

The package evaluates convex divergences between finite discrete
distributions, applies an integral operator that contracts them and a
differential operator that expands them along mixture paths, provides
closed-form polylogarithm divergence sequences, and ships a verification
harness that property-tests every claimed inequality.
"""
from .errors import DomainError, NonFiniteError, SpecError, ToleranceError
from .distributions import (
    Distribution,
    MixturePath,
    mixture,
    new_distribution,
    random_distribution,
)
from .divergences import (
    BregmanSpec,
    DivergenceFunctional,
    FDivergenceSpec,
    NAMED_IDENTIFIERS,
    Orientation,
    evaluate,
    make_bregman,
    make_f_divergence,
    named_divergence,
    path_derivative,
    swap_orientation,
)
from .chebyshev import ChebyshevInterpolant, lobatto_nodes
from .polylog import polylog, polylog_series
from .operators import (
    OperatorResult,
    psi,
    psi_inverse,
    psi_iter,
)
from .sequences import hellinger_psi, hellinger_psi_inverse, pl, sl
from .verify import (
    PropertyCheck,
    VerificationReport,
    check_derivative_dominates,
    check_integral_contraction,
    check_iterated_chain,
    check_path_invariance,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NonFiniteError",
    "SpecError",
    "ToleranceError",
    "Distribution",
    "MixturePath",
    "mixture",
    "new_distribution",
    "random_distribution",
    "BregmanSpec",
    "DivergenceFunctional",
    "FDivergenceSpec",
    "NAMED_IDENTIFIERS",
    "Orientation",
    "evaluate",
    "make_bregman",
    "make_f_divergence",
    "named_divergence",
    "path_derivative",
    "swap_orientation",
    "ChebyshevInterpolant",
    "lobatto_nodes",
    "polylog",
    "polylog_series",
    "OperatorResult",
    "psi",
    "psi_inverse",
    "psi_iter",
    "hellinger_psi",
    "hellinger_psi_inverse",
    "pl",
    "sl",
    "PropertyCheck",
    "VerificationReport",
    "check_derivative_dominates",
    "check_integral_contraction",
    "check_iterated_chain",
    "check_path_invariance",
    "run_suite",
    "__version__",
]
