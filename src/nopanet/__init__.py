"""Entanglement in coherent feedback networks of NOPAs.

Library layout:

* ``linalg``       dense matrix kernel (condition-checked solve and inverse,
                   spectra)
* ``network``      NOPA parameters and the passive interconnect
* ``dynamics``     finite-bandwidth state space and transfer function
* ``static_limit`` infinite-bandwidth transfer of any network
* ``entanglement`` two-mode squeezing spectra and EPR verdicts
* ``closed_form``  rotation form of the chain optimum and its phase classes
* ``oracles``      cross-checks: the paper's recurrence, determinant and
                   brute-force (u, v) routes, the L-pattern algebra and the
                   randomized property trial of ``nopanet verify``
* ``cli``          command-line front end (``nopanet`` entry point)
"""

from . import errors
from .closed_form import (
    THETA_INDIFFERENT,
    THETA_SUM_PI,
    THETA_SUM_ZERO,
    ClosedFormResult,
    closed_form,
    optimal_thetas,
)
from .dynamics import (
    NopaFrequencyResponse,
    StabilityReport,
    StateSpace,
    build_a1,
    build_closed_loop,
    nopa_response,
    stability,
    transfer,
)
from .entanglement import (
    SHOT_NOISE_TOTAL,
    SqueezingResult,
    VanishingSearchResult,
    squeezing,
    squeezing_spectrum,
    vanishing_search,
)
from .linalg import eigenvalues, inverse
from .network import (
    GAMMA_R_REF,
    K_REF,
    Blocks,
    NopaParams,
    PassiveNetwork,
    cfb_topology,
    partition,
    to_quadrature,
)
from .oracles import (
    RecurrenceResult,
    determinant_path,
    extract_uv,
    is_l2_matrix,
    random_l2_matrix,
    recurrences,
)
from .static_limit import (
    StaticCoefficients,
    StaticTransfer,
    single_nopa_transfer,
    static_coefficients,
    static_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GAMMA_R_REF",
    "K_REF",
    "SHOT_NOISE_TOTAL",
    "THETA_INDIFFERENT",
    "THETA_SUM_PI",
    "THETA_SUM_ZERO",
    "Blocks",
    "ClosedFormResult",
    "NopaFrequencyResponse",
    "NopaParams",
    "PassiveNetwork",
    "RecurrenceResult",
    "SqueezingResult",
    "StabilityReport",
    "StateSpace",
    "StaticCoefficients",
    "StaticTransfer",
    "VanishingSearchResult",
    "build_a1",
    "build_closed_loop",
    "cfb_topology",
    "closed_form",
    "determinant_path",
    "eigenvalues",
    "extract_uv",
    "inverse",
    "is_l2_matrix",
    "nopa_response",
    "optimal_thetas",
    "partition",
    "random_l2_matrix",
    "recurrences",
    "single_nopa_transfer",
    "squeezing",
    "squeezing_spectrum",
    "stability",
    "static_coefficients",
    "static_transfer",
    "to_quadrature",
    "transfer",
    "vanishing_search",
]
