"""Copula Bayesian Networks for continuous density estimation.

Kernel-estimated marginals, uniform-correlation Gaussian local copulas on a
DAG, BIC-scored greedy structure search, missing-data learning through a
decomposable likelihood lower bound, forward sampling, a linear-Gaussian
Bayesian-network baseline, and a benchmark harness.
"""

from .cbn import (
    CbnModel,
    EnergyCheckResult,
    energy_identity_check,
    fit_complete,
    fit_missing,
    forward_sample,
    log_density,
    log_density_rows,
    lower_bound,
    lower_bound_rows,
)
from .copula import (
    conditional_z_params,
    copula_log_density,
    copula_log_density_rows,
    fit_rho,
    ratio_log,
    rho_bounds,
    uniform_sigma_logdet,
)
from .dag import Dag
from .data import (
    ExperimentProtocol,
    MaskedDataset,
    apply_missing_mask,
    derive_seed,
    load_csv,
    make_split,
    prepare_communities_csv,
    save_csv,
)
from .errors import (
    ConvergenceError,
    CopulaBnError,
    DataError,
    DegenerateColumnError,
    DegenerateInputError,
    EmptyInputError,
    InvalidInputError,
    InvalidRhoError,
    NumericalError,
    OutOfRangeError,
    ParseError,
    SingularDesignError,
    TooFewRowsError,
    ValidationError,
)
from .gaussian_bn import (
    LinearGaussianBn,
    em_fit_lg,
    fit_complete_lg,
    joint_gaussian,
    log_marginal_lg,
    log_marginal_lg_rows,
)
from .marginals import KdeMarginal, fit_kde
from .model_io import deserialize, serialize
from .structure import (
    ScoredStructure,
    SearchConfig,
    bic_penalty,
    greedy_search,
)

__version__ = "0.1.0"

__all__ = [
    "CbnModel",
    "ConvergenceError",
    "CopulaBnError",
    "Dag",
    "DataError",
    "DegenerateColumnError",
    "DegenerateInputError",
    "EmptyInputError",
    "EnergyCheckResult",
    "ExperimentProtocol",
    "InvalidInputError",
    "InvalidRhoError",
    "KdeMarginal",
    "LinearGaussianBn",
    "MaskedDataset",
    "NumericalError",
    "OutOfRangeError",
    "ParseError",
    "ScoredStructure",
    "SearchConfig",
    "SingularDesignError",
    "TooFewRowsError",
    "ValidationError",
    "apply_missing_mask",
    "bic_penalty",
    "conditional_z_params",
    "copula_log_density",
    "copula_log_density_rows",
    "derive_seed",
    "deserialize",
    "em_fit_lg",
    "energy_identity_check",
    "fit_complete",
    "fit_complete_lg",
    "fit_kde",
    "fit_missing",
    "fit_rho",
    "forward_sample",
    "greedy_search",
    "joint_gaussian",
    "load_csv",
    "log_density",
    "log_density_rows",
    "log_marginal_lg",
    "log_marginal_lg_rows",
    "lower_bound",
    "lower_bound_rows",
    "make_split",
    "prepare_communities_csv",
    "ratio_log",
    "rho_bounds",
    "save_csv",
    "serialize",
    "uniform_sigma_logdet",
    "__version__",
]
