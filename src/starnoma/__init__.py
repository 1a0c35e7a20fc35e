"""BER simulation and closed-form evaluation for a surface-assisted
power-domain multiple-access downlink."""

__version__ = "0.1.0"

from .analytic import (
    UserAnalyticParams,
    ber_asymptotic,
    ber_closed_form,
    ber_imperfect_sic,
    ber_numeric,
    conditional_ber,
    q_exact,
    sign_combinations,
)
from .channel import clt_moments, path_gain
from .engine import (
    BerEstimate,
    ScenarioConfig,
    StoppingRule,
    SweepResult,
    UserSpec,
    ordering_warnings,
    run_ber_point,
    run_classical_point,
    run_sweep,
    wilson_interval,
)
from .errors import (
    ConfigError,
    InvalidParameterError,
    NoErrorFloor,
    NumericError,
    StarNomaError,
    UnsupportedScenarioError,
)
from .noma import PowerAllocation
