"""fibrelay: random Fibonacci recursions for cooperative relay chains.

Simulates the two-term random recursion driving the signal magnitude of a
cooperative amplify-and-forward relay chain together with its companion
noise-power system, estimates the growth rate (upper Lyapunov exponent) of
both, checks the capacity and transmit-power scaling laws empirically, and
calibrates the amplification gain to the zero-growth operating point.
"""

__version__ = "0.1.0"

# cocycle first: it is the largest module, and when it is compiled from
# source (no bytecode cache) its parse tree is the biggest transient of the
# import; compiled before numpy loads, it does not raise peak memory.  scipy
# is not imported here at all: only the lognormal model loads it, on its
# first draw
from .cocycle import CSV_HEADER, NetworkConfig, Trajectory, run_trajectory
# no module of the package imports the sequential test kernels, but the
# benchmark's preflight (perfbench/run.py) reads fibrelay._kernels.info_steps
# as an attribute of the package after ``import fibrelay``
from . import _kernels  # noqa: F401
from .calibrate import CalibrationResult, find_zero_lyapunov_gain
from .coeffs import (
    CoefficientModel,
    ConstantGain,
    Deterministic,
    GainPolicy,
    LogNormal,
    PerNodeGain,
    Rayleigh,
    RngStream,
    SignedBernoulli,
    Uniform,
    expected_log_eta,
    parse_gains,
    parse_model,
)
from .errors import (
    ConfigError,
    NumericalError,
    UnbracketableError,
    ValidationOnlyModelError,
)
from .laws import (
    LawReport,
    SlopeFit,
    ThetaBandCheck,
    check_theta_p,
    default_burn_in,
    simulate_capacity_ensemble,
    slope_estimate,
    verify_laws,
)
from .lyapunov import (
    GROWTH_RATE,
    TAIL_RATIO,
    LyapunovEstimate,
    estimate_lambda,
    estimate_lambdas,
    estimate_noise_exponent,
    lambda_deterministic_closed_form,
)
from .metrics import capacity_nats, log_capacity_nats, snr_log, transmit_power_log

__all__ = [
    "__version__",
    "CalibrationResult", "find_zero_lyapunov_gain",
    "CSV_HEADER", "NetworkConfig", "Trajectory", "run_trajectory",
    "CoefficientModel", "ConstantGain", "Deterministic", "GainPolicy",
    "LogNormal", "PerNodeGain", "Rayleigh", "RngStream", "SignedBernoulli",
    "Uniform", "expected_log_eta", "parse_gains", "parse_model",
    "ConfigError", "NumericalError", "UnbracketableError",
    "ValidationOnlyModelError",
    "LawReport", "SlopeFit", "ThetaBandCheck", "check_theta_p",
    "default_burn_in", "simulate_capacity_ensemble", "slope_estimate",
    "verify_laws",
    "GROWTH_RATE", "TAIL_RATIO", "LyapunovEstimate", "estimate_lambda",
    "estimate_lambdas", "estimate_noise_exponent", "lambda_deterministic_closed_form",
    "capacity_nats", "log_capacity_nats", "snr_log", "transmit_power_log",
]
