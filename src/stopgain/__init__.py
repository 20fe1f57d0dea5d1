"""Profit/loss distribution of a stop-protected affine feedback trading rule.

The package has four layers: parameter types and closed-form gain expressions
(:mod:`stopgain.model`), the distribution functions (:mod:`stopgain.cdf`), a
seeded Monte Carlo sampler (:mod:`stopgain.simulate`) and the comparison
harness tying the two together (:mod:`stopgain.verify`).  The ``stopgain``
command line wraps all of it.
"""

from .cdf import (
    BRANCH_FLOOR,
    BRANCH_MIDDLE,
    BRANCH_NO_STOP,
    BRANCH_UPPER,
    CdfQuery,
    CdfValue,
    ShorthandContext,
    a_of_x,
    cdf_no_stop,
    cdf_with_stop,
    joint_cdf_stopped,
    joint_cdf_unstopped,
    joint_survival,
    omega,
    std_normal_cdf,
    stopping_time_cdf,
    theta,
)
from .errors import (
    DomainError,
    EmptySampleError,
    ParameterError,
    RegimeError,
    ResourceError,
    StopgainError,
)
from .model import (
    MarketParams,
    Regime,
    TradeSpec,
    check_survivability,
    expected_gain_lower_bound,
    g_star,
    g_star_t,
    gain,
    gain_no_stop,
    timid_floor,
    z_star,
)
from .simulate import (
    BatchResult,
    PathGrid,
    PathTrajectory,
    TrajectoryStats,
    path_trajectory,
    run_batch,
)
from .verify import (
    ComparisonReport,
    EmpiricalCdf,
    FigureResult,
    LegResult,
    PropertyReport,
    compare,
    comparison_grid,
    empirical_cdf,
    law_report,
    property_report,
    property_suite,
    replicate,
    reproduce_figure,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StopgainError",
    "ParameterError",
    "RegimeError",
    "DomainError",
    "ResourceError",
    "EmptySampleError",
    # model
    "MarketParams",
    "TradeSpec",
    "Regime",
    "z_star",
    "g_star",
    "g_star_t",
    "timid_floor",
    "gain",
    "gain_no_stop",
    "check_survivability",
    "expected_gain_lower_bound",
    # cdf
    "std_normal_cdf",
    "ShorthandContext",
    "CdfQuery",
    "CdfValue",
    "BRANCH_FLOOR",
    "BRANCH_MIDDLE",
    "BRANCH_UPPER",
    "BRANCH_NO_STOP",
    "a_of_x",
    "cdf_no_stop",
    "omega",
    "stopping_time_cdf",
    "joint_survival",
    "theta",
    "joint_cdf_stopped",
    "joint_cdf_unstopped",
    "cdf_with_stop",
    # simulate
    "PathGrid",
    "PathTrajectory",
    "BatchResult",
    "TrajectoryStats",
    "path_trajectory",
    "run_batch",
    # verify
    "EmpiricalCdf",
    "ComparisonReport",
    "FigureResult",
    "LegResult",
    "PropertyReport",
    "empirical_cdf",
    "compare",
    "comparison_grid",
    "law_report",
    "property_report",
    "replicate",
    "reproduce_figure",
    "property_suite",
]
