"""The package's public names: each module's ``__all__``, re-exported once."""

from itertools import combinations

import stopgain
from stopgain import cdf, errors, model, simulate, verify

MODULES = (errors, model, cdf, simulate, verify)

PUBLIC = {
    "__version__",
    # errors
    "StopgainError", "ParameterError", "DomainError", "ResourceError",
    "EmptySampleError",
    # model
    "MarketParams", "TradeSpec", "z_star", "g_star_t", "gain",
    "check_survivability", "expected_gain_lower_bound",
    # cdf
    "BRANCH_FLOOR", "BRANCH_MIDDLE", "BRANCH_UPPER", "BRANCH_NO_STOP", "ShorthandContext",
    "CdfQuery", "CdfValue", "a_of_x", "cdf_no_stop", "stopping_time_cdf",
    "omega", "theta", "joint_cdf_stopped", "joint_cdf_unstopped", "cdf_with_stop",
    # simulate
    "PathGrid", "PathTrajectory", "BatchResult", "TrajectoryStats", "path_trajectory",
    "run_batch",
    # verify
    "ComparisonReport", "LegResult", "PropertyReport", "FigureResult",
    "FIGURE_PARAMS", "compare", "comparison_grid", "law_report",
    "property_report", "reproduce_figure",
}


def test_module_lists_are_disjoint():
    # a star import would let a later module shadow an earlier one's name
    for a, b in combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_every_export_resolves_to_its_module():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(stopgain, name) is getattr(mod, name)
    assert all(hasattr(stopgain, name) for name in stopgain.__all__)


def test_public_names():
    assert len(stopgain.__all__) == len(PUBLIC)
    assert set(stopgain.__all__) == PUBLIC
