"""spotplan: cost-optimal Spot/On-Demand cluster planning for deep learning.

Importing the package loads none of its modules.  Each exported name is
imported from its submodule on first access (PEP 562), so a command or a
library user pays only for the modules it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    name: module
    for module, names in {
        "catalog": (
            "Catalog",
            "CatalogError",
            "CatalogParseError",
            "CatalogValidationError",
            "InstanceSpec",
            "Kind",
            "as_price",
            "bundled_aws_catalog",
            "bundled_simulated_catalog",
            "load_catalog",
            "load_catalog_file",
        ),
        "scaling": (
            "DEFAULT_PARAMS",
            "REFERENCE_MODEL_FITS",
            "InsufficientDataError",
            "LogisticParams",
            "NonConvergenceError",
            "ScalingSource",
            "SpeedupSample",
            "UnitScaling",
            "average_params",
            "fit_logistic",
            "s_average",
            "s_hybrid",
            "scaling_factor",
            "superlinear_from",
        ),
        "saturation": (
            "SaturationTable",
            "default_saturation_table",
            "load_saturation",
            "load_saturation_file",
            "min_cpu_count",
            "n_sat_lookup",
        ),
        "planner": (
            "SINGLE_ANCHOR",
            "TIERING",
            "ClusterPlan",
            "FloppScore",
            "PlanRequest",
            "flopp",
            "recommend",
        ),
        "simulator": (
            "plan_cost_first",
            "plan_noscale",
            "plan_performance_first",
            "DEFAULT_POLICIES",
            "SweepPoint",
            "SweepResult",
            "SweepSpec",
            "estimate_cost",
            "evaluate_performance",
            "run_sweep",
            "sweep_rows",
            "sweep_to_csv",
            "sweep_to_json",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
