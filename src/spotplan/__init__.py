"""spotplan: cost-optimal Spot/On-Demand cluster planning for deep learning."""

from .catalog import (
    Catalog,
    CatalogError,
    CatalogParseError,
    CatalogValidationError,
    InstanceSpec,
    Kind,
    as_price,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    load_catalog,
    load_catalog_file,
)
from .scaling import (
    DEFAULT_PARAMS,
    REFERENCE_MODEL_FITS,
    InsufficientDataError,
    LogisticParams,
    NonConvergenceError,
    ScalingSource,
    SpeedupSample,
    UnitScaling,
    average_params,
    fit_logistic,
    s_average,
    s_hybrid,
    scaling_factor,
    superlinear_from,
)
from .saturation import (
    SaturationTable,
    default_saturation_table,
    load_saturation,
    load_saturation_file,
    min_cpu_count,
    n_sat_lookup,
)
from .planner import (
    SINGLE_ANCHOR,
    TIERING,
    ClusterPlan,
    FloppScore,
    PlanRequest,
    flopp,
    plan_single_anchor,
    plan_tiering,
    recommend,
)
from .baselines import plan_cost_first, plan_noscale, plan_performance_first
from .simulator import (
    DEFAULT_POLICIES,
    SweepPoint,
    SweepResult,
    SweepSpec,
    estimate_cost,
    evaluate_performance,
    run_sweep,
    sweep_rows,
    sweep_to_csv,
    sweep_to_json,
)

__version__ = "0.1.0"
