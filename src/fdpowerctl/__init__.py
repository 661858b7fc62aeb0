"""Distributed power control for full-duplex energy-harvesting uplinks."""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    ConfigError,
    HbsParams,
    Scenario,
    ScenarioConfig,
    UeTemplate,
    db_to_linear,
    dbm_to_watt,
    load_scenario,
    validate_scenario,
)
from .channel import (  # noqa: F401
    Snapshot,
    path_gain,
    sample_batch,
    snapshot_from_distances,
    snapshot_from_scenario,
)
from .core import (  # noqa: F401
    Algorithm,
    Metrics,
    hbs_update,
    joint_update,
    metrics,
    sinr,
)
from .engine import (  # noqa: F401
    IterationTrace,
    run_fixed_point,
    run_mobility,
    run_monte_carlo,
)
