"""evfleetsim: deterministic discrete-event simulation of electric vehicle
fleets, their energy flows, charging infrastructure, and trip demand."""

__version__ = "0.1.0"

from .config import (ConfigError, ScenarioConfig, default_scenario_path,
                     load_config)
from .simulation import RunResult, run_scenario, sweep
