"""evfleetsim: deterministic discrete-event simulation of electric vehicle
fleets, their energy flows, charging infrastructure, and trip demand."""

__version__ = "0.1.0"

from .config import (ScenarioConfig, default_scenario_path, load_config,
                     validate_config)
from .simulation import RunResult, run_scenario, run_scenario_path, sweep
