"""Simulation layer: calendar, prices, config, world driver, scenario."""

from repro.sim.calendar import (
    BERLIN_FORK_MONTH,
    FLASHBOTS_LAUNCH_MONTH,
    LONDON_FORK_MONTH,
    OBSERVATION_END_MONTH,
    OBSERVATION_START_MONTH,
    SEARCHER_EXODUS_MONTH,
    STUDY_MONTHS,
    TAICHI_SHUTDOWN_MONTH,
    StudyCalendar,
)
from repro.sim.config import ScenarioConfig
from repro.sim.prices import GasDemandModel, PriceUniverse, \
    TokenPriceProcess
from repro.sim.scenario import INITIAL_PRICES, build_paper_scenario, \
    restore_paper_scenario, scenario_frame
from repro.sim.shard import (
    EpochResult,
    EpochRunner,
    plan_epochs,
    resimulate_and_splice,
    resimulate_epochs,
    splice_epochs,
)
from repro.sim.world import EpochSeal, SimulationResult, World, \
    epoch_stream_seed

__all__ = [
    "BERLIN_FORK_MONTH", "EpochResult", "EpochRunner", "EpochSeal",
    "FLASHBOTS_LAUNCH_MONTH", "GasDemandModel",
    "INITIAL_PRICES", "LONDON_FORK_MONTH", "OBSERVATION_END_MONTH",
    "OBSERVATION_START_MONTH", "PriceUniverse", "SEARCHER_EXODUS_MONTH",
    "STUDY_MONTHS", "ScenarioConfig", "SimulationResult",
    "StudyCalendar", "TAICHI_SHUTDOWN_MONTH", "TokenPriceProcess",
    "World", "build_paper_scenario", "epoch_stream_seed",
    "plan_epochs", "resimulate_and_splice", "resimulate_epochs",
    "restore_paper_scenario", "scenario_frame", "splice_epochs",
]
