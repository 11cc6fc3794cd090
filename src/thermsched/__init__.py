"""Thermal-aware test scheduling for core-based SoCs.

Builds test schedules whose sessions respect a peak-temperature limit:
a cheap per-session thermal characteristic guides greedy session packing,
and a steady-state resistive-network simulator validates every session
before it is accepted.
"""

from .floorplan import (
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    parse_floorplan,
    parse_power_profile,
)
from .scheduler import (
    SchedulerConfig,
    ScreeningError,
    compile_die,
    generate_schedule,
    schedule_to_json,
)
from .thermal_model import ThermalParams
from .thermal_sim import NetworkSolveError, build_network, simulate_session

__version__ = "0.1.0"

__all__ = [
    "Floorplan",
    "FloorplanError",
    "NetworkSolveError",
    "PowerProfile",
    "PowerProfileError",
    "SchedulerConfig",
    "ScreeningError",
    "ThermalParams",
    "build_network",
    "compile_die",
    "generate_schedule",
    "parse_floorplan",
    "parse_power_profile",
    "schedule_to_json",
    "simulate_session",
]
