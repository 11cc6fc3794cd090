"""Thermal-aware test scheduling for core-based SoCs.

Builds test schedules whose sessions respect a peak-temperature limit:
a cheap per-session thermal characteristic guides greedy session packing,
and a steady-state resistive-network simulator validates every session
before it is accepted.
"""

from .floorplan import (
    CoreGeometry,
    Floorplan,
    FloorplanError,
    PowerProfile,
    PowerProfileError,
    parse_floorplan,
    parse_power_profile,
)
from .scheduler import (
    AttemptBudgetError,
    CompiledDie,
    Schedule,
    SchedulerConfig,
    ScreeningError,
    TestSession,
    compile_die,
    generate_schedule,
    schedule_to_json,
)
from .thermal_model import (
    ThermalParams,
    load_thermal_params,
    session_stc,
)
from .thermal_sim import (
    RESIDUAL_RTOL,
    NetworkSolveError,
    SimulationResult,
    ThermalNetwork,
    build_network,
    simulate_session,
)

__version__ = "0.1.0"

__all__ = [
    "RESIDUAL_RTOL",
    "AttemptBudgetError",
    "CompiledDie",
    "CoreGeometry",
    "Floorplan",
    "FloorplanError",
    "NetworkSolveError",
    "PowerProfile",
    "PowerProfileError",
    "Schedule",
    "SchedulerConfig",
    "ScreeningError",
    "SimulationResult",
    "TestSession",
    "ThermalNetwork",
    "ThermalParams",
    "build_network",
    "compile_die",
    "generate_schedule",
    "load_thermal_params",
    "parse_floorplan",
    "parse_power_profile",
    "schedule_to_json",
    "session_stc",
    "simulate_session",
]
