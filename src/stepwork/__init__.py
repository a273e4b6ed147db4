"""Quantum free-energy changes from step-wise pulling work distributions."""

from .errors import (
    GridTooLarge,
    GridTooNarrow,
    MassLeak,
    StepworkError,
)
from .free_energy import (
    FreeEnergyProfile,
    exponential_average,
    free_energy_profile,
    ground_state_closed_form_center,
)
from .pathways import (
    PathwayClass,
    PathwayDecomposition,
    TransitionRecord,
    decompose_free_energy,
    find_optimal_transitions,
    overlap_measure,
)
from .protocol import (
    GridSpec,
    PullSchedule,
    build_center_schedule,
    build_spring_schedule,
    default_temperature_sweep,
)
from .spectra import (
    OscillatorSpectrum,
    ProtocolKind,
    spring_frequency,
)
from .workdist import (
    GriddedDensity,
    WorkLedger,
    fluctuation_density,
    pushforward_step_density,
    run_work_recursion,
    step_work_map,
    work_moments,
)

__version__ = "0.1.0"
