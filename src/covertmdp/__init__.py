"""Detection-averse control for finite Markov decision processes.

An agent maximizes discounted reward while an action-blind observer runs a
Bayesian filter over its state. The package solves the no-observer problem
(``mdp``), models the observer and the joint state-belief dynamics
(``belief``), solves the joint problem exactly on a belief lattice
(``augmented``), plans approximately over a receding horizon (``rho``),
and simulates the closed loop (``sim``).
"""

from .augmented import (
    AugmentedValueFunction,
    SimplexGrid,
    build_simplex_grid,
    greedy_action,
    interpolate_value,
    interpolation_weights,
    solve_augmented_vi,
)
from .belief import (
    ObservationModel,
    admissible_actions,
    augmented_transition_support,
    bayes_update,
    make_belief,
    point_belief,
    stage_penalty,
    uniform_belief,
)
from .errors import (
    CovertMdpError,
    EmptyAdmissibleSet,
    IllDefinedUpdate,
    MixedConfig,
    ModelFormatError,
    NoAdmissibleSequence,
    ProhibitedAction,
    SizeOverflow,
)
from .mdp import (
    MdpModel,
    Policy,
    VIResult,
    extract_nominal_policy,
    induced_chain,
    load_model_file,
    nominal_value_iteration,
    save_model_file,
    validate_model,
)
from .models import (
    GridWorldSpec,
    desk_gridworld,
    example1_model,
    gridworld_model,
)
from .rho import (
    PlannerConfig,
    PlanResult,
    SequenceScore,
    plan,
)
from .sim import (
    AugmentedValueController,
    NominalController,
    RecedingHorizonController,
    RunSummary,
    Trace,
    aggregate_runs,
    model_fingerprint,
    run_closed_loop,
    simulate_runs,
    step,
    write_belief_csv,
    write_trace_csv,
    write_trace_metadata,
)

__version__ = "0.1.0"
