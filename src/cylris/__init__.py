"""Beam-synthesis toolkit for cylindrical reconfigurable reflecting surfaces."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ConfigError, CylrisError, NumericalError
from .geometry import (
    AngularGrid,
    CylinderGeometry,
    SteeringSpec,
    incident_field,
    phase_function,
    wrap_angle,
)
from .exact_synth import (
    ImpedanceProfile,
    ModalExpansion,
    boundary_residual,
    far_field_exact,
    modal_coefficients,
    modal_sum,
    scattered_surface_field,
    surface_impedance,
)
from .go_synth import (
    GoProfile,
    expansion_from_surface_field,
    far_field_po,
    go_impedance,
)
from .discrete_model import (
    ElementArray,
    SteeringVectorTable,
    conjugate_phase_excitation,
    far_field_discrete,
    reference_beamwidth,
    reference_window,
    steering_vector,
    steering_vector_at,
)
from .meta_atom import (
    StateTable,
    ideal_one_bit,
    load_state_table,
    state_sets_for_array,
)
from .optimizers import (
    SigmaMatrices,
    SynthesisResult,
    build_sigma,
    exhaustive_search,
    ga_synthesize,
    go_quantized,
    mpdr_relaxed,
    mpdr_synthesize,
    project_to_states,
    sll_objective,
)
from .patterns import PatternGrid, PatternMetrics, pattern_metrics

__all__ = [name for name in dir() if not name.startswith("_")]
