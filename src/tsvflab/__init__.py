"""Numerical laboratory for weak values of pre- and post-selected systems.

Exact dense simulation of von Neumann pointer couplings, analytic and
pointer-extracted weak values, weak-limit order diagnostics, and
single-particle optical networks including the nested Mach-Zehnder
interferometer with its primary/secondary presence classification.
"""

from .errors import (
    DarkDetectorError,
    FieldError,
    NonHermitianOperatorError,
    OrthogonalSelectionError,
    ScheduleError,
    UnclassifiedOrderError,
)
from .interferometer import (
    ArmPresence,
    BeamSplitter,
    OpticalNetwork,
    PhaseShift,
    PresenceReport,
    TimeSlice,
    TwoStateVector,
    arm_weak_value,
    back_propagate,
    build_nested_mzi,
    classify_presence,
    detection_probabilities,
    network_overlap,
    propagate,
    slice_weak_values,
    two_state_vector,
    weak_trace,
    weak_trace_sweep,
    weak_trace_sweeps,
)
from .limits import (
    LimitComparison,
    LimitPoint,
    SweepResult,
    classify_order,
    compare_limits,
    continuity_metric,
    derail_metric,
    first_order_residual,
    fit_order,
    overlap_deficit,
    sweep_metric,
)
from .pointer import (
    PointerModel,
    gaussian_pointer,
    grid_coordinates,
    initial_state,
    moments,
    qubit_pointer,
    translation_generator,
)
from .qcore import (
    CouplingEvolution,
    JointState,
    LinearOperator,
    StateVector,
    basis_state,
    first_order_state,
    identity,
    inner,
    pauli_x,
    pauli_y,
    pauli_z,
    projector,
    spin_down_x,
    spin_down_z,
    spin_up_x,
    spin_up_z,
    tensor_product,
)
from .scenario import (
    ExperimentPlan,
    ParseDiagnostic,
    ScenarioDoc,
    ScenarioResult,
    load_corpus,
    load_corpus_text,
    parse,
    serialize,
    validate_semantics,
)
from .schedule import GSchedule, SpreadSchedule, default_g_decade, default_g_schedule
from .weakmeas import (
    PrePostSelection,
    WeakValueEstimate,
    estimate_weak_value,
    expectation,
    time_reverse,
    weak_value,
)

__version__ = "0.1.0"
