"""Numerical laboratory for 1+1D relativistic wave packets and quantum
reference frames.

Positive-energy single-particle states are stored as complex amplitudes over a
rapidity grid with the Lorentz-invariant integration measure d(theta)/2; all
observable quantities (spacetime wavefunctions, inner products, propagators,
frame changes) are built on top of that representation.

Layout:

- `kinematics`: events, classical boosts, invariant intervals, the mass check
  and the velocity-to-rapidity map.
- `states`: rapidity-grid states, preparation from Gaussian spacetime
  functions, exact boosts (origin moves), resampling onto the grid,
  translations, the continuum positive-energy two-point function.
- `measurement`: detection probabilities between states and momentum
  densities.
- `frames`: branched reference-frame states, frame changes, and the exact
  cyclic-lattice twirl model.
- `coordinates`: quantum-controlled Lorentz coordinate transformations of
  event labels and the invariant distance observable.
- `scenarios`: end-to-end physics scenarios (time dilation, length/width
  contraction, superposed slices and boosts, the interference probe, the
  coordinate transform, the propagator table), each a dataclass of its
  defaults and checks plus a runner returning a `ScenarioReport`.
- `report`/`plots`: deterministic JSON/CSV serialization and SVG charts.
- `acceptance`: the oracle-backed acceptance suite (`lorentzqrf selftest`).
- `cli`: the `lorentzqrf` command line.
"""

from .coordinates import (
    EventCoordinate,
    JointCoordinateState,
    VelocityBranch,
    distance_expectation,
    transform_frame,
)
from .frames import (
    BranchedFrameState,
    CyclicLattice,
    DeltaTime,
    LatticeTwirlState,
    SharpBranch,
    SharpExternalState,
    branch_overlap_matrix,
    change_frame,
    jump_to_frame,
    superposed_slice_state,
    total_norm,
    twirl_factor_fidelity,
    twirl_lattice,
)
from .kinematics import (
    Interval,
    SpacetimePoint,
    boost_matrix,
    boost_point,
    invariant_interval,
    rapidity_of_velocity,
)
from .measurement import (
    ProbabilityReport,
    momentum_density,
    region_probability,
)
from .scenarios import (
    BoostSuperpositionScenario,
    BranchCheck,
    ContractionScenario,
    CoordinateScenario,
    DilationScenario,
    FitError,
    InterferenceScenario,
    PropagatorTableScenario,
    ScenarioReport,
    SliceScenario,
    WidthScenario,
    run_boost_superposition,
    run_coordinate_transform,
    run_length_contraction,
    run_nonrel_interference,
    run_propagator_table,
    run_superposed_slice,
    run_time_dilation,
    run_width_contraction,
)
from .states import (
    Gaussian2D,
    GaussianProfile,
    PropagatorQuery,
    RapidityGrid,
    RapidityState,
    Slice,
    TiltedSlice,
    boost_state,
    from_spacetime_function,
    kg_equation_residual,
    kg_inner,
    kg_norm,
    normalize,
    propagator,
    resample,
    slice_profile,
    translate,
    wavefunction,
    wavefunction_grid,
)

__version__ = "0.1.0"
