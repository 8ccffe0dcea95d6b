"""Optimal stopping of a binomial driver under a prescribed stopping-time law.

The package solves, verifies and simulates the problem of maximizing an
expected cost of a symmetric random walk stopped so that the stopping time
has an exactly prescribed discrete law.  The solver runs an exact
piecewise-linear backward induction over renormalized stop-mass simplices;
an independent linear program over the history tree serves as oracle; trees
of conditional stopping laws connect the two views and support splicing,
simulation and stability sweeps.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .cost import CostSpec, cost_from_json, evaluate, holder2_constant_from_range, modulus
from .dpp import (
    ConcavePL,
    DppReport,
    SimplexGrid,
    ValueTable,
    check_dpp,
    extract_policy,
    pair_sup,
    perspective,
    solve,
    strong_value,
)
from .errors import (
    ConfigError,
    CoverageError,
    DcstopError,
    NoChildrenError,
    RightShiftError,
    SizeGuardError,
    SpliceError,
    ValidationError,
)
from .lattice import (
    LatticeSpec,
    NodeId,
    PathState,
    atom_steps,
    node_to_json,
    nodes_at_step,
    root,
    spec_from_json,
    time_to_step,
)
from .measures import (
    DiscreteMeasure,
    MonotoneCoupling,
    ceiling_project,
    is_right_shift_of,
    measure_from_json,
    measure_to_json,
    monotone_coupling,
    w1_distance,
)
from .mvm import (
    Accumulator,
    MvmReport,
    MvmTree,
    MvmViolation,
    TerminationReport,
    accumulate,
    extract_continuation,
    from_kernel,
    mvm_to_json,
    splice,
    termination,
    to_kernel,
    validate,
)
from .oracle import (
    LpProblem,
    LpSolution,
    build_lp,
    lp_solution_to_kernel,
    oracle_value,
    solve_lp,
)
from .rst import (
    SimReport,
    StoppingKernel,
    feasible_kernel,
    kernel_to_json,
    marginal_of,
    objective_value,
    push_right_with_shift,
    simulate,
)
from .stability import (
    CheckReport,
    blend_measures,
    concavity_check,
    convergence_sweep,
    push_right_identity_check,
    rows_to_csv,
)

# The names imported above, without the submodules the imports bind.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
