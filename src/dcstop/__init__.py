"""Optimal stopping of a binomial driver under a prescribed stopping-time law.

The package solves, verifies and simulates the problem of maximizing an
expected cost of a symmetric random walk stopped so that the stopping time
has an exactly prescribed discrete law.  The solver runs an exact
piecewise-linear backward induction over renormalized stop-mass simplices;
an independent linear program over the history tree serves as oracle; trees
of conditional stopping laws connect the two views and support policy
extraction, simulation and stability sweeps.  The checks of the paper's
argument step by step (the dynamic programming principle, splicing, pure
rules, concavity and the right-shift identity) run in the test suite, over
these public types.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .cost import CostSpec, cost_from_json, evaluate, holder2_constant_from_range, modulus
from .dpp import (
    ConcavePL,
    SimplexGrid,
    ValueTable,
    extract_policy,
    pair_sup,
    perspective,
    solve,
)
from .errors import (
    ConfigError,
    CoverageError,
    DcstopError,
    NoChildrenError,
    SizeGuardError,
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
    ceiling_project,
    measure_from_json,
    measure_to_json,
    w1_distance,
)
from .mvm import (
    MvmTree,
    MvmViolation,
    accumulate,
    from_kernel,
    mvm_to_json,
    to_kernel,
    validate,
)
from .oracle import LpProblem, LpSolution, build_lp, lp_solution_to_kernel, solve_lp
from .rst import (
    SimReport,
    StoppingKernel,
    feasible_kernel,
    kernel_to_json,
    marginal_of,
    objective_value,
    simulate,
)
from .stability import convergence_sweep, rows_to_csv

# The names imported above, without the submodules the imports bind.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
