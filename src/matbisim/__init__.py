"""Bisimulation for transition systems and Markov reward chains via
matrix algebra: checks, quotients, coarsest-partition search, ergodic
projections, and commutation verifiers."""

from .algebra import (
    DEFAULT_ATOL,
    TAU_LABEL,
    ActionAlphabet,
    ActionMatrix,
    MatrixShapeError,
    SingularMatrixError,
    rt_closure,
    solve_linear,
)
from .partition import (
    CheckFailed,
    CheckReport,
    ModelFormatError,
    Partition,
    Search,
    Witness,
    canonical_distributor_real,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .lts import (
    Lts,
    format_lts,
    parse_lts,
    tau_closure,
    verify_branching_commutation,
    verify_weak_commutation,
)
from .mrc import (
    DistributorError,
    ErgodicProjection,
    GeneratorError,
    LimitChain,
    Mrc,
    MrcFast,
    adapt_diagonal,
    default_tau_distributor,
    ergodic_projection,
    format_mrc,
    limit_chain,
    parse_distributor,
    parse_mrc,
    tau_distributor_residuals,
    total_reward,
    transition_matrix,
    transition_matrices,
    validate_generator,
    verify_limit_commutation,
)

__version__ = "0.1.0"
