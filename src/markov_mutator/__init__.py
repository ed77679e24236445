"""Exact mutation engine for rank-3 skew-symmetrizable matrices.

Matrices live as validated six-tuples (x, y, z, x', y', z'), their
skew-symmetrizations as triples of exact surds or floats. On top of the
mutation and gamma maps sit: the cluster-cyclicity decision with
certificates, M1/M2/M3 and case A/B classification, fundamental-domain
reduction, bounded orbit search, exhaustive enumeration of
descent-minimal triples by Markov constant, and the surd arithmetic
that keeps everything exact.
"""

from .classify import (
    ABClass,
    ABKind,
    CyclicityCertificate,
    MkClass,
    SequenceBehavior,
    ab_class,
    analyze_12_sequence,
    chebyshev_u,
    cyclicity,
    descent_step,
    find_negative_in_12_orbit,
    integer_fixed_points,
    is_cluster_cyclic,
    is_cluster_positive,
    is_fixed_point,
    mk_class,
    mk_class_matm,
    one_two_orbit,
)
from .enumeration import (
    M1Representative,
    enumerate_m1,
    surjectivity_witness,
    surjectivity_witness_alt,
)
from .errors import (
    INT64_MAX,
    INT64_MIN,
    DomainError,
    IterationCapExceeded,
    MarkovMutatorError,
    NotClusterCyclic,
    NotInShat,
    OverflowLimitError,
    ProductMismatch,
    RadicandMismatch,
    ResourceError,
    SignMismatch,
    ValidationError,
)
from .matrices import (
    CyclicityClass,
    MatM,
    MutationPath,
    TripleS,
    gamma_m,
    gamma_s,
    markov_c_m,
    markov_c_m_abs,
    markov_c_s,
    mutate,
    permute,
    sk,
)
from .orbits import (
    OrbitBfsResult,
    OrbitReport,
    lift_to_matm,
    mu_orbit_search_acyclic,
    orbit_bfs,
    reduce_to_fundamental,
)
from .surd import Surd, surd_from_integer_square

__version__ = "0.1.0"

__all__ = [
    "ABClass",
    "ABKind",
    "CyclicityCertificate",
    "CyclicityClass",
    "DomainError",
    "INT64_MAX",
    "INT64_MIN",
    "IterationCapExceeded",
    "M1Representative",
    "MarkovMutatorError",
    "MatM",
    "MkClass",
    "MutationPath",
    "NotClusterCyclic",
    "NotInShat",
    "OrbitBfsResult",
    "OrbitReport",
    "OverflowLimitError",
    "ProductMismatch",
    "RadicandMismatch",
    "ResourceError",
    "SequenceBehavior",
    "SignMismatch",
    "Surd",
    "TripleS",
    "ValidationError",
    "ab_class",
    "analyze_12_sequence",
    "chebyshev_u",
    "cyclicity",
    "descent_step",
    "enumerate_m1",
    "find_negative_in_12_orbit",
    "gamma_m",
    "gamma_s",
    "integer_fixed_points",
    "is_cluster_cyclic",
    "is_cluster_positive",
    "is_fixed_point",
    "lift_to_matm",
    "markov_c_m",
    "markov_c_m_abs",
    "markov_c_s",
    "mk_class",
    "mk_class_matm",
    "mu_orbit_search_acyclic",
    "mutate",
    "one_two_orbit",
    "orbit_bfs",
    "permute",
    "reduce_to_fundamental",
    "sk",
    "surd_from_integer_square",
    "surjectivity_witness",
    "surjectivity_witness_alt",
]
