"""Exact automorphism groups of finite-dimensional evolution algebras.

Core objects: fields and scalars (:mod:`evoaut.scalar`), evolution algebras
and their structural predicates (:mod:`evoaut.algebra`; an algebra's edge
list is its associated weighted graph), symmetries of that graph
(:mod:`evoaut.wgraph`), monomial constraint systems solved by
integer Smith normal form (:mod:`evoaut.monomial`, :mod:`evoaut.snf`), the
automorphism-group assembly with brute-force oracles (:mod:`evoaut.autgroup`),
and truncated inverse limits (:mod:`evoaut.limits`).
"""

from .algebra import (
    BasisChange,
    EvolutionAlgebra,
    Naturality,
    is_natural_vector,
    same_orbit,
    verify_unique_basis_up_to_scaling,
)
from .autgroup import (
    AutPresentation,
    MonomialAutomorphism,
    assemble_aut,
    bruteforce_aut,
    bruteforce_aut_count,
    compose,
    diag_coset,
    diag_group,
    diag_system,
    invert,
    twisted_limit,
    twisted_system,
)
from .errors import EvoautError
from .limits import (
    ChainSpec,
    TruncatedLimit,
    loop_chain_algebra,
    loop_chain_diag_group,
    tate_module_2,
    tate_stationary_index,
    truncated_chain,
    verify_stationary_collapse,
)
from .monomial import (
    GroupDescription,
    MonomialSystem,
    SolutionCoset,
    enumerate_solutions_bruteforce,
    solve_homogeneous,
    solve_inhomogeneous,
)
from .scalar import PrimeField, QQ, RationalField, Scalar, dlog, mu_order, nth_roots
from .snf import SmithDecomposition, smith_normal_form
from .wgraph import GraphAutomorphism, enumerate_graph_automorphisms, tree_of

__version__ = "1.0.0"

__all__ = [
    "AutPresentation",
    "BasisChange",
    "ChainSpec",
    "EvolutionAlgebra",
    "EvoautError",
    "GraphAutomorphism",
    "GroupDescription",
    "MonomialAutomorphism",
    "MonomialSystem",
    "Naturality",
    "PrimeField",
    "QQ",
    "RationalField",
    "Scalar",
    "SmithDecomposition",
    "SolutionCoset",
    "TruncatedLimit",
    "assemble_aut",
    "bruteforce_aut",
    "bruteforce_aut_count",
    "compose",
    "diag_coset",
    "diag_group",
    "diag_system",
    "loop_chain_algebra",
    "loop_chain_diag_group",
    "dlog",
    "enumerate_graph_automorphisms",
    "enumerate_solutions_bruteforce",
    "invert",
    "is_natural_vector",
    "mu_order",
    "nth_roots",
    "same_orbit",
    "smith_normal_form",
    "solve_homogeneous",
    "solve_inhomogeneous",
    "tate_module_2",
    "tate_stationary_index",
    "tree_of",
    "truncated_chain",
    "twisted_limit",
    "twisted_system",
    "verify_stationary_collapse",
    "verify_unique_basis_up_to_scaling",
]
