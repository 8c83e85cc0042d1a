"""Linear resolutions of quadratic monomial ideals and their powers.

Decision routes that must agree, and are made to confront each other:
chordality of the complement graph, explicit linear-quotients orders,
graded Betti tables over chosen fields, and the x-degree of a reduced
toric basis of the Rees relations.  Disagreement raises Falsification
rather than picking a winner.
"""

from .betti import (
    GF2,
    QQ,
    BettiTable,
    FieldSpec,
    check_polarization,
    checked_tables,
    hochster_oracle,
    is_linear_resolution,
    koszul_betti,
    koszul_tables,
    powers_linear_report,
)
from .errors import (
    BudgetExhausted,
    Falsification,
    InputError,
    PreconditionError,
    ResourceGuard,
)
from .graphs import (
    CheckResult,
    Chordality,
    Graph,
    SimplicialComplex,
    check_free_vertex_squares,
    check_star,
    check_star_star,
    clique_complex,
    complement,
    dirac_labeling,
    edge_ideal,
    graph_from_json,
    graph_of_ideal,
    graph_to_json,
    is_chordal,
    leaf_order,
    maximal_cliques,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    default_names,
    format_monomial,
    ideal_from_json,
    ideal_from_strings,
    ideal_to_json,
    monomial_from_support,
    parse_monomial,
)
from .quotients import (
    construct_lq_order,
    find_lq_order,
    has_linear_quotients,
    isolated_squares,
)
from .rank import rank_gf2, rank_sparse
from .rees import (
    Binomial,
    ReesRing,
    TermOrder,
    ToricBasis,
    WalkBinomial,
    WalkCrossCheck,
    XDegreeReport,
    enumerate_primitive_even_walks,
    even_closed_walks,
    graver_basis,
    groebner_vs_walks,
    orientation_free,
    realize_walk,
    walk_to_binomial,
    toric_ideal_basis,
    x_degree_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
