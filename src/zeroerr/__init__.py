"""Zero-error source/channel coding quantities on probabilistic graphs."""

from .graphs import (
    Budget,
    BudgetExceeded,
    ChannelSpec,
    Distribution,
    Graph,
    ProbabilisticGraph,
    Undecided,
    UnionLayout,
    ZeroErrError,
    and_power,
    and_product,
    catalog_get,
    characteristic_graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    induced_subgraph,
    path,
    uniform_pgraph,
)
from .combin import (
    AlphaResult,
    ChiResult,
    Coloring,
    HChiResult,
    IndependentSetWitness,
    alpha_exact,
    chromatic_number_exact,
    clique_cover_number,
    maximal_independent_sets,
    min_entropy_coloring,
    omega_exact,
)
from .symmetry import (
    find_odd_hole,
    is_perfect,
    srg_parameters,
)
from .numopt import (
    FiniteFieldMatrix,
    KornerSolution,
    capacity_achieving_distribution,
    haemers_bound,
    korner_entropy,
    relative_capacity_perfect,
    sum_channel_weights,
    theta_transitive,
)
from .bounds import (
    BoundInterval,
    Certificate,
    c0_bounds,
    c_rel_bounds,
    h0_bounds,
    hbar_bounds,
)
from .typicality import (
    SequenceType,
    TypicalSet,
    eta_bounds,
    type_of,
    type_split,
    typical_alpha_estimate,
    typical_induced_subgraph,
    typical_set,
)
from .codec import (
    AmbiguityError,
    Codebook,
    PartialSideInfoSpec,
    SiCode,
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    partial_si_roundtrip,
    sample_joint,
    shifted_codebook,
    si_roundtrip,
    si_simulate,
    sum_channel_roundtrip,
)
from .verifier import VerifyConfig, full_suite

__version__ = "0.1.0"
