"""Certified interval pipelines for the zero-error quantities.

Every interval endpoint carries a certificate naming a method from the
closed registry below.  Only two directions are ever certified:
supremum-from-superadditivity for lower ends and
infimum-from-subadditivity (or single-shot sound bounds) for upper ends.
Quantities whose finite truncations bound the wrong way are exposed as
flagged estimates instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    and_power,
    and_power_graph,
    complement,
)
from .combin import (
    Budget,
    DEFAULT_BUDGET,
    alpha_exact,
    chromatic_number_exact,
    clique_cover_number,
    min_entropy_coloring,
    omega_exact,
)
from .numopt import adjacency_plus_identity, haemers_bound, korner_entropy, theta_transitive
from .symmetry import is_perfect
from .typicality import sequence_index, typical_set

REGISTRY_VERSION = 1

METHOD_REGISTRY = frozenset({
    "alpha_power",                 # lo C0: (1/n) log alpha(G^n), superadditive
    "perfect_alpha",               # lo=hi C0 on certified perfect graphs
    "clique_cover_power",          # hi C0: (1/n) log cover(G^n)
    "product_clique_cover",        # hi C0: covers multiply across AND factors
    "lovasz_theta_transitive",     # hi C0: eigenvalue theta, transitive graphs
    "haemers_rank",                # hi C0: log2 rank of a fitting matrix
    "omega_one_shot",              # lo H0: log omega(G)
    "chi_power",                   # hi H0 (and hi Hbar): (1/n) log chi(G^n)
    "hchi_power_exact",            # hi Hbar: (1/n) H_chi(G^n, P^n), exact DP
    "hchi_power_heuristic",        # hi Hbar: entropy of a valid coloring
    "korner_upper",                # hi Hbar: H_kappa >= Hbar
    "perfect_korner",              # lo=hi Hbar on certified perfect graphs
    "marton_capacity_reflect",     # lo Hbar: H(P) - hi C0
    "marton_reflect",              # C(G,P) interval from the Hbar interval
    "trivial_zero",                # lo >= 0
    "eta_scaled",                  # (1/k)-scaled product interval
})


@dataclass(frozen=True)
class Certificate:
    method: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        base = self.method.split("(", 1)[0]
        if base not in METHOD_REGISTRY:
            raise ValueError(f"method '{self.method}' not in the sound-method registry")

    def to_json_dict(self) -> dict:
        def conv(v):
            if isinstance(v, Certificate):
                return v.to_json_dict()
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {"method": self.method, "registry_version": REGISTRY_VERSION,
                "details": conv(self.details)}


@dataclass(frozen=True)
class BoundInterval:
    lo: float
    hi: float
    lo_cert: Certificate
    hi_cert: Certificate

    def __post_init__(self):
        if self.lo > self.hi + 1e-9:
            raise ZeroErrError(f"unsound interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_json_dict(self, quantity: str) -> dict:
        return {"quantity": quantity, "lo": self.lo, "hi": self.hi,
                "lo_cert": self.lo_cert.to_json_dict(),
                "hi_cert": self.hi_cert.to_json_dict()}


def scale_interval(iv: BoundInterval, factor: float, method: str) -> BoundInterval:
    return BoundInterval(iv.lo * factor, iv.hi * factor,
                         Certificate(method, {"inner": iv.lo_cert, "factor": factor}),
                         Certificate(method, {"inner": iv.hi_cert, "factor": factor}))


# ---------------------------------------------------------------------------
# C0


def c0_bounds(g: Graph, max_n: int = 1, budget: Budget = DEFAULT_BUDGET,
              vertex_budget: int = DEFAULT_VERTEX_BUDGET,
              haemers_candidates=(2, 3), extra_matrices=(), factors=None,
              perfect_budget: int = 14) -> BoundInterval:
    """Certified interval on the zero-error capacity C0(G) in bits.

    `factors`: optional AND-factorization of g; factor clique covers multiply
    to a sound one-shot cover of the product.
    `extra_matrices`: user-supplied fitting matrices (e.g. a Haemers matrix).
    """
    if g.n == 0:
        raise ValueError("empty graph")

    try:
        perfect, _, _ = is_perfect(g, perfect_budget)
    except Undecided:
        perfect = None
    if perfect:
        a = alpha_exact(g, budget)
        if a.exact:
            v = math.log2(a.size)
            cert = Certificate("perfect_alpha", {"alpha": a.size})
            return BoundInterval(v, v, cert, cert)

    lo_cands = [(0.0, Certificate("trivial_zero"))]
    hi_cands = []

    power = g
    for n in range(1, max_n + 1):
        if n > 1:
            if g.n ** n > vertex_budget:
                break
            power = and_power_graph(g, n, vertex_budget)
        a = alpha_exact(power, budget)
        lo_cands.append((math.log2(a.size) / n,
                         Certificate("alpha_power",
                                     {"n": n, "alpha": a.size, "exact": a.exact})))
        cover = clique_cover_number(power, budget)
        hi_cands.append((math.log2(cover.count) / n,
                         Certificate("clique_cover_power",
                                     {"n": n, "cover": cover.count, "exact": cover.exact})))

    if factors:
        covers = [clique_cover_number(f, budget) for f in factors]
        prod = math.prod(c.count for c in covers)
        hi_cands.append((math.log2(prod),
                         Certificate("product_clique_cover",
                                     {"factor_covers": [c.count for c in covers],
                                      "exact": all(c.exact for c in covers)})))

    if g.is_regular() and g.degree(0) > 0:
        try:
            th = theta_transitive(g)
            hi_cands.append((math.log2(th),
                             Certificate("lovasz_theta_transitive", {"theta": th})))
        except (ZeroErrError, Undecided):
            pass

    for p in haemers_candidates:
        try:
            hi_cands.append((haemers_bound(g, adjacency_plus_identity(g, p)),
                             Certificate("haemers_rank", {"field": p, "matrix": "A+I"})))
        except ZeroErrError:
            pass
    for m in extra_matrices:
        hi_cands.append((haemers_bound(g, m),
                         Certificate("haemers_rank", {"field": m.p, "matrix": "user"})))

    lo, lo_cert = max(lo_cands, key=lambda c: c[0])
    hi, hi_cert = min(hi_cands, key=lambda c: c[0])
    return BoundInterval(lo, hi, lo_cert, hi_cert)


# ---------------------------------------------------------------------------
# H0 (Witsenhausen rate)


def h0_bounds(g: Graph, max_n: int = 1, budget: Budget = DEFAULT_BUDGET,
              vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> BoundInterval:
    """Certified interval on the fixed-length rate H0(G) = lim (1/n) log chi(G^n)."""
    if g.n == 0:
        raise ValueError("empty graph")
    w = omega_exact(g, budget)
    lo_cands = [(math.log2(w.size),
                 Certificate("omega_one_shot", {"omega": w.size, "exact": w.exact}))]
    hi_cands = []
    power = g
    for n in range(1, max_n + 1):
        if n > 1:
            if g.n ** n > vertex_budget:
                break
            power = and_power_graph(g, n, vertex_budget)
        chi = chromatic_number_exact(power, budget)
        hi_cands.append((math.log2(chi.count) / n,
                         Certificate("chi_power",
                                     {"n": n, "chi": chi.count, "exact": chi.exact})))
    lo, lo_cert = max(lo_cands, key=lambda c: c[0])
    hi, hi_cert = min(hi_cands, key=lambda c: c[0])
    return BoundInterval(lo, hi, lo_cert, hi_cert)


# ---------------------------------------------------------------------------
# Hbar (complementary graph entropy)


def hbar_bounds(pg: ProbabilisticGraph, max_n: int = 1, budget: Budget = DEFAULT_BUDGET,
                vertex_budget: int = DEFAULT_VERTEX_BUDGET, hchi_exact_limit: int = 18,
                korner_tol: float = 1e-10, factors=None,
                perfect_budget: int = 14) -> BoundInterval:
    """Certified interval on Hbar(G, P) in bits.

    Upper end: minimum over (1/n) H_chi(G^n, P^n) (exact DP within the size
    limit, otherwise a valid coloring's entropy), (1/n) log chi(G^n) (sound
    since Hbar <= H0), and the Koerner entropy when converged.  Lower end:
    H(P) minus the C0 upper certificate.  Perfect graphs collapse to the
    Koerner value.
    """
    g = pg.graph
    if g.n == 0:
        raise ValueError("empty graph")

    try:
        perfect, _, _ = is_perfect(g, perfect_budget)
    except Undecided:
        perfect = None
    if perfect:
        sol = korner_entropy(pg, korner_tol)
        cert = Certificate("perfect_korner",
                           {"value": sol.value, "converged": sol.converged})
        return BoundInterval(sol.value, sol.value, cert, cert)

    hi_cands = []
    power = pg
    for n in range(1, max_n + 1):
        if n > 1:
            if pg.n ** n > vertex_budget:
                break
            power = and_power(pg, n, vertex_budget)
        hchi = min_entropy_coloring(power, "exact", exact_budget=hchi_exact_limit)
        method = "hchi_power_exact" if hchi.exact else "hchi_power_heuristic"
        hi_cands.append((hchi.value / n,
                         Certificate(method, {"n": n, "value": hchi.value})))
        chi = chromatic_number_exact(power.graph, budget)
        hi_cands.append((math.log2(chi.count) / n,
                         Certificate("chi_power",
                                     {"n": n, "chi": chi.count, "exact": chi.exact})))

    sol = korner_entropy(pg, korner_tol)
    if sol.converged:
        hi_cands.append((sol.value, Certificate("korner_upper", {"value": sol.value})))

    c0 = c0_bounds(g, max_n=max_n, budget=budget, vertex_budget=vertex_budget,
                   factors=factors, perfect_budget=perfect_budget)
    h = pg.dist.entropy()
    lo_cands = [
        (0.0, Certificate("trivial_zero")),
        (h - c0.hi, Certificate("marton_capacity_reflect",
                                {"entropy": h, "c0_hi": c0.hi, "c0_hi_cert": c0.hi_cert})),
    ]

    lo, lo_cert = max(lo_cands, key=lambda c: c[0])
    hi, hi_cert = min(hi_cands, key=lambda c: c[0])
    return BoundInterval(lo, hi, lo_cert, hi_cert)


# ---------------------------------------------------------------------------
# C(G, P) by Marton reflection


def c_rel_bounds(pg: ProbabilisticGraph, max_n: int = 1, **kwargs) -> BoundInterval:
    """Interval on the relative capacity C(G,P) = H(P) - Hbar(G,P)."""
    hbar = hbar_bounds(pg, max_n=max_n, **kwargs)
    h = pg.dist.entropy()
    return BoundInterval(
        max(0.0, h - hbar.hi), max(0.0, h - hbar.lo),
        Certificate("marton_reflect", {"entropy": h, "from": hbar.hi_cert}),
        Certificate("marton_reflect", {"entropy": h, "from": hbar.lo_cert}),
    )


# ---------------------------------------------------------------------------
# flagged estimate (not certified)


@dataclass(frozen=True)
class Estimate:
    value: float
    certified: bool
    note: str
    details: dict = field(default_factory=dict)


def typical_alpha_estimate(pg: ProbabilisticGraph, n: int, eps: float,
                           budget: Budget = DEFAULT_BUDGET,
                           vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> Estimate:
    """(1/n) log alpha(G^n[typical set]): an estimate of C(G,P).

    The double limit in the definition of C(G,P) prevents a one-sided
    finite-(n, eps) certificate, so this value is explicitly non-certified.
    """
    from .graphs import induced_subgraph

    ts = typical_set(pg.dist, n, eps)
    members = ts.members()
    if not members:
        raise ValueError(f"typical set is empty at n={n}, eps={eps}")
    power = and_power(pg, n, vertex_budget)
    keep = [sequence_index(seq, pg.n) for seq in members]
    sub = induced_subgraph(power, keep, renormalize=True)
    a = alpha_exact(sub.graph, budget)
    return Estimate(math.log2(a.size) / n, False,
                    "non-certified estimate of C(G,P)",
                    {"n": n, "eps": eps, "alpha": a.size,
                     "typical_count": len(members), "alpha_exact": a.exact})
