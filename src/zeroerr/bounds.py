"""Certified interval pipelines for the zero-error quantities.

Every interval endpoint carries a certificate naming a method from the
closed registry below.  Only two directions are ever certified:
supremum-from-superadditivity for lower ends and
infimum-from-subadditivity (or single-shot sound bounds) for upper ends.
Quantities whose finite truncations bound the wrong way are exposed as
flagged estimates in `typicality` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import (
    Graph,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    and_power,
    and_power_graph,
)
from .combin import (
    alpha_exact,
    chromatic_number_exact,
    clique_cover_number,
    min_entropy_coloring,
    omega_exact,
)
from .numopt import (THETA_VERTEX_LIMIT, adjacency_plus_identity, haemers_bound,
                     korner_entropy, theta_transitive)
from .symmetry import is_perfect

REGISTRY_VERSION = 1
KORNER_TOL = 1e-10  # default Koerner tolerance of the hbar, c_rel and eta pipelines

METHOD_REGISTRY = frozenset({
    "alpha_power",                 # lo C0: (1/n) log alpha(G^n), superadditive
    "perfect_alpha",               # lo=hi C0 on certified perfect graphs
    "clique_cover_power",          # hi C0: (1/n) log cover(G^n)
    "lovasz_theta_transitive",     # hi C0: Thm 9 bound on regular graphs, theta
                                   # when edge-transitive; detail `theta` is that bound
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
# shared steps


def _certified_perfect(g: Graph) -> bool:
    """True only when the odd-hole search decides g perfect (an Undecided
    search, above its vertex limit, counts as not certified)."""
    try:
        return is_perfect(g)[0]
    except Undecided:
        return False


def _c0_upper(g: Graph, powers) -> list:
    """Upper candidates on C0(G), each computed from g alone: clique covers of
    the powers (G^1, G^2, ...), the theta bound on regular graphs, A+I rank
    over GF(2), GF(3)."""
    cands = []
    for n, power in enumerate(powers, 1):
        cover = clique_cover_number(power)
        cands.append((math.log2(cover.count) / n,
                      Certificate("clique_cover_power",
                                  {"n": n, "cover": cover.count, "exact": cover.exact})))
    if g.is_regular() and g.degree(0) > 0 and g.n <= THETA_VERTEX_LIMIT:
        th = theta_transitive(g)
        cands.append((math.log2(th), Certificate("lovasz_theta_transitive", {"theta": th})))
    for p in (2, 3):
        # A + I fits: 1 on the diagonal, 0 on every non-edge
        cands.append((haemers_bound(g, adjacency_plus_identity(g, p)),
                      Certificate("haemers_rank", {"field": p, "matrix": "A+I"})))
    return cands


def _interval(lo_cands, hi_cands) -> BoundInterval:
    """The largest lower and the smallest upper candidate; ties keep the first."""
    lo, lo_cert = max(lo_cands, key=lambda c: c[0])
    hi, hi_cert = min(hi_cands, key=lambda c: c[0])
    return BoundInterval(lo, hi, lo_cert, hi_cert)


# ---------------------------------------------------------------------------
# C0


def c0_bounds(g: Graph, max_n: int = 1) -> BoundInterval:
    """Certified interval on the zero-error capacity C0(G) in bits."""
    if g.n == 0:
        raise ValueError("empty graph")
    if _certified_perfect(g):
        a = alpha_exact(g)
        if a.exact:
            v = math.log2(a.size)
            cert = Certificate("perfect_alpha", {"alpha": a.size})
            return BoundInterval(v, v, cert, cert)

    powers = [and_power_graph(g, n) for n in range(1, max_n + 1)]
    lo_cands = [(0.0, Certificate("trivial_zero"))]
    for n, power in enumerate(powers, 1):
        a = alpha_exact(power)
        lo_cands.append((math.log2(a.size) / n,
                         Certificate("alpha_power",
                                     {"n": n, "alpha": a.size, "exact": a.exact})))
    return _interval(lo_cands, _c0_upper(g, powers))


# ---------------------------------------------------------------------------
# H0 (Witsenhausen rate)


def h0_bounds(g: Graph, max_n: int = 1) -> BoundInterval:
    """Certified interval on the fixed-length rate H0(G) = lim (1/n) log chi(G^n)."""
    if g.n == 0:
        raise ValueError("empty graph")
    w = omega_exact(g)
    lo_cands = [(math.log2(w.size),
                 Certificate("omega_one_shot", {"omega": w.size, "exact": w.exact}))]
    hi_cands = []
    for n in range(1, max_n + 1):
        chi = chromatic_number_exact(and_power_graph(g, n))
        hi_cands.append((math.log2(chi.count) / n,
                         Certificate("chi_power",
                                     {"n": n, "chi": chi.count, "exact": chi.exact})))
    return _interval(lo_cands, hi_cands)


# ---------------------------------------------------------------------------
# Hbar (complementary graph entropy)


def hbar_bounds(pg: ProbabilisticGraph, max_n: int = 1,
                korner_tol: float = KORNER_TOL) -> BoundInterval:
    """Certified interval on Hbar(G, P) in bits.

    Upper end: minimum over (1/n) H_chi(G^n, P^n) (exact DP within the size
    limit, otherwise a valid coloring's entropy), (1/n) log chi(G^n) (sound
    since Hbar <= H0), and the Koerner entropy when converged.  Lower end:
    H(P) minus the smallest C0 upper candidate, taken on the same powers.
    Perfect graphs collapse to the Koerner value.  On others the Koerner
    solve runs last, only while the other candidates leave a gap above
    `korner_tol`: its value J >= H_kappa >= Hbar >= lo lowers hi by less.
    """
    g = pg.graph
    if g.n == 0:
        raise ValueError("empty graph")
    if _certified_perfect(g):
        sol = korner_entropy(pg, korner_tol)
        cert = Certificate("perfect_korner",
                           {"value": sol.value, "converged": sol.converged})
        return BoundInterval(sol.value, sol.value, cert, cert)

    powers = [and_power(pg, n) for n in range(1, max_n + 1)]
    hi_cands = []
    for n, power in enumerate(powers, 1):
        hchi = min_entropy_coloring(power)
        method = "hchi_power_exact" if hchi.exact else "hchi_power_heuristic"
        hi_cands.append((hchi.value / n,
                         Certificate(method, {"n": n, "value": hchi.value})))
        chi = chromatic_number_exact(power.graph)
        hi_cands.append((math.log2(chi.count) / n,
                         Certificate("chi_power",
                                     {"n": n, "chi": chi.count, "exact": chi.exact})))

    c0_hi, c0_hi_cert = min(_c0_upper(g, [q.graph for q in powers]),
                            key=lambda c: c[0])
    h = pg.dist.entropy()
    lo_cands = [
        (0.0, Certificate("trivial_zero")),
        (h - c0_hi, Certificate("marton_capacity_reflect",
                                {"entropy": h, "c0_hi": c0_hi, "c0_hi_cert": c0_hi_cert})),
    ]
    if min(c[0] for c in hi_cands) - max(c[0] for c in lo_cands) > korner_tol:
        sol = korner_entropy(pg, korner_tol)
        if sol.converged:
            hi_cands.append((sol.value, Certificate("korner_upper", {"value": sol.value})))
    return _interval(lo_cands, hi_cands)


# ---------------------------------------------------------------------------
# C(G, P) by Marton reflection


def c_rel_bounds(pg: ProbabilisticGraph, max_n: int = 1,
                 korner_tol: float = KORNER_TOL) -> BoundInterval:
    """Interval on the relative capacity C(G,P) = H(P) - Hbar(G,P)."""
    hbar = hbar_bounds(pg, max_n=max_n, korner_tol=korner_tol)
    h = pg.dist.entropy()
    return BoundInterval(
        max(0.0, h - hbar.hi), max(0.0, h - hbar.lo),
        Certificate("marton_reflect", {"entropy": h, "from": hbar.hi_cert}),
        Certificate("marton_reflect", {"entropy": h, "from": hbar.lo_cert}),
    )
