"""Scenario suite re-deriving the library's headline facts at desk scale.

Each scenario builds its inputs, runs checks against stated tolerances, and
reports pass/fail with measured values.  Budget exhaustion anywhere inside a
scenario downgrades it to "undecided" rather than "fail".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    BudgetExceeded,
    ChannelSpec,
    Distribution,
    Graph,
    ProbabilisticGraph,
    Undecided,
    and_product,
    and_product_graph,
    catalog_get,
    characteristic_graph,
    complement,
    cycle,
    complete,
    disjoint_union,
    empty,
    graph_from_edges,
    induced_subgraph,
    induced_subgraph_graph,
    path,
    uniform_pgraph,
)
from .combin import alpha_exact, clique_cover_number, min_entropy_coloring
from .numopt import (
    capacity_achieving_distribution,
    korner_entropy,
    relative_capacity_perfect,
    sum_channel_weights,
    theta_transitive,
)
from .bounds import c0_bounds, c_rel_bounds, h0_bounds, hbar_bounds
from .symmetry import is_perfect, srg_parameters
from .typicality import eta_bounds, type_split, typical_set
from .codec import (
    Codebook,
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    PartialSideInfoSpec,
    partial_si_roundtrip,
    shifted_codebook,
    si_simulate,
    sum_channel_roundtrip,
    verify_codebook,
)
from .rng import SplitMix64

LOG2_5 = math.log2(5.0)
HALF_LOG2_5 = 0.5 * LOG2_5
KORNER_TOL = 1e-11  # Koerner tolerance of every scenario


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 2024
    trials: int = 2000
    tags: tuple = ()


@dataclass
class Check:
    name: str
    ok: bool
    measured: object
    target: object
    tolerance: float
    note: str = ""

    def to_json_dict(self):
        def fmt(v):
            return float(f"{v:.9g}") if isinstance(v, float) else v

        d = {"name": self.name, "ok": bool(self.ok), "measured": fmt(self.measured),
             "target": fmt(self.target), "tolerance": self.tolerance}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class Scenario:
    id: str
    description: str
    tags: tuple
    builder: object  # callable(config) -> list[Check]


def _close(name, measured, target, tol, note=""):
    return Check(name, abs(measured - target) <= tol, measured, target, tol, note)


def _leq(name, lhs, rhs, tol=1e-9, note=""):
    return Check(name, lhs <= rhs + tol, lhs, rhs, tol, note)


def _true(name, flag, note=""):
    return Check(name, bool(flag), bool(flag), True, 0.0, note)


def _require_exact(flag, what):
    if not flag:
        raise Undecided(f"undecided (budget): {what}")


# ---------------------------------------------------------------------------
# sampling helpers (shared with the test-suite)


def random_graph(rng: SplitMix64, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_distribution(rng: SplitMix64, n: int, floor: float = 0.05) -> Distribution:
    w = [rng.random() + floor for _ in range(n)]
    total = sum(w)
    return Distribution(tuple(x / total for x in w))


def sample_perfect_graph(rng: SplitMix64, n_min=3, n_max=10, p=0.35,
                         max_tries=10_000) -> Graph:
    for _ in range(max_tries):
        n = n_min + rng.randrange(n_max - n_min + 1)
        g = random_graph(rng, n, p)
        ok, _, _ = is_perfect(g)
        if ok:
            return g
    raise RuntimeError("could not sample a perfect graph")


def typewriter_channel(k: int) -> ChannelSpec:
    """Noisy typewriter: input x can produce y in {x, x+1 mod k}."""
    return ChannelSpec(k, k, frozenset((x, y) for x in range(k)
                                       for y in (x, (x + 1) % k)))


# ---------------------------------------------------------------------------
# scenarios


def _sc_pentagon(cfg):
    c5 = cycle(5)
    checks = []
    a2 = alpha_exact(and_product_graph(c5, c5))
    _require_exact(a2.exact, "alpha of the pentagon square")
    checks.append(Check("alpha(C5^2)=5", a2.size == 5, a2.size, 5, 0))
    th = theta_transitive(c5)
    checks.append(_close("theta(C5)=sqrt5", th, math.sqrt(5.0), 1e-6))
    iv = c0_bounds(c5, max_n=2)
    checks.append(_close("c0(C5) lo", iv.lo, HALF_LOG2_5, 1e-6))
    checks.append(_close("c0(C5) hi", iv.hi, HALF_LOG2_5, 1e-6))
    checks.append(_leq("c0(C5) width", iv.width, 1e-6))
    return checks


def _sc_full_support(cfg):
    # a full-support channel makes the characteristic graph complete and the
    # optimal rate collapses to H(X)
    chan = ChannelSpec(4, 3, frozenset((x, y) for x in range(4) for y in range(3)))
    g = characteristic_graph(chan)
    rng = SplitMix64(cfg.seed ^ 0x11)
    p = random_distribution(rng, 4)
    checks = [Check("characteristic graph complete",
                    g.edge_count() == 6, g.edge_count(), 6, 0)]
    hchi = min_entropy_coloring(ProbabilisticGraph(g, p))
    checks.append(_close("H_chi(K4,P)=H(P)", hchi.value, p.entropy(), 1e-9))
    iv = hbar_bounds(ProbabilisticGraph(g, p), max_n=1, korner_tol=KORNER_TOL)
    checks.append(_close("hbar(K4,P) lo=H(P)", iv.lo, p.entropy(), 1e-6))
    checks.append(_close("hbar(K4,P) hi=H(P)", iv.hi, p.entropy(), 1e-6))
    return checks


def _sc_si_operational(cfg):
    chan = typewriter_channel(5)
    p = Distribution.uniform(5)
    n, eps = 2, 0.3
    code = build_si_code(chan, p, n, eps)
    errors, bits_used = si_simulate(code, chan, p, cfg.trials, cfg.seed ^ 0x22)
    rate = bits_used / (n * cfg.trials)
    # rate budget: 1/n + P(atypical) log|X| + (H of the coloring + 1)/n
    p_typ = typical_set(p, n, eps).probability()
    masses = [0.0] * code.color_count
    total = 0.0
    for seq, c in zip(code.typical_members, code.color_of):
        w = math.prod(float(p[s]) for s in seq)
        masses[c] += w
        total += w
    h_coloring = -sum((m / total) * math.log2(m / total) for m in masses if m > 0)
    budget_rate = 1.0 / n + (1.0 - p_typ) * math.log2(5) + (h_coloring + 1.0) / n
    return [
        Check("zero decoding errors", errors == 0, errors, 0, 0),
        _leq("empirical rate within typical-coloring budget", rate, budget_rate,
             0.05, note="slack covers the ceil() of the escape index"),
    ]


def _pg(g: Graph, weights) -> ProbabilisticGraph:
    return ProbabilisticGraph(g, Distribution(tuple(weights)))


def _perfect_parts():
    """Three perfect probabilistic graphs and their Koerner entropies."""
    f = Fraction
    parts = [
        _pg(complete(2), (f(1, 3), f(2, 3))),
        _pg(path(3), (f(1, 4), f(1, 2), f(1, 4))),
        _pg(empty(2), (f(3, 5), f(2, 5))),
    ]
    return parts, [korner_entropy(pg, KORNER_TOL).value for pg in parts]


def _sc_perfect_family(cfg):
    # family of perfect graphs: union linearizes at every P_A and the AND
    # product of two of them linearizes as well
    f = Fraction
    parts, kappas = _perfect_parts()
    pa = Distribution((f(1, 2), f(1, 4), f(1, 4)))
    union, _ = disjoint_union(parts, pa)
    iv = hbar_bounds(union, max_n=1, korner_tol=KORNER_TOL)
    target_union = sum(float(pa[a]) * kappas[a] for a in range(3))
    checks = [
        _close("hbar(union) = sum P_A H_kappa", iv.midpoint, target_union, 1e-6),
        _leq("hbar(union) width", iv.width, 1e-6),
    ]
    prod = and_product(parts[0], parts[1])
    ok, _, _ = is_perfect(prod.graph)
    checks.append(_true("product of this perfect pair is perfect", ok))
    ivp = hbar_bounds(prod, max_n=1, korner_tol=KORNER_TOL)
    checks.append(_close("hbar(product) = sum H_kappa", ivp.midpoint,
                         kappas[0] + kappas[1], 1e-6))
    checks.append(_leq("hbar(product) width", ivp.width, 1e-6))
    return checks


def _sc_subfamily_closure(cfg):
    # once a family linearizes, every 2-element subfamily linearizes
    f = Fraction
    parts, kappas = _perfect_parts()
    checks = []
    for i in range(3):
        for j in range(i + 1, 3):
            pa = Distribution((f(1, 3), f(2, 3)))
            union, _ = disjoint_union([parts[i], parts[j]], pa)
            iv = hbar_bounds(union, max_n=1, korner_tol=KORNER_TOL)
            target = float(pa[0]) * kappas[i] + float(pa[1]) * kappas[j]
            checks.append(_close(f"subfamily ({i},{j}) union linearizes",
                                 iv.midpoint, target, 1e-6))
    return checks


def _sc_alpha_superadditive(cfg):
    rng = SplitMix64(cfg.seed ^ 0x33)
    checks = []
    for k in range(6):
        g1 = random_graph(rng, 4 + rng.randrange(3), 0.4)
        g2 = random_graph(rng, 4 + rng.randrange(3), 0.4)
        a1 = alpha_exact(g1)
        a2 = alpha_exact(g2)
        ap = alpha_exact(and_product_graph(g1, g2))
        _require_exact(a1.exact and a2.exact and ap.exact, "alpha on sampled pair")
        checks.append(Check(f"alpha supermultiplicative #{k}",
                            ap.size >= a1.size * a2.size,
                            ap.size, a1.size * a2.size, 0))
    c5 = cycle(5)
    lo1 = math.log2(alpha_exact(c5).size)
    lo2 = math.log2(alpha_exact(and_product_graph(c5, c5)).size) / 2
    checks.append(_leq("pentagon level-2 certificate refines level-1", lo1, lo2))
    return checks


def _sc_schrijver_union(cfg):
    # perfect case of the C0 union linearization: both sides collapse exactly
    g1, g2 = cycle(6), path(4)
    a1 = alpha_exact(g1).size
    a2 = alpha_exact(g2).size
    union, _ = disjoint_union([uniform_pgraph(g1), uniform_pgraph(g2)],
                              Distribution((Fraction(1, 2), Fraction(1, 2))))
    au = alpha_exact(union.graph)
    _require_exact(au.exact, "alpha of the union")
    iv1 = c0_bounds(g1)
    iv2 = c0_bounds(g2)
    ivu = c0_bounds(union.graph)
    target = math.log2(2.0 ** iv1.midpoint + 2.0 ** iv2.midpoint)
    return [
        Check("alpha additive over union", au.size == a1 + a2, au.size, a1 + a2, 0),
        _leq("c0(union) width", ivu.width, 1e-9),
        _close("c0(union) = log(2^c0 + 2^c0')", ivu.midpoint, target, 1e-9),
    ]


def _sc_marton(cfg):
    rng = SplitMix64(cfg.seed ^ 0x44)
    checks = []
    for k in range(5):
        g = sample_perfect_graph(rng, 3, 8)
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        hbar = hbar_bounds(pg, korner_tol=KORNER_TOL)
        crel = c_rel_bounds(pg, korner_tol=KORNER_TOL)
        checks.append(_close(f"marton identity on perfect sample #{k}",
                             hbar.midpoint + crel.midpoint, p.entropy(), 1e-6))
    crel5 = c_rel_bounds(uniform_pgraph(cycle(5)), max_n=2, korner_tol=KORNER_TOL)
    checks.append(_close("C(C5,U) = half log 5 (pentagon, non-perfect)",
                         crel5.midpoint, HALF_LOG2_5, 1e-6))
    checks.append(_leq("C(C5,U) width", crel5.width, 1e-6))
    return checks


def _sc_product_marginals(cfg):
    # maximizer of C(G x G', .) versus the product of its marginals
    pairs = [(complete(2), path(3)), (path(3), path(3)), (cycle(4), complete(2))]
    checks = []
    for k, (g1, g2) in enumerate(pairs):
        prod = and_product_graph(g1, g2)
        ok, _, _ = is_perfect(prod)
        _require_exact(ok, "perfectness of the sampled product")
        opt = capacity_achieving_distribution(prod, tol=2e-6, max_iter=4000)
        n1, n2 = g1.n, g2.n
        m1 = [0.0] * n1
        m2 = [0.0] * n2
        for i1 in range(n1):
            for i2 in range(n2):
                w = float(opt.dist[i1 * n2 + i2])
                m1[i1] += w
                m2[i2] += w
        prod_dist = Distribution(tuple(a * b for a in m1 for b in m2))
        val = relative_capacity_perfect(
            ProbabilisticGraph(prod, prod_dist), tol=KORNER_TOL).value
        checks.append(_close(f"marginal product attains the optimum #{k}",
                             val, opt.value, 2e-4))
    return checks


def _sc_sum_channel_weights(cfg):
    rng = SplitMix64(cfg.seed ^ 0x55)
    checks = []
    for k in range(5):
        vals = [rng.random() * 3.0 for _ in range(2 + rng.randrange(2))]
        dist, value = sum_channel_weights(vals)
        grid_best = -math.inf
        if len(vals) == 2:
            for i in range(1001):
                s = i / 1000.0
                h = 0.0
                for q in (s, 1 - s):
                    if q > 0:
                        h -= q * math.log2(q)
                grid_best = max(grid_best, h + s * vals[0] + (1 - s) * vals[1])
        else:
            for i in range(101):
                for j in range(101 - i):
                    ws = (i / 100.0, j / 100.0, 1.0 - (i + j) / 100.0)
                    h = -sum(q * math.log2(q) for q in ws if q > 0)
                    grid_best = max(grid_best, h + sum(q * v for q, v in zip(ws, vals)))
        tol = 1e-6 if len(vals) == 2 else 1e-3   # coarse 3-simplex grid
        checks.append(_close(f"closed form matches grid #{k}", value, grid_best, tol))
        checks.append(_true(f"full support #{k}", all(w > 0 for w in dist.weights)))
    # zero-capacity channels still get airtime
    dist, value = sum_channel_weights([0.0, 0.0, 0.0])
    checks.append(_close("three dead channels: value log 3", value, math.log2(3), 1e-12))
    checks.append(_close("three dead channels: uniform", float(dist[0]), 1 / 3, 1e-12))
    return checks


def _sc_union_capacity_split(cfg):
    # optimal mixture over a perfect union: C(union, P*) = log sum 2^C0a with
    # P*_A = 2^C0a / sum and capacity-achieving component distributions
    g1, g2 = cycle(6), complete(2)
    c01 = c0_bounds(g1)
    c02 = c0_bounds(g2)
    pa, value = sum_channel_weights([c01.midpoint, c02.midpoint])
    union, _ = disjoint_union(
        [uniform_pgraph(g1), uniform_pgraph(g2)], pa)
    crel = c_rel_bounds(union, korner_tol=KORNER_TOL)
    return [
        _close("P*_A(0) = 3/4", float(pa[0]), 0.75, 1e-12),
        _close("C(union,P*) = log(2^c0+2^c0')", crel.midpoint, value, 1e-6),
        _leq("C(union,P*) width", crel.width, 1e-6),
    ]


def _sc_perfect_collapse(cfg):
    rng = SplitMix64(cfg.seed ^ 0x66)
    checks = []
    for k in range(8):
        g = sample_perfect_graph(rng, 3, 9)
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        hbar = hbar_bounds(pg, korner_tol=KORNER_TOL)
        kap = korner_entropy(pg, KORNER_TOL).value
        c0 = c0_bounds(g)
        a = alpha_exact(g)
        _require_exact(a.exact, "alpha on a perfect sample")
        checks.append(_leq(f"hbar width #{k}", hbar.width, 1e-6))
        checks.append(_close(f"hbar midpoint = H_kappa #{k}", hbar.midpoint, kap, 1e-6))
        checks.append(_close(f"c0 = log alpha #{k}", c0.midpoint,
                             math.log2(a.size), 1e-9))
        checks.append(_leq(f"c0 width #{k}", c0.width, 1e-9))
    return checks


def _sc_c6c8(cfg):
    c6, c8 = cycle(6), cycle(8)
    prod = and_product_graph(c6, c8)
    a6 = alpha_exact(c6).size
    a8 = alpha_exact(c8).size
    ap = alpha_exact(prod)
    _require_exact(ap.exact, "alpha(C6 x C8)")
    union, _ = disjoint_union([uniform_pgraph(c6), uniform_pgraph(c8)],
                              Distribution((Fraction(1, 2), Fraction(1, 2))))
    au = alpha_exact(union.graph)
    checks = [
        Check("alpha(C6^C8) = alpha(C6) alpha(C8)", ap.size == a6 * a8 == 12,
              ap.size, 12, 0),
        Check("alpha(C6 u C8) = 3 + 4", au.size == 7, au.size, 7, 0),
    ]
    # the seven highlighted product vertices induce a 7-hole
    seven = [(2, 2), (3, 2), (4, 3), (3, 4), (2, 5), (1, 4), (1, 3)]
    idx = [i6 * 8 + i8 for i6, i8 in seven]
    checks.append(_true("seven product vertices induce C7",
                        all(prod.has_edge(idx[i], idx[j]) == ((j - i) % 7 in (1, 6))
                            for i in range(7) for j in range(i + 1, 7))))
    sub = induced_subgraph_graph(prod, idx)
    ok, hole, in_comp = is_perfect(sub)
    checks.append(Check("odd-hole witness found", (not ok) and not in_comp
                        and hole is not None and len(hole) == 7,
                        len(hole) if hole else 0, 7, 0))
    # C0 linearization: the product's own clique cover meets alpha = 12
    iv = c0_bounds(prod)
    checks.append(_close("c0(C6^C8) = log 12", iv.midpoint, math.log2(12), 1e-9))
    checks.append(_leq("c0(C6^C8) width", iv.width, 1e-9))
    # Hbar of the product at uniform: equals H_kappa(C6)+H_kappa(C8) = 2 bits
    pgp = and_product(uniform_pgraph(c6), uniform_pgraph(c8))
    hbar = hbar_bounds(pgp, korner_tol=KORNER_TOL)
    k6 = korner_entropy(uniform_pgraph(c6), KORNER_TOL).value
    k8 = korner_entropy(uniform_pgraph(c8), KORNER_TOL).value
    checks.append(_close("hbar(C6^C8, U) = H_k(C6)+H_k(C8)", hbar.midpoint,
                         k6 + k8, 1e-4))
    checks.append(_leq("hbar(C6^C8, U) width", hbar.width, 1e-4))
    return checks


def _sc_c5_with_perfect(cfg):
    # union and product with the pentagon: certified intervals bracket the
    # single-letter target values
    c5u = uniform_pgraph(cycle(5))
    g = cycle(6)
    kg = korner_entropy(uniform_pgraph(g), KORNER_TOL).value
    s = 0.5
    union, _ = disjoint_union([c5u, uniform_pgraph(g)],
                              Distribution((Fraction(1, 2), Fraction(1, 2))))
    target_union = s * HALF_LOG2_5 + (1 - s) * kg
    iv = hbar_bounds(union, max_n=1, korner_tol=KORNER_TOL)
    checks = [
        _leq("hbar(C5 u G) lo <= s/2 log5 + (1-s) H_kappa", iv.lo, target_union),
        _leq("hbar(C5 u G) hi >= target", target_union, iv.hi),
    ]
    prod = and_product(uniform_pgraph(g), c5u)
    target_prod = kg + HALF_LOG2_5
    ivp = hbar_bounds(prod, max_n=1, korner_tol=KORNER_TOL)
    checks.append(_leq("hbar(G ^ C5) lo <= H_kappa + half log 5", ivp.lo, target_prod))
    checks.append(_leq("hbar(G ^ C5) hi >= target", target_prod, ivp.hi))
    return checks


def _sc_schlafli(cfg):
    s = catalog_get("schlafli")
    sbar = complement(s)
    checks = [
        Check("SRG(27,16,10,8)", srg_parameters(s) == (27, 16, 10, 8),
              str(srg_parameters(s)), "(27, 16, 10, 8)", 0),
    ]
    a_s = alpha_exact(s)
    a_sb = alpha_exact(sbar)
    _require_exact(a_s.exact and a_sb.exact, "alpha of the Schlafli pair")
    checks.append(Check("alpha(S)=3", a_s.size == 3, a_s.size, 3, 0))
    checks.append(Check("alpha(S-bar)=6", a_sb.size == 6, a_sb.size, 6, 0))
    # diagonal of S x S-bar is independent: a pair cannot be adjacent in both
    indep = not any(s.has_edge(u, v) and sbar.has_edge(u, v)
                    for u in range(27) for v in range(u + 1, 27))
    checks.append(_true("diagonal independent in S x S-bar", indep))
    checks.append(Check("27 > alpha(S) alpha(S-bar)", 27 > a_s.size * a_sb.size,
                        27, a_s.size * a_sb.size, 0))
    th_s = theta_transitive(s)
    th_sb = theta_transitive(sbar)
    checks.append(_close("theta(S)=3", th_s, 3.0, 1e-6))
    checks.append(_close("theta(S-bar)=9", th_sb, 9.0, 1e-6))
    iv_s = c0_bounds(s)
    checks.append(_close("c0(S) = log 3", iv_s.midpoint, math.log2(3), 1e-6))
    checks.append(_leq("c0(S) width", iv_s.width, 1e-6))
    # strictness: the independent diagonal puts c0(S x S-bar) at log 27 or more
    total = iv_s.hi + c0_bounds(sbar).hi
    checks.append(Check("C0-level strictness", total < math.log2(27) - 1e-9,
                        total, math.log2(27), 1e-9))
    return checks


def _sc_vertex_transitive(cfg):
    # uniform is capacity-achieving on vertex-transitive graphs
    g = cycle(6)
    opt = capacity_achieving_distribution(g, tol=1e-6, max_iter=4000)
    val_uniform = relative_capacity_perfect(uniform_pgraph(g), tol=KORNER_TOL).value
    checks = [
        _close("optimizer value = log 3 on C6", opt.value, math.log2(3), 1e-4),
        _close("uniform attains the optimum on C6", val_uniform, opt.value, 1e-4),
    ]
    # Schlafli: C(S, U) pins C0(S) through the pipelines
    s = catalog_get("schlafli")
    crel = c_rel_bounds(uniform_pgraph(s), korner_tol=KORNER_TOL)
    checks.append(_close("C(S,U) = log 3", crel.midpoint, math.log2(3), 1e-3))
    checks.append(_leq("C(S,U) width", crel.width, 1e-3))
    return checks


def _sc_distributivity(cfg):
    rng = SplitMix64(cfg.seed ^ 0x77)
    checks = []
    f = Fraction
    for k in range(5):
        parts_a = []
        for _ in range(2):
            n = 2 + rng.randrange(2)
            parts_a.append(ProbabilisticGraph(random_graph(rng, n, 0.5),
                                              Distribution.uniform(n)))
        parts_b = []
        for _ in range(2):
            n = 2 + rng.randrange(2)
            parts_b.append(ProbabilisticGraph(random_graph(rng, n, 0.5),
                                              Distribution.uniform(n)))
        pa = Distribution((f(1, 3), f(2, 3)))
        pb = Distribution((f(2, 5), f(3, 5)))
        union_a, la = disjoint_union(parts_a, pa)
        union_b, lb = disjoint_union(parts_b, pb)
        lhs = and_product(union_a, union_b)
        pieces = [and_product(ga, gb) for ga in parts_a for gb in parts_b]
        weights = Distribution(tuple(wa * wb for wa in pa.weights for wb in pb.weights))
        rhs, _ = disjoint_union(pieces, weights)
        # explicit index bijection ((a,x),(b,y)) -> ((a,b),(x,y))
        nb_total = union_b.n
        mapping = [0] * lhs.n
        ok = True
        for a, ga in enumerate(parts_a):
            for b, gb in enumerate(parts_b):
                piece_idx = a * len(parts_b) + b
                piece_off = sum(p.n for p in pieces[:piece_idx])
                for x in range(ga.n):
                    for y in range(gb.n):
                        src = (la.offsets[a] + x) * nb_total + (lb.offsets[b] + y)
                        dst = piece_off + x * gb.n + y
                        mapping[src] = dst
                        if lhs.dist[src] != rhs.dist[dst]:
                            ok = False
        if sorted(mapping) != list(range(lhs.n)):
            ok = False
        for i in range(lhs.n):
            for j in range(i + 1, lhs.n):
                if lhs.graph.has_edge(i, j) != rhs.graph.has_edge(mapping[i], mapping[j]):
                    ok = False
        checks.append(_true(f"distributivity bijection #{k}", ok))
    return checks


def _sc_union_isomorphic(cfg):
    rng = SplitMix64(cfg.seed ^ 0x88)
    f = Fraction
    checks = []
    for k in range(5):
        n = 3 + rng.randrange(2)
        g = random_graph(rng, n, 0.5)
        w = [f(1 + rng.randrange(4), 1) for _ in range(n)]
        tot = sum(w)
        base = ProbabilisticGraph(g, Distribution(tuple(x / tot for x in w)))
        # relabeled copy
        perm = sorted(range(n), key=lambda v: rng.next_u64())
        g2 = graph_from_edges(n, [(perm[i], perm[j]) for i, j in g.edges()])
        w2 = [f(0)] * n
        for v in range(n):
            w2[perm[v]] = base.dist[v]
        copy = ProbabilisticGraph(g2, Distribution(tuple(w2)))
        pa = Distribution((f(1, 4), f(3, 4)))
        union, _ = disjoint_union([base, copy], pa)
        h_union = min_entropy_coloring(union).value
        h_base = min_entropy_coloring(base).value
        checks.append(_close(f"H_chi(union of isomorphic copies) #{k}",
                             h_union, h_base, 1e-9))
    return checks


def _sc_type_split(cfg):
    f = Fraction
    checks = []
    # all-or-nothing split
    tsp = type_split((0, 1, 0, 1), 0.5, Distribution((f(1), f(0))),
                     Distribution((f(0), f(1))))
    checks.append(_true("pure split separates symbols",
                        tsp.exact and tsp.sub1 == (0, 0) and tsp.sub2 == (1, 1)))
    # beta = 1 keeps everything
    tsp = type_split((0, 1, 1, 0), 1, Distribution((f(1, 2), f(1, 2))),
                     Distribution((f(1, 2), f(1, 2))))
    checks.append(_true("beta=1 keeps the sequence", tsp.sub1 == (0, 1, 1, 0)))
    # balanced split into (3/4,1/4) and (1/4,3/4)
    tsp = type_split((0, 1) * 4, 0.5, Distribution((f(3, 4), f(1, 4))),
                     Distribution((f(1, 4), f(3, 4))))
    checks.append(_true("integral split achieves exact types",
                        tsp.exact and tsp.type1.counts == (3, 1)
                        and tsp.type2.counts == (1, 3)))
    return checks


def _sc_induced_sandwich(cfg):
    rng = SplitMix64(cfg.seed ^ 0x99)
    checks = []
    violations = 0
    samples = 20
    for _ in range(samples):
        n = 4 + rng.randrange(5)
        g = random_graph(rng, n, 0.4)
        p = random_distribution(rng, n)
        pg = ProbabilisticGraph(g, p)
        keep = [v for v in range(n) if rng.random() < 0.7] or [0]
        mass = sum(float(p[v]) for v in keep)
        sub = induced_subgraph(pg, keep)
        h_full = min_entropy_coloring(pg).value
        h_sub = min_entropy_coloring(sub).value
        lower = h_full - 1.0 - (1.0 - mass) * math.log2(n)
        upper = h_full / mass
        if not (lower - 1e-9 <= h_sub <= upper + 1e-9):
            violations += 1
    checks.append(Check("induced chromatic-entropy sandwich",
                        violations == 0, violations, 0, 0))
    return checks


def _sc_marton_union(cfg):
    rng = SplitMix64(cfg.seed ^ 0xAA)
    checks = []
    for k in range(4):
        parts = []
        f = Fraction
        for _ in range(2):
            n = 2 + rng.randrange(3)
            parts.append(ProbabilisticGraph(random_graph(rng, n, 0.5),
                                            Distribution.uniform(n)))
        pa = Distribution((f(1, 3), f(2, 3)))
        union, _ = disjoint_union(parts, pa)
        hbar = hbar_bounds(union, korner_tol=KORNER_TOL)
        crel = c_rel_bounds(union, korner_tol=KORNER_TOL)
        target = pa.entropy() + sum(float(pa[a]) * parts[a].dist.entropy()
                                    for a in range(2))
        ok = (hbar.lo + crel.lo <= target + 1e-9) and (target <= hbar.hi + crel.hi + 1e-9)
        checks.append(Check(f"union entropy chain #{k}", ok,
                            hbar.lo + crel.lo, target, 1e-9))
    return checks


def _sc_eta(cfg):
    f = Fraction
    k2u = uniform_pgraph(complete(2))
    iv, prod, k = eta_bounds([k2u, k2u], Distribution((f(1, 2), f(1, 2))),
                             korner_tol=KORNER_TOL)
    checks = [
        _close("eta(K2,K2;1/2) = 1 bit", iv.midpoint, 1.0, 1e-9),
        _leq("eta width", iv.width, 1e-9),
    ]
    # perfect family with non-uniform rational P_A
    parts = [_pg(complete(2), (f(1, 3), f(2, 3))), _pg(empty(2), (f(1, 4), f(3, 4)))]
    pa = Distribution((f(2, 3), f(1, 3)))
    kappas = [korner_entropy(p, KORNER_TOL).value for p in parts]
    iv, prod, k = eta_bounds(parts, pa, korner_tol=KORNER_TOL)
    target = sum(float(pa[a]) * kappas[a] for a in range(2))
    ok_perfect, _, _ = is_perfect(prod.graph)
    checks.append(_true("product of powers is perfect", ok_perfect))
    checks.append(_close("eta = linear interpolation of H_kappa", iv.midpoint,
                         target, 1e-6))
    checks.append(_leq("eta width (perfect family)", iv.width, 1e-6))
    # general family with the pentagon: containment only
    parts = [uniform_pgraph(cycle(5)), _pg(complete(2), (f(1, 2), f(1, 2)))]
    pa = Distribution((f(1, 2), f(1, 2)))
    iv, prod, k = eta_bounds(parts, pa, korner_tol=KORNER_TOL)
    upper = sum(float(pa[a]) * korner_entropy(parts[a], KORNER_TOL).value
                for a in range(2))
    cover_sum = sum(clique_cover_number(p.graph).count for p in parts)
    h_mix = pa.entropy() + sum(float(pa[a]) * parts[a].dist.entropy() for a in range(2))
    lower = h_mix - math.log2(cover_sum)
    checks.append(_leq("eta lo below single-letter upper", iv.lo, upper))
    checks.append(_leq("eta hi above single-letter lower", lower, iv.hi))
    return checks


def _sc_witsenhausen(cfg):
    # finite-n one-sided check: hbar hi never exceeds the H0 hi certificate
    rng = SplitMix64(cfg.seed ^ 0xBB)
    checks = []
    for k in range(4):
        n = 3 + rng.randrange(4)
        g = random_graph(rng, n, 0.5)
        p = random_distribution(rng, n)
        hbar = hbar_bounds(ProbabilisticGraph(g, p), korner_tol=KORNER_TOL)
        h0 = h0_bounds(g)
        checks.append(_leq(f"hbar hi <= h0 hi #{k}", hbar.hi, h0.hi))
    h0c5 = h0_bounds(cycle(5), max_n=2)
    hbarc5 = hbar_bounds(uniform_pgraph(cycle(5)), max_n=2, korner_tol=KORNER_TOL)
    checks.append(_leq("pentagon: hbar(U) hi <= h0 hi", hbarc5.hi, h0c5.hi))
    checks.append(_close("h0(C5) hi = half log 5 at n=2", h0c5.hi, HALF_LOG2_5, 1e-9))
    return checks


def _sc_codec_channel(cfg):
    chan = typewriter_channel(5)
    book = build_channel_code(chan, 2, "exact")
    checks = [
        Check("pentagon book has 5 codewords", len(book.codewords) == 5,
              len(book.codewords), 5, 0),
        _close("book rate = half log 5", book.rate(), HALF_LOG2_5, 1e-12),
    ]
    errors = channel_roundtrip(book, chan, cfg.trials, seed=cfg.seed ^ 0xCC)
    checks.append(Check("zero channel decoding errors", errors == 0, errors, 0, 0))
    # negative control: a deliberately confusable book must report ambiguity
    bad = Codebook(1, ((0,), (1,)), False)
    bad_errors = channel_roundtrip(bad, chan, 50, seed=cfg.seed)
    checks.append(_true("corrupted book reports ambiguity", bad_errors > 0))
    return checks


def _sc_codec_partial(cfg):
    # two-component family behind one channel: outputs 0,1 (component 0,
    # K2-like confusable inputs) and outputs 2,3 (component 1, clean)
    support = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3)})
    chan = ChannelSpec(2, 4, support)
    g_map = (0, 0, 1, 1)
    joint = tuple((x, y, 0.125 if y < 2 else 0.25) for x, y in sorted(support))
    spec = PartialSideInfoSpec(chan, g_map, joint)
    code = build_partial_si_code(spec, 6, 0.5)
    trials = max(200, cfg.trials // 5)
    errors, bits_total = partial_si_roundtrip(code, trials, cfg.seed ^ 0xDD)
    rate = bits_total / (6 * trials)
    checks = [Check("zero partial-SI decoding errors", errors == 0, errors, 0, 0)]
    # rate sanity against the weighted single-letter interval plus slack
    kappas = [korner_entropy(
        ProbabilisticGraph(spec.component_graph(a), spec.component_dist(a)),
        KORNER_TOL).value for a in (0, 1)]
    target = sum(spec.component_weight(a) * kappas[a] for a in (0, 1))
    slack = 2.0 / 3.0 + 1.0 / 6.0 + 1.0   # finite-n flag/huffman/escape slack
    checks.append(_leq("partial-SI rate within single-letter target + slack",
                       rate, target + slack))
    return checks


def _sc_codec_sum(cfg):
    id1 = ChannelSpec(1, 1, frozenset({(0, 0)}))
    b1 = build_channel_code(id1, 1, "exact")
    sc = build_sum_channel_code([id1, id1], [b1, b1], (2, 2))
    checks = [
        _close("pure index information rate", sc.rate(),
               math.log2(math.comb(4, 2)) / 4, 1e-12),
    ]
    # 3- and 7-word books at the optimal composition for n = 10
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    ch7 = ChannelSpec(7, 7, frozenset((x, x) for x in range(7)))
    b3 = build_channel_code(ch3, 1, "exact")
    b7 = build_channel_code(ch7, 1, "exact")
    sc2 = build_sum_channel_code([ch3, ch7], [b3, b7], (3, 7))
    direct = math.comb(10, 3) * (3 ** 3) * (7 ** 7)
    checks.append(Check("message count matches direct count",
                        sc2.message_count() == direct, sc2.message_count(),
                        direct, 0))
    lower = (3 / 10) * math.log2(3) + (7 / 10) * math.log2(7)
    checks.append(_leq("rate at least the time-shared payload", lower, sc2.rate()))
    checks.append(_leq("rate at most log 10", sc2.rate(), math.log2(10)))
    errors = sum_channel_roundtrip(sc2, max(200, cfg.trials // 5),
                                   seed=cfg.seed ^ 0xEE)
    checks.append(Check("zero sum-channel decoding errors", errors == 0,
                        errors, 0, 0))
    return checks


def _sc_shifted(cfg):
    chan5 = typewriter_channel(5)
    c5 = characteristic_graph(chan5)
    prod_graph = and_product_graph(c5, c5)
    # independent 5-word diagonal book at n=2 over the 25-letter product
    base_words = []
    for i in range(5):
        v1 = i * 5 + ((2 * i) % 5)
        v2 = ((i + 1) % 5) * 5 + ((2 * i + 2) % 5)
        base_words.append((v1, v2))
    book = Codebook(2, tuple(base_words), True)
    ok = verify_codebook(prod_graph, book)
    checks = [_true("base diagonal book independent", ok)]
    sh = shifted_codebook(book, 5, 5)
    checks.append(_true("shifted book nonempty", len(sh.codewords) > 0))
    checks.append(_true("shifted book pairwise independent",
                        verify_codebook(prod_graph, sh)))
    # single-codeword book: shifts collapse trivially
    one = Codebook(2, (base_words[0],), True)
    sh1 = shifted_codebook(one, 5, 5)
    checks.append(Check("single-word book survives", len(sh1.codewords) == 1,
                        len(sh1.codewords), 1, 0))
    # the 27-word diagonal in the Schlafli pair product, block length 1
    s = catalog_get("schlafli")
    sprod = and_product_graph(s, complement(s))
    diag = Codebook(1, tuple((v * 27 + v,) for v in range(27)), True)
    checks.append(_true("diagonal book independent in S x S-bar",
                        verify_codebook(sprod, diag)))
    sh_diag = shifted_codebook(diag, 27, 27)
    checks.append(Check("diagonal survives shifting intact",
                        len(sh_diag.codewords) == 27, len(sh_diag.codewords), 27, 0))
    return checks


SCENARIOS = [
    Scenario("pentagon", "zero-error capacity of the pentagon collapses at n=2",
             ("pentagon", "capacity"), _sc_pentagon),
    Scenario("full-support", "full-support channel: optimal rate is H(X)",
             ("source",), _sc_full_support),
    Scenario("si-operational", "side-information codec meets the typical-coloring budget",
             ("codec", "source"), _sc_si_operational),
    Scenario("perfect-family", "perfect families linearize for unions and products",
             ("perfect",), _sc_perfect_family),
    Scenario("subfamily-closure", "2-element subfamilies inherit linearization",
             ("perfect",), _sc_subfamily_closure),
    Scenario("alpha-superadditive", "independence number supermultiplicative over AND",
             ("capacity",), _sc_alpha_superadditive),
    Scenario("union-capacity", "perfect union capacity: log(2^C0 + 2^C0')",
             ("perfect", "capacity"), _sc_schrijver_union),
    Scenario("marton-identity", "C(G,P) + Hbar(G,P) = H(P)",
             ("capacity", "source"), _sc_marton),
    Scenario("product-marginals", "marginal products of maximizers attain capacity",
             ("capacity", "perfect"), _sc_product_marginals),
    Scenario("sum-channel-weights", "closed-form channel-selection weights",
             ("capacity",), _sc_sum_channel_weights),
    Scenario("union-capacity-split", "optimal mixture weights over a perfect union",
             ("perfect", "capacity"), _sc_union_capacity_split),
    Scenario("perfect-collapse", "single-letter collapse on random perfect graphs",
             ("perfect",), _sc_perfect_collapse),
    Scenario("c6c8", "C6 x C8: non-perfect product of perfect factors",
             ("perfect", "product"), _sc_c6c8),
    Scenario("c5-with-perfect", "pentagon with a perfect companion: bracketing",
             ("pentagon",), _sc_c5_with_perfect),
    Scenario("schlafli-strict", "Schlafli pair: strict supermultiplicativity",
             ("schlafli", "capacity"), _sc_schlafli),
    Scenario("vertex-transitive", "uniform distributions achieve capacity",
             ("capacity",), _sc_vertex_transitive),
    Scenario("distributivity", "AND distributes over disjoint unions",
             ("algebra",), _sc_distributivity),
    Scenario("union-isomorphic", "chromatic entropy of unions of isomorphic graphs",
             ("algebra", "source"), _sc_union_isomorphic),
    Scenario("type-split", "exact type splitting under integrality",
             ("types",), _sc_type_split),
    Scenario("induced-sandwich", "chromatic entropy of induced subgraphs",
             ("source",), _sc_induced_sandwich),
    Scenario("marton-union", "entropy chain rule across union intervals",
             ("source",), _sc_marton_union),
    Scenario("eta", "union entropy evaluated through products of powers",
             ("types", "source"), _sc_eta),
    Scenario("witsenhausen", "fixed-length rate dominates the variable-length rate",
             ("source",), _sc_witsenhausen),
    Scenario("codec-channel", "zero-error channel codebook simulation",
             ("codec",), _sc_codec_channel),
    Scenario("codec-partial-si", "partial side information codec simulation",
             ("codec",), _sc_codec_partial),
    Scenario("codec-sum", "sum-of-channels time-sharing codebook",
             ("codec",), _sc_codec_sum),
    Scenario("shifted-codebook", "cyclic shifts preserve independence",
             ("codec",), _sc_shifted),
]


def run_scenario(scenario: Scenario, cfg: VerifyConfig) -> dict:
    header = {"id": scenario.id, "description": scenario.description,
              "tags": list(scenario.tags)}
    try:
        checks = scenario.builder(cfg)
    except (Undecided, BudgetExceeded) as exc:
        return {**header, "status": "undecided", "reason": str(exc), "checks": []}
    except Exception as exc:  # builder failure: recorded, suite continues
        return {**header, "status": "error",
                "reason": f"{type(exc).__name__}: {exc}", "checks": []}
    return {**header, "status": "pass" if all(c.ok for c in checks) else "fail",
            "checks": [c.to_json_dict() for c in checks]}


def full_suite(cfg: VerifyConfig = VerifyConfig()) -> dict:
    """Run the registered scenarios (optionally filtered by tag) and return
    the aggregate report.  Execution is sequential and deterministic."""
    selected = [s for s in SCENARIOS
                if not cfg.tags or any(t in cfg.tags for t in s.tags)]
    results = [run_scenario(s, cfg) for s in selected]
    summary = {"pass": 0, "fail": 0, "undecided": 0, "error": 0}
    for r in results:
        summary[r["status"]] += 1
    return {
        "suite": "zeroerr-verify",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "scenario_count": len(results),
        "summary": summary,
        "scenarios": results,
    }


CSV_HEADER_V1 = "scenario,check,measured,target,tolerance,status"


def report_to_csv(report: dict) -> str:
    lines = ["# zeroerr-verify csv v1", CSV_HEADER_V1]
    for sc in report["scenarios"]:
        if not sc["checks"]:
            lines.append(f"{sc['id']},-,-,-,-,{sc['status']}")
        for c in sc["checks"]:
            status = "pass" if c["ok"] else "fail"
            lines.append(
                f"{sc['id']},{c['name'].replace(',', ';')},"
                f"{c['measured']},{c['target']},{c['tolerance']},{status}")
    return "\n".join(lines) + "\n"
