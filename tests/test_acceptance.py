"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line on success; a failing assert is the fail
line.  Stated runtime ceilings are asserted with a wall clock.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from zeroerr.graphs import (
    Budget,
    ChannelSpec,
    Distribution,
    ProbabilisticGraph,
    and_product,
    and_product_graph,
    catalog_get,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    induced_subgraph_graph,
    uniform_pgraph,
)
from zeroerr.combin import alpha_exact, min_entropy_coloring
from zeroerr.numopt import (
    capacity_achieving_distribution,
    korner_entropy,
    relative_capacity_perfect,
    sum_channel_weights,
    theta_transitive,
)
from zeroerr.bounds import c0_bounds, c_rel_bounds, h0_bounds, hbar_bounds
from zeroerr.symmetry import is_perfect, srg_parameters
from zeroerr.typicality import type_split, typical_set
from zeroerr.codec import (
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    PartialSideInfoSpec,
    sample_joint,
    si_roundtrip,
    sum_channel_roundtrip,
)
from zeroerr.rng import SplitMix64
from zeroerr.verifier import (
    VerifyConfig,
    full_suite,
    random_distribution,
    random_graph,
    sample_perfect_graph,
    typewriter_channel,
)

from oracles import korner_grid_oracle, sum_weights_grid

HALF_LOG2_5 = 0.5 * math.log2(5)
CODEC_TRIALS = 100_000


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_01_pentagon():
    t0 = time.monotonic()
    a2 = alpha_exact(and_product_graph(cycle(5), cycle(5)))
    th = theta_transitive(cycle(5))
    iv = c0_bounds(cycle(5), max_n=2)
    elapsed = time.monotonic() - t0
    assert a2.exact and a2.size == 5
    assert abs(th - math.sqrt(5)) <= 1e-6
    assert iv.width <= 1e-6
    assert abs(iv.lo - HALF_LOG2_5) <= 1e-6
    assert abs(iv.hi - HALF_LOG2_5) <= 1e-6
    assert elapsed < 1.0
    _report(1, f"alpha(C5^2)=5, theta(C5)=sqrt5, c0 width "
               f"{iv.width:.2e} around {HALF_LOG2_5:.7f} in {elapsed:.2f}s")


def test_criterion_02_perfect_product_linearization():
    t0 = time.monotonic()
    c6, c8 = cycle(6), cycle(8)
    ap = alpha_exact(and_product_graph(c6, c8))
    a6 = alpha_exact(c6)
    a8 = alpha_exact(c8)
    union, _ = disjoint_union([uniform_pgraph(c6), uniform_pgraph(c8)],
                              Distribution.uniform(2))
    au = alpha_exact(union.graph)
    elapsed = time.monotonic() - t0
    assert ap.exact and a6.exact and a8.exact and au.exact
    assert ap.size == 12 == a6.size * a8.size
    assert au.size == 7 == a6.size + a8.size
    assert elapsed < 10.0
    _report(2, f"alpha(C6^C8)=12=3*4 and alpha(C6uC8)=7=3+4 in {elapsed:.2f}s")


def test_criterion_03_induced_seven_hole():
    prod = and_product_graph(cycle(6), cycle(8))
    seven = [(2, 2), (3, 2), (4, 3), (3, 4), (2, 5), (1, 4), (1, 3)]
    idx = [i6 * 8 + i8 for i6, i8 in seven]
    sub = induced_subgraph_graph(prod, idx)
    # exact adjacency check: 2-regular, 7 edges, single 7-cycle
    assert sub.edge_count() == 7
    assert all(sub.degree(v) == 2 for v in range(7))
    # listed vertices are adjacent exactly when cyclically consecutive; sub
    # orders its vertices by index, so the order is read off prod
    assert all(prod.has_edge(idx[i], idx[j]) == ((j - i) % 7 in (1, 6))
               for i in range(7) for j in range(i + 1, 7))
    perfect, hole, in_complement = is_perfect(sub)
    assert not perfect and not in_complement
    assert hole is not None and len(hole) == 7
    _report(3, "seven product vertices induce C7; odd-hole witness returned")


def test_criterion_04_schlafli():
    t0 = time.monotonic()
    s = catalog_get("schlafli")
    sbar = complement(s)
    assert srg_parameters(s) == (27, 16, 10, 8)
    a_s = alpha_exact(s)
    a_sb = alpha_exact(sbar)
    assert a_s.exact and a_s.size == 3
    assert a_sb.exact and a_sb.size == 6
    # diagonal of S x S-bar: verified pairwise via the product rule
    for u in range(27):
        for v in range(u + 1, 27):
            first = s.has_edge(u, v)       # u != v always distinct here
            second = sbar.has_edge(u, v)
            assert not (first and second)  # never adjacent in both factors
    assert 27 > a_s.size * a_sb.size == 18
    th_s = theta_transitive(s)
    th_sb = theta_transitive(sbar)
    assert abs(th_s - 3.0) <= 1e-6
    assert abs(th_sb - 9.0) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"SRG(27,16,10,8), alpha 3/6, diagonal 27 > 18, theta 3/9 "
               f"in {elapsed:.1f}s")


def test_criterion_05_korner_solver():
    rng = SplitMix64(505)
    for _ in range(50):
        n = 2 + rng.randrange(7)
        p = random_distribution(rng, n)
        kn = korner_entropy(ProbabilisticGraph(complete(n), p))
        assert abs(kn.value - p.entropy()) <= 1e-6
        nn = korner_entropy(ProbabilisticGraph(empty(n), p))
        assert abs(nn.value) <= 1e-9
    pg = uniform_pgraph(cycle(5))
    sol = korner_entropy(pg, tol=1e-12)
    oracle = korner_grid_oracle(pg, 64)
    assert abs(sol.value - oracle) <= 2e-3
    assert sol.value >= math.log2(2.5) - 1e-6
    _report(5, f"H_k exact on 50 complete/empty pairs; C5 value "
               f"{sol.value:.6f} within {abs(sol.value - oracle):.1e} of the 1/64 grid")


def test_criterion_06_perfect_single_letter_collapse():
    rng = SplitMix64(606)
    kt = 1e-11
    for _ in range(100):
        g = sample_perfect_graph(rng, 3, 10)
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        hbar = hbar_bounds(pg, korner_tol=kt)
        kappa = korner_entropy(pg, kt).value
        assert hbar.width <= 1e-6
        assert abs(hbar.midpoint - kappa) <= 1e-6
        c0 = c0_bounds(g)
        a = alpha_exact(g)
        assert a.exact
        assert c0.lo == c0.hi == math.log2(a.size)
        crel = c_rel_bounds(pg, korner_tol=kt)
        assert abs(kappa + crel.midpoint - p.entropy()) <= 1e-6
    _report(6, "100 perfect instances: hbar width<=1e-6 at H_kappa, "
               "c0=[log alpha], Marton identity to 1e-6")


def test_criterion_07_product_marginal_maximizers():
    rng = SplitMix64(707)
    done = 0
    while done < 30:
        g1 = sample_perfect_graph(rng, 2, 4, p=0.5)
        g2 = sample_perfect_graph(rng, 2, 3, p=0.5)
        prod = and_product_graph(g1, g2)
        if prod.n > 12 or not is_perfect(prod)[0]:
            continue
        opt = capacity_achieving_distribution(prod, tol=1e-6, max_iter=3000)
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
            ProbabilisticGraph(prod, prod_dist), tol=1e-11).value
        assert abs(val - opt.value) <= 2e-4
        done += 1
    _report(7, "30 perfect pairs: product of maximizer marginals attains "
               "the optimizer value to 2e-4")


def test_criterion_08_sum_channel_weights():
    # at 1e-3 resolution the 1e-6 guarantee is a two-channel statement: with
    # two free simplex coordinates the nearest grid point can already sit
    # ~1.4e-6 bits below the optimum
    rng = SplitMix64(808)
    for _ in range(100):
        vals = [rng.random() * 3.0 for _ in range(2)]
        dist, value = sum_channel_weights(vals)
        grid = sum_weights_grid(vals, 1000)
        assert abs(value - grid) <= 1e-6
        assert all(w > 0 for w in dist.weights)
    for _ in range(20):
        vals = [rng.random() * 3.0 for _ in range(3)]
        dist, value = sum_channel_weights(vals)
        assert abs(value - sum_weights_grid(vals, 1000)) <= 1e-4
        assert all(w > 0 for w in dist.weights)
    _report(8, "100 two-channel vectors match the 1e-3 grid to 1e-6 "
               "(plus 20 three-channel vectors to 1e-4); full support always")


def test_criterion_09_appendix_lemma_suite():
    rng = SplitMix64(909)
    f = Fraction

    # distributivity: explicit index bijection on 50 random families
    for _ in range(50):
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
        rhs, _ = disjoint_union(pieces, Distribution(
            tuple(wa * wb for wa in pa.weights for wb in pb.weights)))
        nb = union_b.n
        mapping = [0] * lhs.n
        for a, ga in enumerate(parts_a):
            for b, gb in enumerate(parts_b):
                off = sum(p.n for p in pieces[:a * 2 + b])
                for x in range(ga.n):
                    for y in range(gb.n):
                        src = (la.offsets[a] + x) * nb + (lb.offsets[b] + y)
                        mapping[src] = off + x * gb.n + y
        for i in range(lhs.n):
            assert lhs.dist[i] == rhs.dist[mapping[i]]
            for j in range(i + 1, lhs.n):
                assert lhs.graph.has_edge(i, j) == \
                    rhs.graph.has_edge(mapping[i], mapping[j])

    # union of isomorphic copies: exact chromatic-entropy equality, 50 runs
    for _ in range(50):
        n = 2 + rng.randrange(3)
        g = random_graph(rng, n, 0.5)
        w = [f(1 + rng.randrange(4)) for _ in range(n)]
        tot = sum(w)
        base = ProbabilisticGraph(g, Distribution(tuple(x / tot for x in w)))
        perm = sorted(range(n), key=lambda v: rng.next_u64())
        g2 = graph_from_edges(n, [(perm[i], perm[j]) for i, j in g.edges()])
        w2 = [f(0)] * n
        for v in range(n):
            w2[perm[v]] = base.dist[v]
        copy = ProbabilisticGraph(g2, Distribution(tuple(w2)))
        assert all(g.has_edge(u, v) == g2.has_edge(perm[u], perm[v])
                   for u in range(n) for v in range(u + 1, n))
        assert all(base.dist[v] == copy.dist[perm[v]] for v in range(n))
        pa = Distribution((f(1, 4), f(3, 4)))
        union, _ = disjoint_union([base, copy], pa)
        assert union.n <= 8
        assert abs(min_entropy_coloring(union).value
                   - min_entropy_coloring(base).value) <= 1e-9

    # induced sandwich: 200 random (G, P, S) with n <= 10
    from zeroerr.graphs import induced_subgraph

    for _ in range(200):
        n = 4 + rng.randrange(7)
        g = random_graph(rng, n, 0.4)
        p = random_distribution(rng, n)
        pg = ProbabilisticGraph(g, p)
        keep = [v for v in range(n) if rng.random() < 0.7] or [0]
        mass = sum(float(p[v]) for v in keep)
        sub = induced_subgraph(pg, keep)
        h_full = min_entropy_coloring(pg).value
        h_sub = min_entropy_coloring(sub).value
        assert h_full - 1.0 - (1.0 - mass) * math.log2(n) <= h_sub + 1e-9
        assert h_sub <= h_full / mass + 1e-9

    # exact type splits whenever integrality holds, 100 runs
    for _ in range(100):
        k = 2 + rng.randrange(2)
        c1 = [rng.randrange(4) for _ in range(k)]
        c2 = [rng.randrange(4) for _ in range(k)]
        if sum(c1) == 0:
            c1[0] = 1
        if sum(c2) == 0:
            c2[0] = 1
        n1, n2 = sum(c1), sum(c2)
        p1 = Distribution(tuple(f(c, n1) for c in c1))
        p2 = Distribution(tuple(f(c, n2) for c in c2))
        seq = []
        for a in range(k):
            seq.extend([a] * (c1[a] + c2[a]))
        res = type_split(tuple(seq), f(n1, n1 + n2), p1, p2)
        assert res.exact
        assert res.type1.as_distribution().weights == p1.weights
        assert res.type2.as_distribution().weights == p2.weights

    _report(9, "distributivity x50, isomorphic-union entropy x50, "
               "induced sandwich x200, exact type splits x100")


def test_criterion_10_codec_zero_error():
    timings = {}

    # side information: pentagon typewriter at n=2
    chan = typewriter_channel(5)
    code = build_si_code(chan, Distribution.uniform(5), 2, 0.3)
    rows = {x: chan.outputs_of(x) for x in range(5)}
    rng = SplitMix64(1010)
    t0 = time.monotonic()
    bits_total = 0
    for _ in range(CODEC_TRIALS):
        x = (rng.randrange(5), rng.randrange(5))
        y = tuple(rows[s][rng.randrange(2)] for s in x)
        decoded, used = si_roundtrip(code, x, y)
        assert decoded == x
        bits_total += used
    timings["si"] = time.monotonic() - t0
    rate = bits_total / (2 * CODEC_TRIALS)
    p_typ = typical_set(Distribution.uniform(5), 2, 0.3).probability()
    masses = [0.0] * code.color_count
    for seq, c in zip(code.typical_members, code.color_of):
        masses[c] += 1 / 25
    tot = sum(masses)
    h_col = -sum(m / tot * math.log2(m / tot) for m in masses if m)
    budget = 0.5 + (1 - p_typ) * math.log2(5) + (h_col + 1.0) / 2
    assert rate <= budget + 0.5 / 2  # stated budget + 1/n slack

    # partial side information: 2-channel family at n=6
    support = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3)})
    chan2 = ChannelSpec(2, 4, support)
    joint = tuple((x, y, 0.125 if y < 2 else 0.25) for x, y in sorted(support))
    spec = PartialSideInfoSpec(chan2, (0, 0, 1, 1), joint)
    pcode = build_partial_si_code(spec, 6, 0.5)
    rng = SplitMix64(2020)
    t0 = time.monotonic()
    for _ in range(CODEC_TRIALS):
        xs, ys = sample_joint(spec, 6, rng)
        a_seq = tuple(spec.g_map[y] for y in ys)
        assert pcode.decode(ys, pcode.encode(xs, a_seq)) == xs
    timings["partial"] = time.monotonic() - t0

    # channel coding: the 5-word pentagon code
    book = build_channel_code(chan, 2, "exact")
    assert len(book.codewords) == 5
    t0 = time.monotonic()
    assert channel_roundtrip(book, chan, CODEC_TRIALS, seed=3030) == 0
    timings["channel"] = time.monotonic() - t0

    # sum of channels
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    b3 = build_channel_code(ch3, 1)
    noisy = build_channel_code(chan, 2)
    sc = build_sum_channel_code([ch3, chan], [b3, noisy], (3, 2))
    t0 = time.monotonic()
    assert sum_channel_roundtrip(sc, CODEC_TRIALS, seed=4040) == 0
    timings["sum"] = time.monotonic() - t0

    _report(10, "4 x 100000 zero-error roundtrips "
                f"(si {timings['si']:.1f}s, partial {timings['partial']:.1f}s, "
                f"channel {timings['channel']:.1f}s, sum {timings['sum']:.1f}s); "
                f"si rate {rate:.4f} <= budget {budget:.4f}")


def test_criterion_11_bound_pipeline_soundness():
    rng = SplitMix64(1111)
    budget = Budget(nodes=100_000)
    corpus = [cycle(5), cycle(6), cycle(7), complete(4), empty(4),
              and_product_graph(cycle(5), complete(2)),
              catalog_get("path", 5)]
    for _ in range(5):
        corpus.append(random_graph(rng, 4 + rng.randrange(4), 0.4))
    checked = 0
    for g in corpus:
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        with budget:
            c01 = c0_bounds(g, max_n=1)
            c02 = c0_bounds(g, max_n=2)
            h01 = h0_bounds(g, max_n=1)
            h02 = h0_bounds(g, max_n=2)
            hb1 = hbar_bounds(pg, max_n=1)
            hb2 = hbar_bounds(pg, max_n=2)
            cr1 = c_rel_bounds(pg, max_n=1)
        for iv in (c01, c02, h01, h02, hb1, hb2, cr1):
            assert iv.lo <= iv.hi + 1e-9
        # monotone refinement
        assert c02.lo >= c01.lo - 1e-12 and c02.hi <= c01.hi + 1e-12
        assert h02.hi <= h01.hi + 1e-12
        assert hb2.lo >= hb1.lo - 1e-12 and hb2.hi <= hb1.hi + 1e-12
        # Marton reflection consistency
        assert cr1.lo == pytest.approx(max(0.0, p.entropy() - hb1.hi), abs=1e-12)
        assert cr1.hi == pytest.approx(p.entropy() - hb1.lo, abs=1e-12)
        checked += 7
    _report(11, f"{checked} intervals over the corpus: lo<=hi, monotone "
                "refinement, exact Marton reflection")


def test_criterion_12_suite_determinism():
    cfg = VerifyConfig(seed=4242, trials=300)
    rep1 = full_suite(cfg)
    rep2 = full_suite(cfg)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["summary"]["fail"] == 0 and rep1["summary"]["error"] == 0
    _report(12, f"full suite byte-identical over two runs "
                f"({rep1['summary']['pass']} scenarios pass)")
