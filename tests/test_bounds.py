"""Certified interval pipelines: examples, soundness, refinement, reflection."""

import math

import pytest

from zeroerr.graphs import (
    Budget,
    Distribution,
    ProbabilisticGraph,
    and_product,
    and_product_graph,
    catalog_get,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    path,
    uniform_pgraph,
)
from zeroerr.bounds import (
    BoundInterval,
    Certificate,
    c0_bounds,
    c_rel_bounds,
    h0_bounds,
    hbar_bounds,
)
from zeroerr.numopt import korner_entropy
from zeroerr.typicality import typical_alpha_estimate
from zeroerr.symmetry import is_perfect
from zeroerr.graphs import ZeroErrError
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_distribution, random_graph, sample_perfect_graph

HALF_LOG2_5 = 0.5 * math.log2(5)


def test_interval_validation():
    cert = Certificate("trivial_zero")
    with pytest.raises(ZeroErrError, match="unsound"):
        BoundInterval(1.0, 0.5, cert, cert)
    with pytest.raises(ValueError, match="registry"):
        Certificate("wishful_thinking")


def test_c0_pentagon():
    iv = c0_bounds(cycle(5), max_n=2)
    assert iv.lo == pytest.approx(HALF_LOG2_5, abs=1e-6)
    assert iv.hi == pytest.approx(HALF_LOG2_5, abs=1e-6)
    assert iv.width <= 1e-6
    assert iv.lo_cert.method == "alpha_power"
    assert iv.hi_cert.method == "lovasz_theta_transitive"


def test_c0_trivial_graphs():
    for n in (2, 4):
        iv = c0_bounds(complete(n))
        assert iv.lo == iv.hi == 0.0
        iv = c0_bounds(empty(n))
        assert iv.lo == iv.hi == pytest.approx(math.log2(n))


def test_c0_c6c8_perfect_factor_linearization():
    # the product's own clique cover (3 * 4) meets its alpha: no factors needed
    iv = c0_bounds(and_product_graph(cycle(6), cycle(8)))
    assert iv.lo == pytest.approx(math.log2(12), abs=1e-9)
    assert iv.hi == pytest.approx(math.log2(12), abs=1e-9)


def test_perfect_times_pentagon_intervals():
    # the paper's perfect x C5 row, C6 x C5 at U, computed from the product
    # graph alone: C0 in [log 6, log 9] and Hbar in [H(P) - log 9, log 5]
    c6, c5 = cycle(6), cycle(5)
    cover = {"method": "clique_cover_power", "registry_version": 1,
             "details": {"n": 1, "cover": 9, "exact": True}}
    assert c0_bounds(and_product_graph(c6, c5)).to_json_dict("C0") == {
        "quantity": "C0", "lo": 2.584962500721156, "hi": 3.169925001442312,
        "lo_cert": {"method": "alpha_power", "registry_version": 1,
                    "details": {"n": 1, "alpha": 6, "exact": True}},
        "hi_cert": cover}
    pg = and_product(uniform_pgraph(c6), uniform_pgraph(c5))
    assert hbar_bounds(pg).to_json_dict("Hbar") == {
        "quantity": "Hbar", "lo": 1.7369655941662066, "hi": 2.321928094887362,
        "lo_cert": {"method": "marton_capacity_reflect", "registry_version": 1,
                    "details": {"entropy": 4.906890595608519,
                                "c0_hi": 3.169925001442312, "c0_hi_cert": cover}},
        "hi_cert": {"method": "chi_power", "registry_version": 1,
                    "details": {"n": 1, "chi": 5, "exact": True}}}


def test_c0_schlafli():
    iv = c0_bounds(catalog_get("schlafli"))
    assert iv.midpoint == pytest.approx(math.log2(3), abs=1e-6)
    assert iv.width <= 1e-6


def test_h0_examples():
    for n in (3, 5):
        iv = h0_bounds(complete(n))
        assert iv.lo == iv.hi == pytest.approx(math.log2(n))
        iv = h0_bounds(empty(n))
        assert iv.lo == iv.hi == 0.0
    iv = h0_bounds(cycle(5), max_n=2)
    assert iv.lo == pytest.approx(1.0)           # log omega(C5)
    # chi(C5^2) = 5 exactly: the 5 shifted diagonals tile the 25 vertices
    assert iv.hi == pytest.approx(HALF_LOG2_5, abs=1e-9)


def test_hbar_complete_and_empty():
    rng = SplitMix64(3)
    p = random_distribution(rng, 4)
    iv = hbar_bounds(ProbabilisticGraph(complete(4), p))
    assert iv.lo == pytest.approx(p.entropy(), abs=1e-9)
    assert iv.hi == pytest.approx(p.entropy(), abs=1e-9)
    iv = hbar_bounds(ProbabilisticGraph(empty(4), p))
    assert iv.lo == pytest.approx(0.0, abs=1e-9)
    assert iv.hi == pytest.approx(0.0, abs=1e-9)


def test_hbar_pentagon_collapses_at_two():
    iv = hbar_bounds(uniform_pgraph(cycle(5)), max_n=2)
    assert iv.lo == pytest.approx(HALF_LOG2_5, abs=1e-6)
    assert iv.hi == pytest.approx(HALF_LOG2_5, abs=1e-6)


def test_c_rel_examples():
    rng = SplitMix64(5)
    p = random_distribution(rng, 3)
    iv = c_rel_bounds(ProbabilisticGraph(complete(3), p))
    assert iv.lo == pytest.approx(0.0, abs=1e-9)
    assert iv.hi == pytest.approx(0.0, abs=1e-9)
    iv = c_rel_bounds(ProbabilisticGraph(empty(3), p))
    assert iv.midpoint == pytest.approx(p.entropy(), abs=1e-9)
    iv = c_rel_bounds(uniform_pgraph(cycle(5)), max_n=2)
    assert iv.midpoint == pytest.approx(HALF_LOG2_5, abs=1e-6)
    assert iv.width <= 1e-6


def _corpus(rng):
    graphs = [cycle(5), cycle(6), complete(4), empty(4), path(4),
              and_product_graph(cycle(5), complete(2))]
    for _ in range(4):
        graphs.append(random_graph(rng, 4 + rng.randrange(4), 0.4))
    return graphs


def test_c_rel_complete_graphs_hi_not_below_lo():
    # C(K_n, P) = 0 for every P; Hbar may round a step above H(P), which must
    # not push the upper end below the lower end 0
    rng = SplitMix64(31)
    for _ in range(40):
        n = 3 + rng.randrange(5)
        crel = c_rel_bounds(ProbabilisticGraph(complete(n), random_distribution(rng, n)))
        assert 0.0 <= crel.lo <= crel.hi


def test_soundness_and_monotone_refinement():
    rng = SplitMix64(7)
    # node-bounded budget: deterministic cuts keep refinement reproducible
    budget = Budget(nodes=100_000)
    for g in _corpus(rng):
        with budget:
            iv1 = c0_bounds(g, max_n=1)
            iv2 = c0_bounds(g, max_n=2)
        assert iv1.lo <= iv1.hi + 1e-9 and iv2.lo <= iv2.hi + 1e-9
        assert iv2.lo >= iv1.lo - 1e-12 and iv2.hi <= iv1.hi + 1e-12
        with budget:
            h1 = h0_bounds(g, max_n=1)
            h2 = h0_bounds(g, max_n=2)
        assert h1.lo <= h1.hi + 1e-9 and h2.lo <= h2.hi + 1e-9
        assert h2.hi <= h1.hi + 1e-12
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        with budget:
            b1 = hbar_bounds(pg, max_n=1)
            b2 = hbar_bounds(pg, max_n=2)
        assert b1.lo <= b1.hi + 1e-9 and b2.lo <= b2.hi + 1e-9
        assert b2.lo >= b1.lo - 1e-12 and b2.hi <= b1.hi + 1e-12
        # Marton reflection is exact by construction; verify numerically
        with budget:
            c1 = c_rel_bounds(pg, max_n=1)
        assert c1.lo == pytest.approx(max(0.0, p.entropy() - b1.hi), abs=1e-12)
        assert c1.hi == pytest.approx(p.entropy() - b1.lo, abs=1e-12)
        # the variable-length upper certificate never exceeds the fixed-length one
        assert b1.hi <= h1.hi + 1e-9


def test_perfect_collapse_all_pipelines():
    rng = SplitMix64(11)
    for _ in range(6):
        g = sample_perfect_graph(rng, 3, 9)
        p = random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        from zeroerr.combin import alpha_exact

        hbar = hbar_bounds(pg, korner_tol=1e-11)
        kappa = korner_entropy(pg, 1e-11).value
        assert hbar.width <= 1e-9
        assert hbar.midpoint == pytest.approx(kappa, abs=1e-9)
        c0 = c0_bounds(g)
        assert c0.width <= 1e-9
        assert c0.midpoint == pytest.approx(math.log2(alpha_exact(g).size), abs=1e-12)
        h0 = h0_bounds(g)
        assert h0.width <= 1e-9       # chi = omega for perfect graphs
        crel = c_rel_bounds(pg, korner_tol=1e-11)
        assert crel.midpoint + hbar.midpoint == pytest.approx(p.entropy(), abs=1e-9)


def test_union_capacity_lower_bound():
    # one-shot additivity direction at the pipeline level
    rng = SplitMix64(13)
    pairs = [(cycle(5), cycle(5)), (cycle(6), path(4))]
    for _ in range(3):
        pairs.append((random_graph(rng, 4 + rng.randrange(3), 0.4),
                      random_graph(rng, 4 + rng.randrange(3), 0.4)))
    for g1, g2 in pairs:
        union, _ = disjoint_union(
            [uniform_pgraph(g1), uniform_pgraph(g2)], Distribution.uniform(2))
        for max_n in (1, 2):
            lo1 = c0_bounds(g1, max_n=max_n).lo
            lo2 = c0_bounds(g2, max_n=max_n).lo
            lou = c0_bounds(union.graph, max_n=max_n).lo
            assert lou >= math.log2(2.0 ** lo1 + 2.0 ** lo2) - 1e-9


def test_budget_starved_still_sound():
    g = and_product_graph(cycle(5), cycle(5))
    with Budget(nodes=2):
        iv = c0_bounds(g, max_n=1)
    assert iv.lo <= iv.hi + 1e-9
    # flags recorded on the certificates
    assert iv.lo_cert.details.get("exact") in (False, None) or \
        iv.lo_cert.method == "trivial_zero"


def test_typical_alpha_estimate_examples():
    est = typical_alpha_estimate(uniform_pgraph(complete(2)), 2, 0.0)
    assert est.value == 0.0 and not est.certified
    est = typical_alpha_estimate(uniform_pgraph(empty(2)), 2, 0.0)
    assert est.value == pytest.approx(0.5)   # biased below the true C = 1
    with pytest.raises(ValueError, match="empty"):
        typical_alpha_estimate(
            ProbabilisticGraph(complete(2), Distribution((0.5, 0.5))), 3, 0.0)


def test_typical_alpha_pentagon_heavyweight():
    # permutation-sequence subgraph of the 5th pentagon power: alpha = 25
    with Budget(nodes=50_000_000):
        est = typical_alpha_estimate(uniform_pgraph(cycle(5)), 5, 0.0)
    assert est.details["alpha_exact"]
    assert est.details["alpha"] == 25
    assert est.value == pytest.approx(math.log2(25) / 5)


def test_certificates_serialize():
    iv = c0_bounds(cycle(5), max_n=2)
    d = iv.to_json_dict("C0")
    assert d["quantity"] == "C0"
    assert d["lo_cert"]["method"] == "alpha_power"
    assert d["lo_cert"]["registry_version"] == 1
    # nested certificates stay JSON-serializable
    import json

    pg = uniform_pgraph(cycle(5))
    d = c_rel_bounds(pg, max_n=1).to_json_dict("C")
    json.dumps(d)


def test_hbar_reuses_its_powers_for_the_c0_upper_end(monkeypatch):
    # the Marton lower end needs only C0's upper candidates: on a non-perfect
    # graph one perfectness test, no alpha solve, and each power built once
    from zeroerr import bounds, graphs

    calls = {"is_perfect": 0, "alpha_exact": 0, "square": 0}
    real_perfect, real_alpha = bounds.is_perfect, bounds.alpha_exact
    real_product = graphs.and_product_graph

    def is_perfect(*args, **kwargs):
        calls["is_perfect"] += 1
        return real_perfect(*args, **kwargs)

    def alpha_exact(*args, **kwargs):
        calls["alpha_exact"] += 1
        return real_alpha(*args, **kwargs)

    def product(*args, **kwargs):
        g = real_product(*args, **kwargs)
        calls["square"] += g.n == 25
        return g

    monkeypatch.setattr(bounds, "is_perfect", is_perfect)
    monkeypatch.setattr(bounds, "alpha_exact", alpha_exact)
    monkeypatch.setattr(graphs, "and_product_graph", product)
    monkeypatch.setattr(bounds, "and_product_graph", product, raising=False)
    iv = hbar_bounds(uniform_pgraph(cycle(5)), max_n=2)
    assert calls == {"is_perfect": 1, "alpha_exact": 0, "square": 1}
    assert iv.lo_cert.details["c0_hi"] == pytest.approx(HALF_LOG2_5)


def _count_korner_solves(monkeypatch):
    from zeroerr import bounds

    calls = []
    real = bounds.korner_entropy

    def korner_entropy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "korner_entropy", korner_entropy)
    return calls


def test_hbar_c6c8_closes_without_a_korner_solve(monkeypatch):
    # log chi = 2 above and H(P) - log(3 * 4) below close the interval, so the
    # 48-vertex product needs no Koerner solve; the report is unchanged
    calls = _count_korner_solves(monkeypatch)
    iv = hbar_bounds(and_product(uniform_pgraph(cycle(6)), uniform_pgraph(cycle(8))))
    assert calls == []
    assert iv.to_json_dict("Hbar") == {
        "quantity": "Hbar", "lo": 2.0000000000000044, "hi": 2.0,
        "lo_cert": {"method": "marton_capacity_reflect", "registry_version": 1,
                    "details": {"entropy": 5.5849625007211605, "c0_hi": 3.584962500721156,
                                "c0_hi_cert": {"method": "clique_cover_power",
                                               "registry_version": 1,
                                               "details": {"n": 1, "cover": 12,
                                                           "exact": True}}}},
        "hi_cert": {"method": "hchi_power_heuristic", "registry_version": 1,
                    "details": {"n": 1, "value": 2.0}}}


def test_hbar_open_interval_still_runs_the_korner_solve(monkeypatch):
    calls = _count_korner_solves(monkeypatch)
    with Budget(nodes=10_000):
        iv = hbar_bounds(uniform_pgraph(cycle(7)), max_n=2)
    assert len(calls) == 1
    assert iv.hi_cert.method == "korner_upper"
    assert iv.hi == iv.hi_cert.details["value"] == 1.2223924213364477


def test_hbar_skips_the_korner_solve_only_where_it_cannot_lower_hi(monkeypatch):
    # a skipped solve J satisfies J >= H_kappa >= Hbar >= lo >= hi - tol; seeded
    # random graphs with random weights keep a gap (and run the solve), so the
    # closed products and powers below carry the skipped cases
    calls = _count_korner_solves(monkeypatch)
    tol = 1e-10
    rng = SplitMix64(17)
    cases = [(uniform_pgraph(cycle(5)), 2),
             (uniform_pgraph(and_product_graph(cycle(6), cycle(6))), 1),
             (uniform_pgraph(and_product_graph(cycle(6), cycle(8))), 1),
             (uniform_pgraph(graph_from_edges(9, [(i, (i + d) % 9) for i in range(9)
                                                  for d in (1, 2)])), 1)]
    drawn = 0
    while drawn < 100:  # squares only up to 7 vertices, to keep the chi solves short
        n = 6 + rng.randrange(4)
        g = random_graph(rng, n, 0.2 + 0.6 * rng.random())
        if not is_perfect(g)[0]:
            drawn += 1
            pg = ProbabilisticGraph(g, random_distribution(rng, n))
            cases += [(pg, 1)] + [(pg, 2)] * (n <= 7)
    skipped = 0
    for pg, max_n in cases:
        calls.clear()
        with Budget(nodes=10_000):
            iv = hbar_bounds(pg, max_n=max_n, korner_tol=tol)
        if calls:
            assert len(calls) == 1
        else:
            skipped += 1
            assert iv.hi - iv.lo <= tol
            assert korner_entropy(pg, tol).value >= iv.hi - tol
    assert skipped >= 4
