"""Exact solvers against brute-force oracles and standard graph identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zeroerr.graphs import (
    Distribution,
    ProbabilisticGraph,
    and_power,
    and_product_graph,
    and_power_graph,
    catalog_get,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    path,
    uniform_pgraph,
    ZeroErrError,
)
from zeroerr import combin
from zeroerr.combin import (
    Budget,
    alpha_exact,
    chromatic_number_exact,
    clique_cover_number,
    dsatur_greedy,
    is_independent,
    max_clique,
    maximal_independent_sets,
    min_entropy_coloring,
    omega_exact,
    validate_coloring,
)
from zeroerr.symmetry import is_perfect
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_graph, random_distribution


from oracles import alpha_brute, chi_brute, hchi_brute, min_entropy_heuristic_reference


# --- alpha / omega -----------------------------------------------------------


def test_alpha_examples():
    assert alpha_exact(cycle(5)).size == 2
    r = alpha_exact(and_power_graph(cycle(5), 2))
    assert r.size == 5 and r.exact
    assert is_independent(and_power_graph(cycle(5), 2), r.witness.vertices)
    assert alpha_exact(catalog_get("schlafli")).size == 3


def test_alpha_against_brute_force():
    rng = SplitMix64(11)
    for _ in range(25):
        g = random_graph(rng, 5 + rng.randrange(6), 0.4)
        assert alpha_exact(g).size == alpha_brute(g)


def test_alpha_budget_degrades_to_lower_bound():
    g = and_power_graph(cycle(5), 2)
    r = alpha_exact(g, Budget(nodes=3, seconds=30))
    assert not r.exact
    assert r.size <= 5
    assert is_independent(g, r.witness.vertices)


def test_omega_examples():
    assert omega_exact(complete(6)).size == 6
    assert omega_exact(cycle(5)).size == 2
    s = catalog_get("schlafli")
    assert omega_exact(s).size == 6
    assert alpha_exact(complement(s)).size == 6


def test_union_identities():
    rng = SplitMix64(13)
    for _ in range(8):
        g1 = random_graph(rng, 3 + rng.randrange(5), 0.45)
        g2 = random_graph(rng, 3 + rng.randrange(5), 0.45)
        union, _ = disjoint_union([uniform_pgraph(g1), uniform_pgraph(g2)],
                                  Distribution.uniform(2))
        gu = union.graph
        assert alpha_exact(gu).size == alpha_exact(g1).size + alpha_exact(g2).size
        assert chromatic_number_exact(gu).count == max(
            chromatic_number_exact(g1).count, chromatic_number_exact(g2).count)
        assert omega_exact(gu).size == max(omega_exact(g1).size, omega_exact(g2).size)


def test_product_identities():
    rng = SplitMix64(17)
    for _ in range(8):
        g1 = random_graph(rng, 3 + rng.randrange(3), 0.5)
        g2 = random_graph(rng, 3 + rng.randrange(3), 0.5)
        gp = and_product_graph(g1, g2)
        assert alpha_exact(gp).size >= alpha_exact(g1).size * alpha_exact(g2).size
        assert omega_exact(gp).size == omega_exact(g1).size * omega_exact(g2).size


# --- chromatic ---------------------------------------------------------------


def test_chi_examples():
    assert chromatic_number_exact(complete(7)).count == 7
    assert chromatic_number_exact(cycle(5)).count == 3
    prod = and_product_graph(cycle(6), cycle(8))
    r = chromatic_number_exact(prod)
    assert r.exact and r.count == 4  # omega <= chi <= greedy closes at 4
    assert validate_coloring(prod, r.coloring)
    assert r.coloring.color_count == 4


def test_chi_against_brute_force():
    rng = SplitMix64(19)
    for _ in range(12):
        g = random_graph(rng, 4 + rng.randrange(3), 0.5)
        assert chromatic_number_exact(g).count == chi_brute(g)


def test_chi_perfect_equals_omega():
    rng = SplitMix64(23)
    found = 0
    while found < 10:
        g = random_graph(rng, 4 + rng.randrange(6), 0.35)
        if not is_perfect(g)[0]:
            continue
        found += 1
        res = chromatic_number_exact(g)
        assert res.count == omega_exact(g).size
        assert res.exact  # matching the clique bound proves optimality


def test_clique_cover():
    assert clique_cover_number(cycle(5)).count == 3
    assert clique_cover_number(complete(9)).count == 1
    c6 = cycle(6)
    assert clique_cover_number(c6).count == 3 == alpha_exact(c6).size


def test_dsatur_greedy_valid():
    rng = SplitMix64(29)
    for _ in range(10):
        g = random_graph(rng, 6 + rng.randrange(10), 0.4)
        col = dsatur_greedy(g)
        assert validate_coloring(g, col)
        assert col.color_count >= chromatic_number_exact(g).count


# --- maximal independent sets ------------------------------------------------


def test_mis_enumeration_examples():
    sets = maximal_independent_sets(complete(3))
    assert [w.to_list() for w in sets] == [[0], [1], [2]]
    sets = maximal_independent_sets(cycle(5))
    assert sorted(tuple(w.to_list()) for w in sets) == [
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    sets = maximal_independent_sets(empty(3))
    assert [w.to_list() for w in sets] == [[0, 1, 2]]


def test_mis_against_brute_force():
    rng = SplitMix64(31)
    for _ in range(10):
        g = random_graph(rng, 4 + rng.randrange(5), 0.45)
        expected = set()
        for mask in range(1, 1 << g.n):
            if not is_independent(g, mask):
                continue
            if any(is_independent(g, mask | (1 << v))
                   for v in range(g.n) if not (mask >> v) & 1):
                continue
            expected.add(mask)
        got = {w.vertices for w in maximal_independent_sets(g)}
        assert got == expected


# --- minimum-entropy coloring ------------------------------------------------


def test_hchi_complete_and_empty():
    p = Distribution((0.1, 0.2, 0.3, 0.4))
    assert min_entropy_coloring(ProbabilisticGraph(complete(4), p)).value == \
        pytest.approx(p.entropy())
    assert min_entropy_coloring(ProbabilisticGraph(empty(4), p)).value == 0.0


def test_hchi_fig7_product_against_partition_oracle():
    # three disjoint edges with the product weights
    g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
    p = Distribution((Fraction(1, 12), Fraction(1, 6), Fraction(1, 6),
                      Fraction(1, 3), Fraction(1, 12), Fraction(1, 6)))
    pg = ProbabilisticGraph(g, p)
    res = min_entropy_coloring(pg)
    assert res.exact
    assert res.value == pytest.approx(hchi_brute(pg), abs=1e-12)
    assert validate_coloring(g, res.coloring)


def test_hchi_exact_matches_oracle_randomly():
    rng = SplitMix64(37)
    for _ in range(12):
        n = 4 + rng.randrange(4)  # oracle cost grows fast
        g = random_graph(rng, n, 0.45)
        pg = ProbabilisticGraph(g, random_distribution(rng, n))
        res = min_entropy_coloring(pg)
        assert res.value == pytest.approx(hchi_brute(pg), abs=1e-10)


def test_hchi_upper_bounded_by_log_chi():
    rng = SplitMix64(41)
    for _ in range(10):
        n = 4 + rng.randrange(5)
        g = random_graph(rng, n, 0.5)
        pg = ProbabilisticGraph(g, random_distribution(rng, n))
        chi = chromatic_number_exact(g).count
        assert min_entropy_coloring(pg).value <= math.log2(chi) + 1e-9


def test_hchi_heuristic_is_valid_upper_bound():
    rng = SplitMix64(43)
    for _ in range(6):
        n = 5 + rng.randrange(4)
        g = random_graph(rng, n, 0.4)
        pg = ProbabilisticGraph(g, random_distribution(rng, n))
        exact = min_entropy_coloring(pg, "exact")
        heur = min_entropy_coloring(pg, "heuristic")
        assert not heur.exact
        assert validate_coloring(g, heur.coloring)
        assert heur.value >= exact.value - 1e-12


def _peel_test_weights(rng, n, kind):
    """Uniform weights (exact ties between equal-size sets), weights with a
    third of the vertices at zero, or small-integer weights each moved a few
    ulps (sets whose masses differ by rounding only)."""
    if kind == "uniform":
        return Distribution((1.0 / n,) * n)
    if kind == "zero":
        w = [0.0 if rng.randrange(3) == 0 else rng.random() + 0.05 for _ in range(n)]
        w[rng.randrange(n)] += 1.0
    else:
        w = [float(1 + rng.randrange(3)) for _ in range(n)]
    total = sum(w)
    w = [x / total for x in w]
    if kind == "near_tie":
        for v in range(n):
            step = rng.randrange(9) - 4
            for _ in range(abs(step)):
                w[v] = math.nextafter(w[v], math.copysign(math.inf, step))
    return Distribution(tuple(w))


@pytest.mark.parametrize("kind", ["uniform", "zero", "near_tie"])
def test_hchi_heuristic_matches_reference_peel_bit_for_bit(kind):
    rng = SplitMix64({"uniform": 53, "zero": 59, "near_tie": 61}[kind])
    for _ in range(20):
        n = 5 + rng.randrange(18)
        g = random_graph(rng, n, 0.15 + 0.6 * rng.random())
        pg = ProbabilisticGraph(g, _peel_test_weights(rng, n, kind))
        got = min_entropy_coloring(pg, "heuristic")
        want = min_entropy_heuristic_reference(pg)
        assert (got.value, got.coloring, got.exact) == \
            (want.value, want.coloring, want.exact)


def test_hchi_peel_window_widens_to_the_same_choice():
    # a slack far above the roundoff leaves no gap in the 1e-9 window, so the
    # window widens until it holds every set; the choice must not change
    rng = SplitMix64(67)
    for kind in ("uniform", "zero", "near_tie") * 4:
        n = 5 + rng.randrange(12)
        g = random_graph(rng, n, 0.2 + 0.5 * rng.random())
        pg = ProbabilisticGraph(g, _peel_test_weights(rng, n, kind))
        w = [float(x) for x in pg.dist.weights]
        mis = combin.mis_masks(g)
        approx = np.array([sum(w[v] for v in range(n) if m >> v & 1) for m in mis])
        first = min_entropy_heuristic_reference(pg).coloring.classes()[0]
        for slack in (1e-12, 1.0):
            assert combin._heaviest_peel(g.rows, mis, approx, (1 << n) - 1, w, slack) == first


def test_hchi_peel_window_edges():
    # K2: the sets {0} (mask 1) and {1} (mask 2); approximations off by up
    # to `slack` may leave a set the rule picks outside the first window
    rows = complete(2).rows
    a = 1e-3
    # {1} outweighs {0} by 2e-15 but its approximation lies 1.5e-9 low, below
    # the 1e-9 window: the slack must widen the window to reach it
    w = [a, a + 2e-15]
    approx = np.array([w[0], w[1] - 1.5e-9])
    assert combin._heaviest_peel(rows, [1, 2], approx, 3, w, 2e-9) == 2
    # {1} outweighs the earlier {0} by only 0.5e-15, so {0} stands; {0} sits
    # just below the first window, which has no gap of more than 1e-15 above
    # the bound on the rows it leaves out
    w = [a - 0.5e-15, a]
    slack = 1e-9 - 0.25e-15
    approx = np.array([w[0] - slack, w[1]])
    assert combin._heaviest_peel(rows, [1, 2], approx, 3, w, slack) == 1


@pytest.mark.parametrize("base, weights", [("C5", "uniform"), ("C7", "uniform"),
                                           ("C5xK2", "uniform"), ("C5", "random"),
                                           ("C7", "random")])
def test_hchi_heuristic_matches_reference_peel_on_and_squares(base, weights):
    g = {"C5": cycle(5), "C7": cycle(7),
         "C5xK2": and_product_graph(cycle(5), complete(2))}[base]
    if weights == "uniform":
        p = Distribution.uniform(g.n)
    else:  # product weights P^2 tie exactly between permuted coordinates
        p = random_distribution(SplitMix64(71), g.n)
    pg = and_power(ProbabilisticGraph(g, p), 2)
    got = min_entropy_coloring(pg, "heuristic")
    want = min_entropy_heuristic_reference(pg)
    assert (got.value, got.coloring, got.exact) == (want.value, want.coloring, want.exact)


def test_hchi_heuristic_mis_limit_still_raises():
    # four disjoint edges: 2**4 = 16 maximal independent sets
    pg = uniform_pgraph(graph_from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
    with pytest.raises(ZeroErrError, match="more than 10 maximal independent sets"):
        min_entropy_coloring(pg, "heuristic", limit=10)
    assert min_entropy_coloring(pg, "heuristic", limit=16).value == pytest.approx(1.0)


def test_hchi_downgrades_over_budget():
    g = and_power_graph(cycle(5), 2)
    res = min_entropy_coloring(uniform_pgraph(g), "exact", exact_budget=18)
    assert not res.exact  # 25 vertices: automatic heuristic fallback
    assert res.value == pytest.approx(math.log2(5))  # diagonal tiling found


def test_hchi_subadditive_over_products():
    rng = SplitMix64(47)
    for _ in range(6):
        g1 = random_graph(rng, 3 + rng.randrange(2), 0.5)
        g2 = random_graph(rng, 3 + rng.randrange(2), 0.5)
        p1 = random_distribution(rng, g1.n)
        p2 = random_distribution(rng, g2.n)
        pg1 = ProbabilisticGraph(g1, p1)
        pg2 = ProbabilisticGraph(g2, p2)
        from zeroerr.graphs import and_product

        prod = and_product(pg1, pg2)
        assert min_entropy_coloring(prod).value <= \
            min_entropy_coloring(pg1).value + min_entropy_coloring(pg2).value + 1e-9


def test_hchi_union_of_isomorphic_copies():
    # relabeled copies share a coloring pattern: the union entropy equals the
    # component entropy, for every mixing weight
    f = Fraction
    base = ProbabilisticGraph(path(3), Distribution((f(1, 2), f(1, 4), f(1, 4))))
    copy = ProbabilisticGraph(graph_from_edges(3, [(2, 1), (1, 0)]),
                              Distribution((f(1, 4), f(1, 4), f(1, 2))))
    for pa in (f(1, 3), f(1, 2), f(4, 5)):
        union, _ = disjoint_union([base, copy], Distribution((pa, 1 - pa)))
        assert min_entropy_coloring(union).value == pytest.approx(
            min_entropy_coloring(base).value, abs=1e-10)


def test_output_checks_raise_typed_errors(monkeypatch):
    # each solver re-checks its witness with a check that survives python -O
    with monkeypatch.context() as m:
        m.setattr(combin, "is_clique", lambda g, mask: False)
        with pytest.raises(ZeroErrError, match="non-clique"):
            max_clique(cycle(5))
    with monkeypatch.context() as m:
        m.setattr(combin, "is_independent", lambda g, mask: False)
        with pytest.raises(ZeroErrError, match="dependent set"):
            alpha_exact(empty(3))
    with monkeypatch.context() as m:
        # only the coloring merged from the components is rejected
        m.setattr(combin, "validate_coloring", lambda g, coloring: g.n < 8)
        with pytest.raises(ZeroErrError, match="improper coloring"):
            chromatic_number_exact(graph_from_edges(  # C5 plus P3
                8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7)]))
    monkeypatch.setattr(combin, "validate_coloring", lambda g, coloring: False)
    pg = uniform_pgraph(path(4))
    for call in (lambda: chromatic_number_exact(cycle(5)),
                 lambda: min_entropy_coloring(pg, "exact"),
                 lambda: min_entropy_coloring(pg, "heuristic")):
        with pytest.raises(ZeroErrError, match="improper coloring"):
            call()
