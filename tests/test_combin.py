"""Exact solvers against brute-force oracles and standard graph identities."""

import functools
import gc
import itertools
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zeroerr.graphs import (
    BudgetExceeded,
    Budget,
    Distribution,
    ProbabilisticGraph,
    and_power,
    bits_of,
    and_product_graph,
    and_power_graph,
    catalog_get,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    induced_subgraph_graph,
    path,
    uniform_pgraph,
    ZeroErrError,
)
from zeroerr import combin
from zeroerr.combin import (
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


from oracles import (
    alpha_brute,
    chi_brute,
    chi_search_reference,
    dsatur_greedy_reference,
    hchi_brute,
    min_entropy_heuristic_reference,
)


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
    with Budget(nodes=3):
        r = alpha_exact(g)
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
    for _ in range(24):
        g = random_graph(rng, 1 + rng.randrange(8), 0.2 + 0.6 * rng.random())
        res = chromatic_number_exact(g)
        assert res.exact and res.count == chi_brute(g)
        assert validate_coloring(g, res.coloring)


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


def test_dsatur_greedy_matches_reference_loop():
    rng = SplitMix64(31)
    graphs = [empty(1), complete(5), cycle(7)] + [
        random_graph(rng, 1 + rng.randrange(40), rng.random()) for _ in range(60)]
    for g in graphs:
        assert dsatur_greedy(g) == dsatur_greedy_reference(g)


def test_chromatic_number_relabels_each_graph_once(monkeypatch):
    # the clique bound and the chi search share one root order
    calls = []
    real = combin._root_order
    monkeypatch.setattr(combin, "_root_order", lambda g: calls.append(g.n) or real(g))
    assert chromatic_number_exact(cycle(5)).count == 3
    assert calls == [5]
    calls.clear()
    c5_and_k2 = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
    assert chromatic_number_exact(c5_and_k2).count == 3
    assert sorted(calls) == [2, 5]  # once per component


def _chi_solve(g, budget, lower):
    with budget:
        solver = combin._ChiSolver(g, lower, combin._root_order(g))
    count, colors, exact = solver.solve()
    return count, colors, exact, solver.nodes


def _chi_instances():
    """Seeded random graphs on 1-40 vertices, each with its clique bound."""
    rng = SplitMix64(37)
    for _ in range(36):
        g = random_graph(rng, 1 + rng.randrange(40), 0.1 + 0.8 * rng.random())
        yield g, max_clique(g)[0]


def _and_squares():
    bases = [cycle(5), cycle(7), and_product_graph(cycle(5), complete(2))]
    for base in bases:
        sq = and_power_graph(base, 2)
        for g in (sq, complement(sq)):
            yield g, max_clique(g)[0]


def test_chi_solver_matches_reference_search_node_for_node():
    for g, omega in _chi_instances():
        for nodes in (50, 500, 5000):
            for lower in (omega, 1):
                budget = Budget(nodes=nodes)
                assert _chi_solve(g, budget, lower) == chi_search_reference(g, budget, lower)


def test_chi_solver_matches_reference_search_on_and_squares():
    budget = Budget(nodes=10_000)
    for g, omega in _and_squares():
        assert _chi_solve(g, budget, omega) == chi_search_reference(g, budget, omega)


def test_chi_colour_limit_fix_only_prunes():
    """Re-reading the incumbent at each colour skips subtrees that cannot
    improve it, so against the loop that read it once per node no count
    rises, no exact flag is lost and no search visits more nodes."""
    budgets = [Budget(nodes=n) for n in (50, 500, 5000)]
    runs = [(g, omega, b) for g, omega in _chi_instances() for b in budgets]
    runs += [(g, omega, Budget(nodes=10_000)) for g, omega in _and_squares()]
    pruned = 0
    for g, omega, budget in runs:
        count, _, exact, nodes = _chi_solve(g, budget, omega)
        old_count, _, old_exact, old_nodes = chi_search_reference(
            g, budget, omega, stale_limit=True)
        assert count <= old_count
        assert exact or not old_exact
        assert nodes <= old_nodes
        pruned += nodes < old_nodes
    assert pruned  # the fix is exercised, not vacuous


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


def _networkx_sample(seed, count):
    """(g, its networkx copy, the networkx maximal independent sets as
    bitsets) for seeded random graphs on 4-9 vertices."""
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(seed)
    for _ in range(count):
        g = random_graph(rng, 4 + rng.randrange(6), 0.15 + 0.7 * rng.random())
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        mis = {sum(1 << v for v in c) for c in nx.find_cliques(nx.complement(ng))}
        yield g, ng, mis


def test_alpha_omega_mis_against_networkx():
    nx = pytest.importorskip("networkx")
    for g, ng, mis in _networkx_sample(109, 150):
        a, w = alpha_exact(g), omega_exact(g)
        assert a.exact and a.size == max(m.bit_count() for m in mis)
        assert is_independent(g, a.witness.vertices) and a.witness.size == a.size
        assert w.exact and w.size == max(len(c) for c in nx.find_cliques(ng))
        assert {x.vertices for x in maximal_independent_sets(g)} == mis


def test_chi_against_networkx():
    # chi is the fewest maximal independent sets that cover the vertices
    for g, _, mis in _networkx_sample(113, 150):
        full = (1 << g.n) - 1
        chi = next(k for k in range(1, g.n + 1)
                   if any(functools.reduce(operator.or_, c) == full
                          for c in itertools.combinations(sorted(mis), k)))
        res = chromatic_number_exact(g)
        assert res.exact and res.count == chi
        assert validate_coloring(g, res.coloring)


def test_mis_masks_list_is_freed_with_its_last_reference():
    # the enumeration's recursive closure once kept the list alive until the
    # next cyclic collection: 6.7 MB on the AND square of C5xK2
    masks = combin.mis_masks(cycle(5))
    assert sys.getrefcount(masks) == 2  # the name and the call's argument


# --- minimum-entropy coloring ------------------------------------------------


def test_hchi_exact_leaves_no_cyclic_garbage():
    # the DP's recursive closures once kept the memo and every inner closure
    # alive until the next cyclic collection: 6 MB on a 16-vertex graph
    from zeroerr.rng import SplitMix64
    from zeroerr.verifier import random_graph

    pg = uniform_pgraph(random_graph(SplitMix64(3), 10, 0.3))
    gc.collect()
    gc.disable()
    try:
        assert min_entropy_coloring(pg, "exact").exact
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _every_heavy_set(g, w, within, theta):
    """{mask: mass} of every maximal independent set of the graph induced on
    `within` of exact mass at least theta, by plain enumeration."""
    keep = list(bits_of(within))
    out = {}
    for sub in combin.mis_masks(induced_subgraph_graph(g, keep)):
        mask = sum(1 << keep[v] for v in bits_of(sub))
        mass = sum(w[v] for v in bits_of(mask))
        if mass >= theta:
            out[mask] = mass
    return out


def test_hchi_peel_window_widens_to_the_same_choice():
    # a family that already holds every maximal independent set (theta -inf)
    # is never refilled: its window must pick what a fresh fill and the
    # reference pick
    rng = SplitMix64(67)
    for kind in ("uniform", "zero", "near_tie") * 4:
        n = 5 + rng.randrange(12)
        g = random_graph(rng, n, 0.2 + 0.5 * rng.random())
        pg = ProbabilisticGraph(g, _peel_test_weights(rng, n, kind))
        w = [float(x) for x in pg.dist.weights]
        every = _every_heavy_set(g, w, (1 << n) - 1, -math.inf)
        first = min_entropy_heuristic_reference(pg).coloring.classes()[0]
        for family, theta in (({}, math.inf), (every, -math.inf)):
            assert combin._peel(g.rows, w, (1 << n) - 1, family, theta, 10**6)[0] == first


def test_hchi_peel_window_edges():
    # K2: the sets {0} (mask 1) and {1} (mask 2)
    rows = complete(2).rows
    a = 1e-3
    # {1} outweighs {0} by 2e-15: it replaces the earlier {0}
    assert combin._peel(rows, [a, a + 2e-15], 3, {}, math.inf, 10)[0] == 2
    # {1} outweighs the earlier {0} by only 0.5e-15, so {0} stands; the gap
    # lies below both, above the window's floor
    assert combin._peel(rows, [a - 0.5e-15, a], 3, {}, math.inf, 10)[0] == 1
    # K3, masses a - 1.6e-15, a - 0.8e-15, a: the scan keeps {0} over {1} and
    # takes {2}.  A family of {1} and {2} alone (theta a - 1e-15) would give
    # {1}; the 1e-9 window passes theta, so the family is refilled first
    w = [a - 1.6e-15, a - 0.8e-15, a]
    chosen, family, theta = combin._peel(
        complete(3).rows, w, 7, {2: w[1], 4: w[2]}, a - 1e-15, 10)
    assert (chosen, sorted(family), theta) == (4, [1, 2, 4], a - 1e-9)


def test_hchi_peel_window_widens_past_a_chain_of_near_ties():
    # Masses ascend with the mask in steps of 9 ulps (just under 1e-15) from
    # just below 1 - 1e-9 up to 1.0: inside the 1e-9 window no gap shows, so
    # only the widened window (1e-6) holds the set the scan starts from.
    # The scan over every set takes every second one, and starting one set
    # lower lands on a different last pick.  20 vertices, no edges: the
    # family's masks are taken as given and no refill runs (theta 0).
    count, step = 1_000_901, 9 * 2.0 ** -53
    family = {k + 1: 1.0 - (count - 1 - k) * step for k in range(count)}

    def scan(floor):
        chosen, best = 0, -1.0
        for c in sorted(family):
            if family[c] >= floor and family[c] > best + 1e-15:
                chosen, best = c, family[c]
        return chosen

    every, narrow = scan(-math.inf), scan(1.0 - 1e-9)
    assert every != narrow
    chosen, carried, theta = combin._peel(empty(20).rows, [0.0] * 20, (1 << 20) - 1,
                                          family, 0.0, 10)
    assert (chosen, theta) == (every, 0.0) and carried == family


def _peel_family_cases(kind):
    """Seeded random graphs with `_peel_test_weights`, or uniform strong
    products whose tied heavy sets carry over several peels."""
    if kind == "products":
        for h in (cycle(6), path(4), complete(2)):
            yield uniform_pgraph(and_product_graph(cycle(5), h))
        return
    rng = SplitMix64({"uniform": 73, "zero": 79, "near_tie": 83}[kind])
    for _ in range(12):
        n = 5 + rng.randrange(16)
        g = random_graph(rng, n, 0.15 + 0.6 * rng.random())
        yield ProbabilisticGraph(g, _peel_test_weights(rng, n, kind))


@pytest.mark.parametrize("kind", ["uniform", "zero", "near_tie", "products"])
def test_hchi_peel_family_is_every_heavy_set(kind, monkeypatch):
    # at every peel the family handed on, carried or refilled, is exactly the
    # maximal independent sets of the remaining graph of mass at least theta
    peels = []
    real = combin._peel

    def peel(rows, w, within, family, theta, limit):
        out = real(rows, w, within, family, theta, limit)
        peels.append((within, w) + out)
        return out

    monkeypatch.setattr(combin, "_peel", peel)
    for pg in _peel_family_cases(kind):
        peels.clear()
        min_entropy_coloring(pg, "heuristic")
        assert peels
        for within, w, chosen, family, theta in peels:
            assert chosen in family
            assert family == _every_heavy_set(pg.graph, w, within, theta)


def test_hchi_heuristic_carries_one_fill_on_c5xk2_square(monkeypatch):
    # (C5xK2)^2 has 144,640 maximal independent sets; the peel never lists
    # them: one pruned fill holds the heaviest, carried through all 20 peels
    def refuse(*args):
        raise AssertionError("mis_masks called")

    fills = []
    real = combin._maximal_sets
    monkeypatch.setattr(combin, "mis_masks", refuse)
    monkeypatch.setattr(combin, "_maximal_sets", lambda *a: fills.append(a[1]) or real(*a))
    pg = and_power(uniform_pgraph(and_product_graph(cycle(5), complete(2))), 2)
    res = min_entropy_coloring(pg, "heuristic")
    assert (res.value, res.coloring.color_count) == (math.log2(20), 20)
    assert len(fills) == 1


def test_hchi_heuristic_matches_reference_peel_on_c6_c8():
    pg = uniform_pgraph(and_product_graph(cycle(6), cycle(8)))
    got = min_entropy_coloring(pg, "heuristic")
    want = min_entropy_heuristic_reference(pg)
    assert (got.value, got.coloring, got.exact) == (want.value, want.coloring, want.exact)


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


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(n=st.integers(1, 12), data=st.data(),
       kind=st.sampled_from(["uniform", "zero", "ulp"]))
def test_hchi_heuristic_matches_reference_peel_property(n, data, kind):
    # exact ties (uniform), zero weights, and ulp shifts that leave masses a
    # rounding step apart: the carried peel must pick what the reference picks
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e, on in zip(pairs, data.draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    if kind == "uniform":
        w = [1.0 / n] * n
    else:
        w = [float(x) for x in data.draw(st.lists(
            st.integers(0 if kind == "zero" else 1, 3), min_size=n, max_size=n))]
        w[0] += 1.0  # a positive total
        w = [x / sum(w) for x in w]
    if kind == "ulp":
        steps = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        for v, step in enumerate(steps):
            for _ in range(abs(step)):
                w[v] = math.nextafter(w[v], math.copysign(math.inf, step))
    pg = ProbabilisticGraph(graph_from_edges(n, edges), Distribution(tuple(w)))
    got = min_entropy_coloring(pg, "heuristic")
    want = min_entropy_heuristic_reference(pg)
    assert (got.value, got.coloring, got.exact) == (want.value, want.coloring, want.exact)


def test_hchi_heuristic_mis_limit_still_raises(monkeypatch):
    # four disjoint edges: 2**4 = 16 maximal independent sets
    pg = uniform_pgraph(graph_from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
    monkeypatch.setattr(combin, "MIS_LIMIT", 10)
    with pytest.raises(BudgetExceeded, match="more than 10 maximal independent sets"):
        min_entropy_coloring(pg, "heuristic")
    monkeypatch.setattr(combin, "MIS_LIMIT", 16)
    assert min_entropy_coloring(pg, "heuristic").value == pytest.approx(1.0)


def test_hchi_downgrades_over_budget():
    g = and_power_graph(cycle(5), 2)
    res = min_entropy_coloring(uniform_pgraph(g), "exact")
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
