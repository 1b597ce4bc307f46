"""Isomorphism, automorphisms, perfectness, SRG checks."""

import pytest

from zeroerr.graphs import (
    Budget,
    Distribution,
    ProbabilisticGraph,
    Undecided,
    catalog_get,
    complement,
    cycle,
    graph_from_edges,
    path,
    uniform_pgraph,
)
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_graph
from zeroerr.symmetry import (
    find_automorphism,
    find_odd_hole,
    graph_isomorphic,
    is_isomorphic,
    is_perfect,
    srg_parameters,
)


def test_isomorphic_relabeled_cycle():
    c5 = uniform_pgraph(cycle(5))
    relabeled = uniform_pgraph(graph_from_edges(
        5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)]))
    mapping = is_isomorphic(c5, relabeled)
    assert mapping is not None
    for i, j in c5.graph.edges():
        assert relabeled.graph.has_edge(mapping[i], mapping[j])


def test_isomorphism_respects_weights():
    c5 = uniform_pgraph(cycle(5))
    skewed = ProbabilisticGraph(cycle(5), Distribution((0.3, 0.2, 0.2, 0.2, 0.1)))
    assert is_isomorphic(c5, skewed) is None
    # same weights on a rotated labeling must still match
    rotated = ProbabilisticGraph(cycle(5), Distribution((0.2, 0.2, 0.2, 0.1, 0.3)))
    assert is_isomorphic(skewed, rotated) is not None


def test_isomorphism_rejects_different_graphs():
    assert graph_isomorphic(cycle(6), path(6)) is None
    assert graph_isomorphic(cycle(6), cycle(5)) is None


def test_isomorphism_budget():
    big = uniform_pgraph(cycle(70))
    with pytest.raises(Undecided):
        is_isomorphic(big, big)


def test_isomorphism_search_reads_the_budget_scope():
    # fixing one Petersen vertex leaves a stabilizer of order 12: the search
    # must branch, and the node limit of the active scope stops it
    g = graph_from_edges(10, PETERSEN_EDGES)
    assert find_automorphism(g, [(0, 1)]) is not None
    with Budget(nodes=0):
        with pytest.raises(Undecided):
            find_automorphism(g, [(0, 1)])
        with pytest.raises(Undecided):
            graph_isomorphic(g, g)


def _nx(g):
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return nx, ng


def _nx_transitivity(g):
    """(vertex-, edge-transitive) from the orbits of vertex 0 and of the
    first edge under every automorphism networkx enumerates."""
    nx, ng = _nx(g)
    autos = list(nx.isomorphism.GraphMatcher(ng, ng).isomorphisms_iter())
    edges = [frozenset(e) for e in g.edges()]
    vertex = {a[0] for a in autos} == set(range(g.n))
    edge = not edges or {frozenset(a[x] for x in edges[0]) for a in autos} == set(edges)
    return vertex, edge


def _automorphism(g, forced):
    """`find_automorphism(g, forced)`, checked to be an automorphism of g
    that keeps every prescribed image when it is not None."""
    p = find_automorphism(g, forced)
    if p is not None:
        assert sorted(p) == list(range(g.n))
        assert all(g.has_edge(p[i], p[j]) for i, j in g.edges())
        assert all(p[v] == w for v, w in forced)
    return p


def _transitivity(g):
    """(vertex-, edge-transitive) from one automorphism search per target:
    0 to every vertex, the first edge onto every edge either way round."""
    edges = g.edges()
    vertex = all(_automorphism(g, [(0, v)]) is not None for v in range(g.n))
    if not edges:
        return vertex, True
    s, t = edges[0]
    edge = all(_automorphism(g, [(s, u), (t, v)]) is not None
               or _automorphism(g, [(s, v), (t, u)]) is not None for u, v in edges)
    return vertex, edge


PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("edges, n, expected", [
    ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)], 6,
     (True, False)),
    ([(0, 1), (0, 2), (0, 3)], 4, (False, True)),
    ([(i, j) for i in range(2) for j in range(2, 5)], 5, (False, True)),
    ([(0, 1), (1, 2), (2, 0), (2, 3)], 4, (False, False)),
    ([(i, (i + 1) % 5) for i in range(5)], 5, (True, True)),
    ([(i, (i + 1) % 8) for i in range(8)], 8, (True, True)),
    (PETERSEN_EDGES, 10, (True, True)),
], ids=["prism", "K13", "K23", "kite", "C5", "C8", "petersen"])
def test_transitivity_hand_picked_cases(edges, n, expected):
    # the automorphisms `find_automorphism` finds, with one or two prescribed
    # images, decide both transitivity questions as networkx does
    g = graph_from_edges(n, edges)
    assert _transitivity(g) == expected
    assert _nx_transitivity(g) == expected


def test_find_automorphism_against_networkx_orbits():
    # an automorphism mapping 0 to v is found exactly when v is in the orbit
    # of 0 under every automorphism networkx enumerates
    rng = SplitMix64(101)
    orbit_sizes = set()
    for _ in range(300):
        g = random_graph(rng, 4 + rng.randrange(5), 0.2 + 0.6 * rng.random())
        nx, ng = _nx(g)
        orbit = {a[0] for a in nx.isomorphism.GraphMatcher(ng, ng).isomorphisms_iter()}
        found = {v for v in range(g.n) if _automorphism(g, [(0, v)]) is not None}
        assert found == orbit, g.edges()
        orbit_sizes.add(len(orbit) == g.n)
    # the sample holds vertex-transitive graphs and others
    assert orbit_sizes == {True, False}


def test_perfectness_basics():
    ok, hole, in_comp = is_perfect(cycle(5))
    assert not ok and sorted(hole) == [0, 1, 2, 3, 4] and not in_comp
    assert is_perfect(cycle(6))[0]
    assert is_perfect(cycle(8))[0]
    assert is_perfect(path(7))[0]
    ok, hole, in_comp = is_perfect(cycle(7))
    assert not ok and len(hole) == 7
    # odd antihole: complement of C7 is not perfect either, witness flagged
    ok, hole, in_comp = is_perfect(complement(cycle(7)))
    assert not ok


def test_perfect_budget():
    with pytest.raises(Undecided):
        is_perfect(cycle(15))


def test_find_odd_hole_none_in_even_cycle():
    assert find_odd_hole(cycle(8)) is None
    hole = find_odd_hole(cycle(9))
    assert len(hole) == 9


def test_srg_schlafli():
    s = catalog_get("schlafli")
    assert srg_parameters(s) == (27, 16, 10, 8)
    assert srg_parameters(complement(s)) == (27, 10, 1, 5)
    assert srg_parameters(path(4)) is None


def _is_induced_odd_cycle(g, hole):
    k = len(hole)
    return (k >= 5 and k % 2 == 1 and len(set(hole)) == k
            and all(g.has_edge(hole[i], hole[j]) == ((i - j) % k in (1, k - 1))
                    for i in range(k) for j in range(i + 1, k)))


def test_is_perfect_against_networkx():
    rng = SplitMix64(103)
    verdicts = set()
    for _ in range(120):
        g = random_graph(rng, 4 + rng.randrange(6), 0.2 + 0.6 * rng.random())
        nx, ng = _nx(g)
        ok, hole, in_complement = is_perfect(g)
        assert ok == nx.is_perfect_graph(ng), g.edges()
        if not ok:
            assert _is_induced_odd_cycle(complement(g) if in_complement else g, hole)
        verdicts.add(ok)
    assert verdicts == {True, False}


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_graph_isomorphic_against_networkx():
    rng = SplitMix64(107)
    verdicts = set()
    for _ in range(150):
        n = 4 + rng.randrange(5)
        g = random_graph(rng, n, 0.2 + 0.6 * rng.random())
        perm = _shuffled(rng, range(n))
        relabeled = graph_from_edges(n, [(perm[i], perm[j]) for i, j in g.edges()])
        # as many edges as g, drawn at random: isomorphic to g or not
        pairs = _shuffled(rng, [(i, j) for i in range(n) for j in range(i + 1, n)])
        other = graph_from_edges(n, pairs[:g.edge_count()])
        nx, ng = _nx(g)
        for h in (relabeled, other):
            mapping = graph_isomorphic(g, h)
            assert (mapping is not None) == nx.is_isomorphic(ng, _nx(h)[1]), h.edges()
            if mapping is not None:
                assert sorted(mapping) == list(range(n))
                assert all(h.has_edge(mapping[i], mapping[j]) for i, j in g.edges())
            verdicts.add(mapping is not None)
    assert verdicts == {True, False}
