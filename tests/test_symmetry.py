"""Perfectness and SRG checks."""

import pytest

from zeroerr.graphs import Undecided, catalog_get, complement, cycle, path
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_graph
from zeroerr.symmetry import find_odd_hole, is_perfect, srg_parameters


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


def _nx(g):
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return nx, ng


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
