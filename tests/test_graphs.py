"""Graph core: types, constructions, catalog, index algebra, file formats."""

import copy
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zeroerr.graphs import (
    Budget,
    BudgetExceeded,
    ChannelSpec,
    Distribution,
    Graph,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    and_power,
    and_power_graph,
    and_product,
    catalog_get,
    channel_from_json_dict,
    characteristic_graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    graph_from_json_dict,
    induced_subgraph,
    induced_subgraph_graph,
    path,
    pgraph_from_json_dict,
    uniform_pgraph,
)
from zeroerr.combin import chromatic_number_exact
from zeroerr.numopt import korner_entropy
from zeroerr.rng import SplitMix64
from zeroerr.symmetry import is_perfect
from zeroerr.verifier import random_graph


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))                 # wrong row count
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))            # self loop
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))            # asymmetric
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])


def test_distribution_validation():
    Distribution((Fraction(1, 3), Fraction(2, 3)))
    Distribution((0.5, 0.5))
    with pytest.raises(ValueError):
        Distribution((0.5, 0.6))
    with pytest.raises(ValueError):
        Distribution((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Distribution((-0.1, 1.1))


def test_entropy_bits():
    assert Distribution.uniform(8).entropy() == pytest.approx(3.0)
    assert Distribution((1.0, 0.0)).entropy() == 0.0  # 0 log 0 = 0


def test_characteristic_graph_typewriter_is_pentagon():
    support = frozenset((x, y) for x in range(5) for y in (x, (x + 1) % 5))
    g = characteristic_graph(ChannelSpec(5, 5, support))
    assert g.rows == cycle(5).rows


def test_characteristic_graph_identity_and_full():
    ident = ChannelSpec(4, 4, frozenset((x, x) for x in range(4)))
    assert characteristic_graph(ident).edge_count() == 0
    full = ChannelSpec(3, 2, frozenset((x, y) for x in range(3) for y in range(2)))
    g = characteristic_graph(full)
    assert g.edge_count() == 3  # complete on 3 vertices


def test_channel_requires_outputs():
    with pytest.raises(ValueError, match="no outputs"):
        ChannelSpec(2, 2, frozenset({(0, 0)}))


def test_and_product_fig7_values():
    # N3 x K2 with weights (1/4,1/2,1/4) and (1/3,2/3): three disjoint edges
    n3 = ProbabilisticGraph(empty(3), Distribution(
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))))
    k2 = ProbabilisticGraph(complete(2), Distribution(
        (Fraction(1, 3), Fraction(2, 3))))
    prod = and_product(n3, k2)
    assert prod.n == 6
    assert sorted(prod.graph.edges()) == [(0, 1), (2, 3), (4, 5)]
    assert prod.dist.weights == (Fraction(1, 12), Fraction(1, 6), Fraction(1, 6),
                                 Fraction(1, 3), Fraction(1, 12), Fraction(1, 6))


def test_and_product_identity_element():
    g = uniform_pgraph(cycle(5))
    one = uniform_pgraph(empty(1))
    prod = and_product(g, one)
    assert prod.graph.rows == g.graph.rows


def test_pentagon_square_independent_set_by_rule():
    g = and_power_graph(cycle(5), 2)
    members = [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]
    idx = [a * 5 + b for a, b in members]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not g.has_edge(idx[i], idx[j])


def test_and_power_examples():
    assert and_power_graph(cycle(5), 1).rows == cycle(5).rows
    k8 = and_power_graph(complete(2), 3)
    assert k8.n == 8 and k8.edge_count() == 28  # complete graphs absorb
    sq = and_power_graph(cycle(5), 2)
    assert all(sq.degree(v) == 8 for v in range(25))


def test_product_budget():
    with Budget(vertices=1 << 16), pytest.raises(BudgetExceeded, match="too large"):
        and_power(uniform_pgraph(cycle(5)), 8)


def test_budget_scope_nests_and_restores():
    assert Budget.current() == Budget()
    outer, inner = Budget(nodes=7, vertices=30), Budget(vertices=4)
    with outer:
        assert and_power_graph(cycle(5), 2).n == 25
        with inner:
            assert Budget.current() is inner
            with pytest.raises(BudgetExceeded, match="25 > 4"):
                and_power_graph(cycle(5), 2)
        assert Budget.current() is outer
        with pytest.raises(ZeroDivisionError):
            with inner:
                1 / 0
        assert Budget.current() is outer
        with outer:  # the active instance entered again
            assert Budget.current() is outer
        assert Budget.current() is outer
    assert Budget.current() == Budget()


def test_budget_rejects_negative_limits():
    assert Budget(nodes=0, vertices=0).nodes == 0
    for kwargs in ({"nodes": -5}, {"vertices": -1}):
        with pytest.raises(ZeroErrError, match="budgets must be >= 0"):
            Budget(**kwargs)


def test_budget_scope_does_not_reach_a_new_thread():
    seen = []
    with Budget(nodes=3, vertices=4):
        worker = threading.Thread(target=lambda: seen.append(Budget.current()))
        worker.start()
        worker.join()
    assert seen == [Budget()]


def _count_solves(monkeypatch, solver):
    calls = []
    real = solver.__wrapped__

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "__wrapped__", counted)
    return calls


def test_budget_scope_stores_each_solve_once(monkeypatch):
    calls = _count_solves(monkeypatch, chromatic_number_exact)
    with Budget():
        first = chromatic_number_exact(cycle(7))
        assert chromatic_number_exact(cycle(7)) is first  # an equal graph hits
        assert len(calls) == 1
        with Budget(nodes=7):  # another budget: a nested store, dropped on exit
            assert chromatic_number_exact(cycle(7)) is not first
            assert len(calls) == 2
        with Budget():  # an equal budget shapes results alike: the same store
            assert chromatic_number_exact(cycle(7)) is first
        assert chromatic_number_exact(cycle(7)) is first
    assert len(calls) == 2
    chromatic_number_exact(cycle(7))
    chromatic_number_exact(cycle(7))
    assert len(calls) == 4  # outside every scope nothing is stored


def test_budget_scope_never_stores_an_exception(monkeypatch):
    calls = _count_solves(monkeypatch, is_perfect)
    with Budget():
        for _ in range(2):
            with pytest.raises(Undecided):
                is_perfect(cycle(15))
    assert len(calls) == 2


def test_stored_results_are_immutable():
    sol = korner_entropy(uniform_pgraph(cycle(5)))
    for array in (sol.r, sol.cov):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        sol.value = 0.0
    assert isinstance(sol.sets, tuple)
    assert isinstance(is_perfect(cycle(5))[1], tuple)


def test_disjoint_union_fig7_weights():
    n3 = ProbabilisticGraph(empty(3), Distribution(
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))))
    k2 = ProbabilisticGraph(complete(2), Distribution(
        (Fraction(1, 3), Fraction(2, 3))))
    union, layout = disjoint_union([n3, k2], Distribution(
        (Fraction(1, 4), Fraction(3, 4))))
    assert union.dist.weights == (Fraction(1, 16), Fraction(1, 8), Fraction(1, 16),
                                  Fraction(1, 4), Fraction(1, 2))
    assert union.graph.edges() == [(3, 4)]
    assert layout.offsets == (0, 3)
    assert layout.component_of(4) == (1, 1)
    assert layout.global_index(1, 0) == 3


def test_disjoint_union_single_and_symmetric():
    k2 = uniform_pgraph(complete(2))
    single, _ = disjoint_union([k2], Distribution((Fraction(1),)))
    assert single.graph.edges() == [(0, 1)]
    assert single.dist.weights == k2.dist.weights
    double, _ = disjoint_union([k2, k2], Distribution.uniform(2))
    assert double.n == 4
    assert sorted(double.graph.edges()) == [(0, 1), (2, 3)]
    assert all(w == Fraction(1, 4) for w in double.dist.weights)


def test_complement_involution_and_catalog():
    assert complement(complete(4)).edge_count() == 0
    c5 = cycle(5)
    # self-complementary: i -> 2i mod 5 maps C5 onto its complement
    c5bar = complement(c5)
    assert all(c5.has_edge(i, j) == c5bar.has_edge(2 * i % 5, 2 * j % 5)
               for i in range(5) for j in range(i + 1, 5))
    g = graph_from_edges(6, [(0, 1), (2, 4), (3, 5), (1, 2)])
    assert complement(complement(g)).rows == g.rows


def test_induced_subgraph():
    assert induced_subgraph_graph(complete(5), [1, 3]).edge_count() == 1
    p3 = induced_subgraph_graph(cycle(5), [0, 1, 2])
    assert p3.rows == path(3).rows
    # K2 u N2 induced on the K2 block, renormalized
    k2 = ProbabilisticGraph(complete(2), Distribution((Fraction(1, 3), Fraction(2, 3))))
    n2 = uniform_pgraph(empty(2))
    union, _ = disjoint_union([k2, n2], Distribution((Fraction(1, 2), Fraction(1, 2))))
    sub = induced_subgraph(union, [0, 1])
    assert sub.dist.weights == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(ValueError, match="renormalize"):
        zero = ProbabilisticGraph(empty(2), Distribution((Fraction(1), Fraction(0))))
        induced_subgraph(zero, [1])
    # keeping the full support leaves the weights as they are
    kept = induced_subgraph(zero, [0])
    assert kept.dist.weights == (Fraction(1),)


def test_catalog():
    assert catalog_get("cycle", 7).n == 7
    assert catalog_get("empty", 4).edge_count() == 0
    assert catalog_get("path", 4).edge_count() == 3
    with pytest.raises(ValueError):
        catalog_get("cycle", 2)
    with pytest.raises(ValueError):
        catalog_get("moebius", 5)
    s = catalog_get("schlafli")
    assert s.n == 27 and all(s.degree(v) == 16 for v in range(27))


def test_json_roundtrip():
    g = cycle(6)
    assert graph_from_json_dict(g.to_json_dict()).rows == g.rows
    pg = ProbabilisticGraph(g, Distribution(
        tuple(Fraction(k + 1, 21) for k in range(6))))
    back = pgraph_from_json_dict(pg.to_json_dict())
    assert back.dist.weights == pg.dist.weights
    chan = ChannelSpec(2, 3, frozenset({(0, 0), (0, 1), (1, 2)}))
    back = channel_from_json_dict(chan.to_json_dict())
    assert back.support == chan.support
    with pytest.raises(ValueError, match="malformed"):
        graph_from_json_dict({"edges": []})
    with pytest.raises(ValueError, match="outside"):
        graph_from_json_dict({"n": 2, "edges": [[0, 5]]})
    with pytest.raises(ValueError, match="outside"):
        graph_from_edges(3, [(-1, 2)])
    for dist in ({"num": [1, 1]}, {"num": [1, 1], "den": 0}):
        with pytest.raises(ValueError, match="malformed distribution JSON"):
            pgraph_from_json_dict({"n": 2, "edges": [], "dist": dist})
    with pytest.raises(ValueError, match="not 1"):
        pgraph_from_json_dict({"n": 1, "edges": [], "dist": [float("nan")]})
    for doc, count in (({"x_count": -1, "y_count": -3, "support": []}, "x_count"),
                       ({"x_count": 1, "y_count": -3, "support": [[0, 0]]}, "y_count")):
        with pytest.raises(ValueError, match=f"{count} must be nonnegative"):
            channel_from_json_dict(doc)


LOADER_DOCS = [
    (graph_from_json_dict, {"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}),
    (pgraph_from_json_dict, {"n": 3, "edges": [[0, 1]], "dist": {"num": [1, 1, 2], "den": 4}}),
    (pgraph_from_json_dict, {"n": 2, "edges": [[0, 1]], "dist": [0.25, 0.75]}),
    (channel_from_json_dict, {"x_count": 2, "y_count": 2, "support": [[0, 0], [1, 0], [1, 1]]}),
]
# JSON values an edit puts in place of one item (json.load reads NaN and
# Infinity too); an index past the end deletes the item
EDIT_VALUES = [None, True, -1, 0, 1, 2, 7, 0.5, float("nan"), float("inf"), "x", "1/2",
               [], [0, 1], [[0, 9]], [[0, 0]], {}, {"num": [1], "den": 0}, {"den": 1}]


def _slots(doc, path=()):
    """Paths to every item of a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _slots(value, path + (key,))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(which=st.integers(0, len(LOADER_DOCS) - 1), edits=st.lists(st.tuples(
    st.integers(0, 30), st.integers(0, len(EDIT_VALUES))), min_size=1, max_size=3))
def test_json_loaders_return_a_value_or_raise_value_error(which, edits):
    # each edit (slot, value) replaces or deletes one item of a valid document
    loader, doc = LOADER_DOCS[which]
    doc = copy.deepcopy(doc)
    for slot, value in edits:
        paths = list(_slots(doc))
        path = paths[slot % len(paths)]
        new = copy.deepcopy(EDIT_VALUES[value]) if value < len(EDIT_VALUES) else None
        if not path:
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value < len(EDIT_VALUES):
            parent[path[-1]] = new
        else:
            del parent[path[-1]]
    try:
        loader(doc)
    except (ValueError, ZeroErrError):
        pass


def test_product_commutative_associative_up_to_iso():
    rng = SplitMix64(5)
    for _ in range(4):
        a = uniform_pgraph(random_graph(rng, 2 + rng.randrange(2), 0.5))
        b = uniform_pgraph(random_graph(rng, 2 + rng.randrange(2), 0.5))
        c = uniform_pgraph(random_graph(rng, 2, 0.5))
        ab, ba = and_product(a, b), and_product(b, a)
        # vertex (x, y) of A x B is x*|B| + y, and (y, x) of B x A is y*|A| + x
        swap = [(i % b.n) * a.n + i // b.n for i in range(ab.n)]
        assert all(ab.graph.has_edge(i, j) == ba.graph.has_edge(swap[i], swap[j])
                   for i in range(ab.n) for j in range(i + 1, ab.n))
        assert all(ab.dist[i] == ba.dist[swap[i]] for i in range(ab.n))
        lhs = and_product(and_product(a, b), c)
        rhs = and_product(a, and_product(b, c))
        assert lhs.graph.rows == rhs.graph.rows
        assert lhs.dist.weights == rhs.dist.weights
