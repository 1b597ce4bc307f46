"""Types, typical sets, typical induced subgraphs, splitting, eta."""

import gc
from fractions import Fraction
from itertools import product as iproduct

import pytest

from zeroerr.graphs import (
    Budget,
    BudgetExceeded,
    Distribution,
    ProbabilisticGraph,
    complete,
    cycle,
    empty,
    uniform_pgraph,
)
from zeroerr.typicality import (
    SequenceType,
    eta_bounds,
    index_sequence,
    sequence_index,
    type_of,
    type_split,
    typical_induced_subgraph,
    typical_set,
)
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_distribution


def test_type_of():
    assert type_of((0, 1, 0, 1), 2).counts == (2, 2)
    assert type_of((0, 0, 0), 2).counts == (3, 0)
    with pytest.raises(ValueError):
        type_of((), 2)
    with pytest.raises(ValueError):
        type_of((5,), 2)
    with pytest.raises(ValueError):
        SequenceType((1, 1), 3)


def test_typical_set_members():
    u2 = Distribution.uniform(2)
    assert typical_set(u2, 2, 0.0).members() == [(0, 1), (1, 0)]
    assert typical_set(u2, 2, 0.5).members() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    p = Distribution((Fraction(2, 3), Fraction(1, 3)))
    members = typical_set(p, 3, 0.01).members()
    assert members == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_typical_set_against_direct_enumeration():
    rng = SplitMix64(5)
    for _ in range(6):
        k = 2 + rng.randrange(2)
        n = 2 + rng.randrange(3)
        eps = rng.random() * 0.5
        p = random_distribution(rng, k)
        ts = typical_set(p, n, eps)
        direct = sorted(
            seq for seq in iproduct(range(k), repeat=n)
            if max(abs(seq.count(a) / n - float(p[a])) for a in range(k)) <= eps + 1e-12
        )
        assert ts.members() == direct
        assert ts.cardinality() == len(direct)
        for seq in direct:
            assert ts.contains(seq)


def test_typical_set_members_leave_no_cyclic_garbage():
    # the recursive sequence generator once reached itself through its
    # closure: 42 cyclic objects waited for the next collection here
    gc.collect()
    gc.disable()
    try:
        assert len(typical_set(Distribution.uniform(3), 6, 0.2).members()) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_typical_mass_monotone_in_eps():
    rng = SplitMix64(7)
    p = random_distribution(rng, 3)
    masses = [typical_set(p, 4, eps).probability()
              for eps in (0.0, 0.1, 0.25, 0.5, 1.0)]
    assert all(masses[i] <= masses[i + 1] + 1e-12 for i in range(len(masses) - 1))
    assert masses[-1] == pytest.approx(1.0)


def test_sequence_indexing_roundtrip():
    for idx in range(125):
        seq = index_sequence(idx, 5, 3)
        assert sequence_index(seq, 5) == idx


def test_typical_induced_subgraph_small():
    # whole power graph at eps >= 1
    pg = uniform_pgraph(cycle(5))
    sub, members = typical_induced_subgraph(pg, 2, 1.0)
    assert sub.n == 25
    # K2 with eps=0: complete on the two balanced words
    k2 = uniform_pgraph(complete(2))
    sub, members = typical_induced_subgraph(k2, 2, 0.0)
    assert sub.n == 2 and sub.graph.edge_count() == 1
    assert members == [(0, 1), (1, 0)]
    # empty typical set rejected
    with pytest.raises(ValueError, match="empty"):
        typical_induced_subgraph(
            ProbabilisticGraph(complete(2), Distribution((0.5, 0.5))), 3, 0.0)


def test_typical_induced_subgraph_pentagon_permutations():
    pg = uniform_pgraph(cycle(5))
    sub, members = typical_induced_subgraph(pg, 5, 0.0)
    assert sub.n == 120  # all arrangements with each symbol once
    assert all(sorted(seq) == [0, 1, 2, 3, 4] for seq in members)
    assert float(sum(sub.dist.weights)) == pytest.approx(1.0)


def test_type_split_examples():
    f = Fraction
    res = type_split((0, 1, 0, 1), 0.5, Distribution((f(1), f(0))),
                     Distribution((f(0), f(1))))
    assert res.exact and res.sub1 == (0, 0) and res.sub2 == (1, 1)
    res = type_split((1, 0, 1), 1, Distribution((f(1, 3), f(2, 3))),
                     Distribution((f(1, 3), f(2, 3))))
    assert res.sub1 == (1, 0, 1) and res.sub2 == ()
    res = type_split((0, 1) * 4, 0.5, Distribution((f(3, 4), f(1, 4))),
                     Distribution((f(1, 4), f(3, 4))))
    assert res.exact
    assert res.type1.counts == (3, 1) and res.type2.counts == (1, 3)


def test_type_split_type_mismatch_rejected():
    f = Fraction
    with pytest.raises(ValueError, match="does not match"):
        type_split((0, 0, 0, 0), 0.5, Distribution((f(1), f(0))),
                   Distribution((f(0), f(1))))


def test_type_split_approximate_mode():
    f = Fraction
    # quotas 0.5*5*(3/5,2/5) = (1.5, 1.0): not integral -> randomized split
    seq = (0, 1, 0, 1, 0)
    res = type_split(seq, 0.5, Distribution((f(3, 5), f(2, 5))),
                     Distribution((f(3, 5), f(2, 5))), seed=11)
    assert not res.exact
    assert tuple(sorted(res.sub1 + res.sub2)) == tuple(sorted(seq))
    # deterministic under the same seed
    res2 = type_split(seq, 0.5, Distribution((f(3, 5), f(2, 5))),
                      Distribution((f(3, 5), f(2, 5))), seed=11)
    assert res.mask == res2.mask


def test_type_split_exact_whenever_integral():
    rng = SplitMix64(13)
    f = Fraction
    for _ in range(20):
        k = 2 + rng.randrange(2)
        # draw integral quota counts directly
        n1 = 2 + rng.randrange(3)
        n2 = 2 + rng.randrange(3)
        c1 = [rng.randrange(3) for _ in range(k)]
        c2 = [rng.randrange(3) for _ in range(k)]
        if sum(c1) == 0:
            c1[0] = 1
        if sum(c2) == 0:
            c2[0] = 1
        n1, n2 = sum(c1), sum(c2)
        p1 = Distribution(tuple(f(c, n1) for c in c1))
        p2 = Distribution(tuple(f(c, n2) for c in c2))
        beta = f(n1, n1 + n2)
        seq = []
        for a in range(k):
            seq.extend([a] * (c1[a] + c2[a]))
        res = type_split(tuple(seq), beta, p1, p2)
        assert res.exact
        assert res.type1.as_distribution().weights == p1.weights
        assert res.type2.as_distribution().weights == p2.weights


def test_union_power_block_structure():
    # the typical slice of a union power is exactly the disjoint union of
    # per-sequence product blocks: check the index algebra on a tiny case
    from zeroerr.graphs import and_power, complete, disjoint_union, empty
    from zeroerr.typicality import index_sequence

    f = Fraction
    parts = [uniform_pgraph(complete(2)), uniform_pgraph(empty(3))]
    pa = Distribution((f(1, 2), f(1, 2)))
    union, layout = disjoint_union(parts, pa)
    n, eps = 2, 0.0
    power = and_power(union, n)
    ts = typical_set(pa, n, eps)
    # vertices whose component sequence is typical
    slice_vertices = set()
    for v in range(power.n):
        seq = index_sequence(v, union.n, n)
        a_seq = tuple(layout.component_of(x)[0] for x in seq)
        if ts.contains(a_seq):
            slice_vertices.add(v)
    # expected: for each typical a^n, one block of size prod |X_{a_t}|
    expected = set()
    block_total = 0
    for a_seq in ts.members():
        block_total += 1
        for local in iproduct(*(range(parts[a].n) for a in a_seq)):
            seq = tuple(layout.global_index(a, x) for a, x in zip(a_seq, local))
            expected.add(sequence_index(seq, union.n))
    assert block_total == 2  # (0,1) and (1,0) at eps=0
    assert slice_vertices == expected
    assert len(slice_vertices) == 2 * 2 * 3


def test_eta_two_k2():
    f = Fraction
    k2u = uniform_pgraph(complete(2))
    iv, prod, k = eta_bounds([k2u, k2u], Distribution((f(1, 2), f(1, 2))))
    assert k == 2
    assert prod.n == 4  # K2 ^ K2 = K4
    assert iv.lo == pytest.approx(1.0, abs=1e-9)
    assert iv.hi == pytest.approx(1.0, abs=1e-9)


def test_eta_single_part_is_hbar():
    from zeroerr.bounds import hbar_bounds

    f = Fraction
    pg = ProbabilisticGraph(complete(3),
                            Distribution((f(1, 2), f(1, 4), f(1, 4))))
    iv, prod, k = eta_bounds([pg], Distribution((f(1),)))
    direct = hbar_bounds(pg)
    assert k == 1
    assert iv.lo == pytest.approx(direct.lo, abs=1e-12)
    assert iv.hi == pytest.approx(direct.hi, abs=1e-12)


def test_eta_requires_rational():
    with pytest.raises(ValueError, match="rational"):
        eta_bounds([uniform_pgraph(complete(2))], Distribution((0.5 + 1e-13,
                                                                0.5 - 1e-13)))


def test_eta_budget():
    f = Fraction
    c5 = uniform_pgraph(cycle(5))
    with Budget(vertices=20), pytest.raises(BudgetExceeded):
        eta_bounds([c5, c5], Distribution((f(1, 2), f(1, 2))))
