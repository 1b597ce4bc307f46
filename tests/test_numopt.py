"""Koerner entropy, capacity optimization, theta, finite-field rank."""

import math

import numpy as np
import pytest

from zeroerr.graphs import (
    Distribution,
    ProbabilisticGraph,
    ZeroErrError,
    catalog_get,
    complement,
    complete,
    cycle,
    disjoint_union,
    empty,
    graph_from_edges,
    path,
    uniform_pgraph,
)
from zeroerr.combin import alpha_exact
from zeroerr.numopt import (
    FiniteFieldMatrix,
    adjacency_plus_identity,
    capacity_achieving_distribution,
    gf_rank,
    haemers_bound,
    jacobi_eigenvalues,
    korner_entropy,
    matrix_from_json_dict,
    perfect_capacity_evaluator,
    relative_capacity_perfect,
    sum_channel_weights,
    theta_transitive,
)
from zeroerr.rng import SplitMix64
from zeroerr.verifier import random_distribution, random_graph, sample_perfect_graph


from oracles import korner_grid_oracle, korner_reference


def test_korner_complete_and_empty():
    rng = SplitMix64(3)
    for _ in range(10):
        n = 2 + rng.randrange(5)
        p = random_distribution(rng, n)
        sol = korner_entropy(ProbabilisticGraph(complete(n), p))
        assert sol.converged
        assert sol.value == pytest.approx(p.entropy(), abs=1e-9)
        sol = korner_entropy(ProbabilisticGraph(empty(n), p))
        assert abs(sol.value) <= 1e-12


def test_korner_pentagon_value_and_oracle():
    pg = uniform_pgraph(cycle(5))
    sol = korner_entropy(pg, tol=1e-12)
    assert sol.value == pytest.approx(math.log2(2.5), abs=1e-9)
    assert sol.value >= math.log2(2.5) - 1e-9  # H(U) - log alpha lower bound
    oracle = korner_grid_oracle(pg, 64)
    assert abs(sol.value - oracle) <= 2e-3


def test_korner_solution_invariants():
    rng = SplitMix64(7)
    for _ in range(5):
        g = random_graph(rng, 4 + rng.randrange(4), 0.4)
        pg = ProbabilisticGraph(g, random_distribution(rng, g.n))
        sol = korner_entropy(pg, tol=1e-11)
        # objective non-increasing, iteration by iteration
        assert all(sol.history[i + 1] <= sol.history[i] + 1e-12
                   for i in range(len(sol.history) - 1))
        # per-x conditionals are simplices supported on sets containing x
        col_sums = sol.q.sum(axis=0)
        assert np.all(np.abs(col_sums - 1.0) < 1e-9)
        for k, mask in enumerate(sol.sets):
            for x in range(g.n):
                if not (mask >> x) & 1:
                    assert sol.q[k, x] == 0.0
        # matches the grid oracle loosely
        assert sol.value <= korner_grid_oracle(pg, 32) + 1e-9


def test_korner_union_splitting():
    # Koerner entropy is linear across disjoint unions
    rng = SplitMix64(9)
    from fractions import Fraction

    for _ in range(5):
        parts = []
        for _ in range(2):
            g = sample_perfect_graph(rng, 3, 6)
            parts.append(ProbabilisticGraph(g, random_distribution(rng, g.n)))
        pa = Distribution((Fraction(1, 3), Fraction(2, 3)))
        union, _ = disjoint_union(parts, pa)
        tol = 1e-10
        lhs = korner_entropy(union, tol).value
        rhs = sum(float(pa[a]) * korner_entropy(parts[a], tol).value
                  for a in range(2))
        assert lhs == pytest.approx(rhs, abs=2e-8)


def _with_zero_weights(rng, n):
    """Random distribution on n >= 2 vertices with one to n // 2 of them set
    to weight zero."""
    w = [float(x) for x in random_distribution(rng, n).weights]
    for _ in range(1 + rng.randrange(n // 2)):
        w[rng.randrange(n)] = 0.0
    total = sum(w)
    return Distribution(tuple(x / total for x in w))


def test_korner_kernel_matches_reference_loop_exactly():
    # half of the instances give some vertices weight zero
    rng = SplitMix64(41)
    for trial in range(60):
        g = sample_perfect_graph(rng, 3, 12)
        p = _with_zero_weights(rng, g.n) if trial % 2 else random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        for tol, max_iter in ((1e-10, 100_000), (1e-6, 100_000), (1e-12, 7)):
            sol = korner_entropy(pg, tol, max_iter)
            value, r, iterations, converged = korner_reference(pg, tol, max_iter)
            assert sol.value == value
            assert sol.iterations == iterations
            assert sol.converged == converged
            assert np.array_equal(sol.r, r)


def _warm_and_fresh(g, first, second):
    evaluate = perfect_capacity_evaluator(g)
    evaluate(first)
    return evaluate(second), perfect_capacity_evaluator(g)(second)


def test_capacity_evaluator_warm_start_covers_every_vertex():
    # at (1/2, 0, 1/2) the iteration drives r({1}) to exactly 0; a warm start
    # from that r would leave vertex 1 uncovered at the uniform P
    (value, grad), (fresh, fresh_grad) = _warm_and_fresh(
        path(3), (0.5, 0.0, 0.5), (1 / 3, 1 / 3, 1 / 3))
    assert math.isfinite(value) and np.all(np.isfinite(grad))
    assert abs(value - fresh) <= 1e-10
    assert np.allclose(grad, fresh_grad, atol=1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-6])
def test_capacity_evaluator_warm_start_leaves_a_stalled_face(eps):
    # P5 has maximal independent sets {0,2,4}, {0,3}, {1,3}, {1,4}.  The
    # first P drives r({1,4}) to 0 or to about 1e-77 while {1,3} and {0,2,4}
    # still cover vertices 1 and 4; a warm start from there stops at once,
    # about 0.13 bits short of C(G,P), unless it is redone from uniform r
    first = (0.4, eps, 0.3, 0.3 - 2 * eps, eps)
    (value, grad), (fresh, fresh_grad) = _warm_and_fresh(
        path(5), first, (0.1, 0.35, 0.1, 0.1, 0.35))
    assert abs(value - fresh) <= 1e-9
    assert np.allclose(grad, fresh_grad, atol=1e-6)


def test_capacity_never_exceeds_log_alpha():
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(47)
    tol = 1e-4
    for _ in range(12):
        g = sample_perfect_graph(rng, 2, 8)
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        log_alpha = math.log2(max(len(c) for c in nx.find_cliques(nx.complement(ng))))
        opt = capacity_achieving_distribution(g, tol=tol, max_iter=500)
        # C(G, P) <= C0(G) = log2 alpha(G) on perfect graphs, for every P
        assert opt.value <= log_alpha + 1e-9
        if opt.converged:
            assert opt.value >= log_alpha - tol
        again = capacity_achieving_distribution(g, tol=tol, max_iter=500)
        assert again == opt


def test_relative_capacity_perfect():
    rng = SplitMix64(13)
    # (K2, (p,1-p)) -> 0 for all p
    for _ in range(5):
        p = random_distribution(rng, 2)
        val = relative_capacity_perfect(ProbabilisticGraph(complete(2), p))
        assert abs(val.value) <= 1e-9
    # (N_n, P) -> H(P)
    p = random_distribution(rng, 5)
    val = relative_capacity_perfect(ProbabilisticGraph(empty(5), p))
    assert val.value == pytest.approx(p.entropy(), abs=1e-9)
    # (C6, uniform) -> log 3
    val = relative_capacity_perfect(uniform_pgraph(cycle(6)), tol=1e-11)
    assert val.value == pytest.approx(math.log2(3), abs=1e-6)
    # refuses non-perfect graphs unless asserted
    with pytest.raises(ZeroErrError, match="not perfect"):
        relative_capacity_perfect(uniform_pgraph(cycle(5)))
    assumed = relative_capacity_perfect(uniform_pgraph(cycle(5)), assume_perfect=True)
    assert assumed.perfect_assumed


def test_capacity_concavity_midpoint():
    rng = SplitMix64(17)
    checked = 0
    while checked < 100:
        g = sample_perfect_graph(rng, 3, 7)
        p1 = random_distribution(rng, g.n)
        p2 = random_distribution(rng, g.n)
        mid = Distribution(tuple((float(a) + float(b)) / 2
                                 for a, b in zip(p1.weights, p2.weights)))
        tol = 1e-10
        c1 = relative_capacity_perfect(ProbabilisticGraph(g, p1), tol=tol).value
        c2 = relative_capacity_perfect(ProbabilisticGraph(g, p2), tol=tol).value
        cm = relative_capacity_perfect(ProbabilisticGraph(g, mid), tol=tol).value
        assert cm >= 0.5 * c1 + 0.5 * c2 - 2e-8
        checked += 1


def test_capacity_achieving_examples():
    # empty graph: maximize entropy -> uniform, log n
    opt = capacity_achieving_distribution(empty(4), tol=1e-7)
    assert opt.value == pytest.approx(2.0, abs=1e-5)
    assert all(abs(float(w) - 0.25) < 1e-3 for w in opt.dist.weights)
    # complete graph: flat zero
    opt = capacity_achieving_distribution(complete(3), tol=1e-7)
    assert abs(opt.value) <= 1e-9
    # C6: uniform optimal, value log 3
    opt = capacity_achieving_distribution(cycle(6), tol=1e-6, max_iter=4000)
    assert opt.value == pytest.approx(math.log2(3), abs=1e-4)
    uniform_val = relative_capacity_perfect(uniform_pgraph(cycle(6)), tol=1e-11).value
    assert uniform_val <= opt.value + 1e-6


def test_sum_channel_weights_examples():
    dist, value = sum_channel_weights([1.0, 1.0])
    assert dist.weights == (0.5, 0.5) and value == pytest.approx(2.0)
    dist, value = sum_channel_weights([math.log2(3), math.log2(7)])
    assert dist[0] == pytest.approx(0.3) and dist[1] == pytest.approx(0.7)
    assert value == pytest.approx(math.log2(10))
    dist, value = sum_channel_weights([0.0, 0.0, 0.0])
    assert value == pytest.approx(math.log2(3))
    assert all(w == pytest.approx(1 / 3) for w in dist.weights)
    with pytest.raises(ValueError):
        sum_channel_weights([math.inf])


def test_jacobi_eigenvalues():
    rng = SplitMix64(19)
    for n in (3, 6, 10):
        a = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
        a = (a + a.T) / 2
        ours = jacobi_eigenvalues(a)
        ref = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(ours, ref, atol=1e-9)


def test_theta_values():
    assert theta_transitive(cycle(5)) == pytest.approx(math.sqrt(5), abs=1e-6)
    s = catalog_get("schlafli")
    assert theta_transitive(s) == pytest.approx(3.0, abs=1e-6)
    assert theta_transitive(complement(s)) == pytest.approx(9.0, abs=1e-6)
    assert theta_transitive(complete(4)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ZeroErrError, match="regular"):
        theta_transitive(path(3))
    # triangular prism: 3-regular and vertex- but not edge-transitive
    prism = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
    with pytest.raises(ZeroErrError, match="transitive"):
        theta_transitive(prism)
    # the assume flag bypasses verification
    assert theta_transitive(prism, assume_transitive=True) > 0


def test_gf_rank_oracle():
    # oracle: rank = n - log2 |nullspace| over GF(p), by enumeration
    def rank_brute(m):
        n = m.n
        count = 0
        for vec in range(p_pow(m.p, n)):
            digits = []
            v = vec
            for _ in range(n):
                v, d = divmod(v, m.p)
                digits.append(d)
            if all(sum(r * d for r, d in zip(row, digits)) % m.p == 0
                   for row in m.entries):
                count += 1
        rank = n
        while count > 1:
            count //= m.p
            rank -= 1
        return rank

    def p_pow(p, n):
        return p ** n

    rng = SplitMix64(23)
    for p in (2, 3, 5):
        for _ in range(5):
            n = 2 + rng.randrange(4)
            m = FiniteFieldMatrix(p, tuple(
                tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)))
            assert gf_rank(m) == rank_brute(m)


def test_haemers_examples():
    # K_n with all-ones over GF(2): rank 1, C0 <= 0 (tight)
    n = 4
    ones = FiniteFieldMatrix(2, tuple(tuple(1 for _ in range(n)) for _ in range(n)))
    assert haemers_bound(complete(n), ones) == pytest.approx(0.0)
    # N_n with identity: rank n (tight)
    eye = FiniteFieldMatrix(2, tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)))
    assert haemers_bound(empty(n), eye) == pytest.approx(2.0)
    # C5 with A+I over GF(2): rank 5, valid but loose against theta
    b = adjacency_plus_identity(cycle(5), 2)
    assert gf_rank(b) == 5
    assert haemers_bound(cycle(5), b) == pytest.approx(math.log2(5))
    # fit violations are refused
    bad = FiniteFieldMatrix(2, ((1, 1, 0, 0), (1, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ZeroErrError, match="does not fit"):
        haemers_bound(empty(4), bad)
    zero_diag = FiniteFieldMatrix(2, ((0,),))
    with pytest.raises(ZeroErrError, match="diagonal"):
        haemers_bound(empty(1), zero_diag)


def test_haemers_never_below_log_alpha():
    rng = SplitMix64(29)
    for _ in range(10):
        g = random_graph(rng, 4 + rng.randrange(5), 0.5)
        a = alpha_exact(g).size
        for p in (2, 3):
            assert haemers_bound(g, adjacency_plus_identity(g, p)) >= \
                math.log2(a) - 1e-9


def test_matrix_json():
    m = FiniteFieldMatrix(3, ((1, 2), (0, 1)))
    assert matrix_from_json_dict(m.to_json_dict()).entries == m.entries
    with pytest.raises(ValueError):
        FiniteFieldMatrix(4, ((1,),))  # not prime
    with pytest.raises(ValueError):
        FiniteFieldMatrix(3, ((3,),))  # out of field
