"""Koerner entropy, capacity optimization, theta, finite-field rank."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from zeroerr.graphs import (
    Distribution,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    and_product_graph,
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
from zeroerr import numopt
from zeroerr.combin import alpha_exact, mis_masks
from zeroerr.numopt import (
    FiniteFieldMatrix,
    adjacency_plus_identity,
    capacity_achieving_distribution,
    gf_rank,
    haemers_bound,
    korner_entropy,
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
        tol = 1e-11
        sol = korner_entropy(pg, tol)
        # objective non-increasing over the fixed-point prefix: one-step
        # kernel runs chained from the uniform r retrace the solver's first
        # steps, as each recomputes the coverage from r
        member = numopt._membership(sol.sets, g.n)
        p = np.array([float(x) for x in pg.dist.weights])
        r = np.full(len(sol.sets), 1.0 / len(sol.sets))
        js = [numopt._korner_iterate(member, p, r, tol, 0)[2]]
        for _ in range(min(sol.iterations, numopt.KORNER_NEWTON_AFTER)):
            r, _, j, _, _ = numopt._korner_iterate(member, p, r, tol, 1)
            js.append(j)
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        if sol.iterations <= numopt.KORNER_NEWTON_AFTER:
            assert np.array_equal(r, sol.r) and max(js[-1], 0.0) == sol.value
        else:  # the Newton finish: certified, and below the prefix's last J
            _assert_certified(pg, sol, tol)
            assert sol.value <= js[-1]
        assert [f.name for f in dataclasses.fields(sol)] == [
            "value", "sets", "r", "cov", "iterations", "converged"]
        # matches the grid oracle loosely
        assert sol.value <= korner_grid_oracle(pg, 32) + 1e-9


def _assert_certified(pg, sol, tol):
    """A solve ended by the Newton finish: r on the simplex, c and J made
    from that r, and the gap of `_korner_gap` at most tol."""
    member = numopt._membership(sol.sets, pg.n)
    p = np.array([float(x) for x in pg.dist.weights])
    support = p > 0
    assert sol.converged and sol.r.min() >= 0 and abs(sol.r.sum() - 1) <= 1e-12
    assert np.array_equal(sol.cov, member.T.dot(sol.r))
    assert sol.value == max(-np.add.reduce(p[support] * np.log2(sol.cov[support])), 0.0)
    assert numopt._korner_gap(member, p, sol.cov) <= tol


@pytest.mark.parametrize("k", [1, 2, 3])
def test_korner_p4_copies_reach_the_closed_form(k):
    # P4 is self-complementary and perfect, so H_kappa(P4, U) + H_kappa(P4, U)
    # = H(U) = 2 (Csiszar, Koerner, Lovasz, Marton and Simonyi 1990), and
    # Koerner entropy is linear over the k disjoint copies that P4 x N_k is
    sol = korner_entropy(uniform_pgraph(and_product_graph(path(4), empty(k))), 1e-10)
    assert abs(sol.value - 1.0) <= 1e-10
    assert sol.iterations <= numopt.KORNER_NEWTON_AFTER + 10


def test_korner_pair_width_is_certified_on_perfect_graphs():
    # on a perfect graph H_kappa(G, P) + H_kappa(complement, P) = H(P), and
    # each J lies within its gap above H_kappa.  Every solve here that runs
    # past the fixed-point prefix is ended by the Newton finish, certified
    # within tol; a finish that failed and handed back to the kernel would
    # fail this test too
    rng = SplitMix64(53)
    finishes = 0
    for trial in range(200):
        g = sample_perfect_graph(rng, 3, 12)
        p = _with_zero_weights(rng, g.n) if trial % 2 else random_distribution(rng, g.n)
        tol = (1e-10, 1e-12, 1e-8)[trial % 3]
        width, slack = -p.entropy(), 0.0
        for h in (g, complement(g)):
            pg = ProbabilisticGraph(h, p)
            sol = korner_entropy(pg, tol)
            assert sol.r.min() >= 0
            if sol.iterations > numopt.KORNER_NEWTON_AFTER:
                _assert_certified(pg, sol, tol)
                finishes += 1
            width += sol.value
            slack += numopt._korner_gap(numopt._membership(sol.sets, h.n),
                                        np.array([float(x) for x in p.weights]), sol.cov)
        assert -1e-12 <= width <= slack + 1e-12
    assert finishes >= 50


def test_korner_newton_from_the_uniform_r_is_certified():
    # far from the optimum the quadratic model overshoots, and some of these
    # finishes halve a step; each accepted r stays on the simplex and lowers J
    rng = SplitMix64(5)
    for _ in range(60):
        g = sample_perfect_graph(rng, 3, 12)
        p = np.array([float(x) for x in random_distribution(rng, g.n).weights])
        member = numopt._membership(mis_masks(g), g.n)
        r0 = np.full(len(member), 1.0 / len(member))
        r, cov, value, _ = numopt._korner_newton(member, p, r0, 1e-10)
        assert r.min() >= 0 and abs(r.sum() - 1) <= 1e-12
        assert np.array_equal(cov, member.T.dot(r))
        assert value == -np.add.reduce(p * np.log2(cov))
        assert numopt._korner_gap(member, p, cov) <= 1e-10
        assert value <= -np.add.reduce(p * np.log2(member.T.dot(r0)))


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


def _kernel_matches_reference(pg, r0, tol, max_iter):
    member = numopt._membership(mis_masks(pg.graph), pg.n)
    p = np.array([float(x) for x in pg.dist.weights])
    r, _, j, iterations, converged = numopt._korner_iterate(member, p, r0, tol, max_iter)
    value, r_ref, iterations_ref, converged_ref = korner_reference(pg, tol, max_iter, r0)
    assert (max(j, 0.0), iterations, converged) == (value, iterations_ref, converged_ref)
    assert np.array_equal(r, r_ref)


def test_korner_kernel_matches_reference_loop_exactly():
    # half of the instances give some vertices weight zero
    rng = SplitMix64(41)
    for trial in range(60):
        g = sample_perfect_graph(rng, 3, 12)
        p = _with_zero_weights(rng, g.n) if trial % 2 else random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        for tol in (1e-10, 1e-6):
            sol = korner_entropy(pg, tol)
            value, r, iterations, converged = korner_reference(pg, tol)
            if iterations > numopt.KORNER_NEWTON_AFTER:  # the Newton finish
                _assert_certified(pg, sol, tol)
                assert sol.value <= value + tol
                continue
            assert sol.value == value
            assert sol.iterations == iterations
            assert sol.converged == converged
            assert np.array_equal(sol.r, r)
        # a cap of 7 steps, from the uniform r that korner_entropy starts at
        m = len(mis_masks(g))
        _kernel_matches_reference(pg, np.full(m, 1.0 / m), 1e-12, 7)
    # the capacity evaluator's warm starts: an earlier solution's r with its
    # entries raised to at least 1e-100; caps of 0, 1, 2 and 7 steps stop
    # the look-ahead inside its first blocks
    rng = SplitMix64(43)
    for trial in range(40):
        g = sample_perfect_graph(rng, 3, 12)
        first = ProbabilisticGraph(g, _with_zero_weights(rng, g.n))
        r0 = np.maximum(korner_entropy(first, 1e-10).r, 1e-100)
        p = _with_zero_weights(rng, g.n) if trial % 2 else random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        for tol, max_iter in ((1e-10, 100_000), (1e-12, 0), (1e-12, 1), (1e-12, 2),
                              (1e-12, 7), (0.0, 7)):
            _kernel_matches_reference(pg, r0, tol, max_iter)
    # 12 disjoint copies of K2 have 4,096 maximal independent sets, so a
    # look-ahead block holds one step and the kernel keeps no history
    g = graph_from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert len(mis_masks(g)) + g.n > numopt.KORNER_HISTORY_FLOATS
    pg = ProbabilisticGraph(g, _with_zero_weights(rng, g.n))
    for tol, max_iter in ((1e-10, 100_000), (1e-12, 0), (1e-12, 2), (1e-12, 7)):
        _kernel_matches_reference(pg, np.full(4096, 1.0 / 4096), tol, max_iter)


def test_korner_failed_newton_finish_resumes_the_kernel_bit_for_bit(monkeypatch):
    # a finish that does not reach its gap hands back to the kernel, which
    # goes on from the step it stopped at: the reference loop's bits
    monkeypatch.setattr(numopt, "_korner_newton", lambda member, p, r, tol: None)
    rng = SplitMix64(41)
    resumed = 0
    for trial in range(30):
        g = sample_perfect_graph(rng, 3, 12)
        p = _with_zero_weights(rng, g.n) if trial % 2 else random_distribution(rng, g.n)
        pg = ProbabilisticGraph(g, p)
        sol = korner_entropy(pg, 1e-10)
        value, r, iterations, converged = korner_reference(pg, 1e-10)
        assert (sol.value, sol.iterations, sol.converged) == (value, iterations, converged)
        assert np.array_equal(sol.r, r)
        resumed += iterations > numopt.KORNER_NEWTON_AFTER
    assert resumed >= 5


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
    # refuses non-perfect graphs
    with pytest.raises(ZeroErrError, match="not perfect"):
        relative_capacity_perfect(uniform_pgraph(cycle(5)))


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


C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
# P4 x N2's cold Koerner solve ends in the Newton finish, exact at the
# uniform P, which is then optimal at once: C = 3 - 1 = log2 alpha = 2
P4_N2 = and_product_graph(path(4), empty(2))
ASCENTS = [
    # (graph, tol, max_iter, dist, value, iterations, converged) as computed
    # by the loop that tests convergence after every Koerner step; the
    # P4 x N2 rows are those of its Newton finish
    (cycle(6), 1e-6, 4000, (1 / 6,) * 6, 1.5849625005721772, 1, True),
    (P4_N2, 1e-9, 200, (1 / 8,) * 8, 2.0, 1, True),
    (P4_N2, 1e-12, 60, (1 / 8,) * 8, 2.0, 1, True),
    (and_product_graph(C4, path(3)), 1e-4, 300,
     (0.12498749531218331, 2.5009375633370702e-05, 0.12498749531218331) * 4,
     1.999899962484213, 170, True),
]


@pytest.mark.parametrize("g, tol, max_iter, dist, value, iterations, converged", ASCENTS)
def test_capacity_ascent_is_pinned_bit_for_bit(g, tol, max_iter, dist, value, iterations,
                                               converged):
    opt = capacity_achieving_distribution(g, tol=tol, max_iter=max_iter)
    assert opt.dist.weights == dist and opt.value == value
    assert (opt.iterations, opt.converged) == (iterations, converged)


def test_capacity_evaluator_refuses_invalid_weights():
    evaluate = perfect_capacity_evaluator(path(3))
    for weights in ((0.5, 0.5), (0.5, 0.25, 0.25, 0.0), (1.5, -0.25, -0.25),
                    (0.5, 0.25, 0.2), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError):
            evaluate(weights)
    value, grad = evaluate((0.5, 0.0, 0.5))  # a refused call leaves no state
    assert value == 1.0 and len(grad) == 3


def test_capacity_ascent_refuses_graphs_that_are_not_perfect():
    # C(G,P) = H(P) - H_kappa(G,P) holds on perfect graphs only
    for call in (lambda: capacity_achieving_distribution(cycle(5)),
                 lambda: perfect_capacity_evaluator(cycle(5))):
        with pytest.raises(ZeroErrError, match="not perfect"):
            call()


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


PRISM = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                             (0, 3), (1, 4), (2, 5)])


def test_theta_values():
    assert theta_transitive(cycle(5)) == pytest.approx(math.sqrt(5), abs=1e-6)
    s = catalog_get("schlafli")
    assert theta_transitive(s) == pytest.approx(3.0, abs=1e-6)
    assert theta_transitive(complement(s)) == pytest.approx(9.0, abs=1e-6)
    assert theta_transitive(complete(4)) == pytest.approx(1.0, abs=1e-9)
    # the bits certificates and goldens carry: LAPACK's lambda_min stepped
    # down by the allowance n d 2^-52, which raises each value by at most
    # about 1e-13 (C7 lands on the same float as before)
    assert [theta_transitive(g) for g in (cycle(5), cycle(7), s, complement(s))] == [
        2.236067977499791, 3.3176672073940985, 3.000000000000133, 9.000000000000075]
    with pytest.raises(ZeroErrError, match="regular"):
        theta_transitive(path(3))
    # triangular prism: 3-regular, vertex- but not edge-transitive, eigenvalues
    # 3, 1, 0, 0, -2, -2; the bound 6 * 2 / (3 + 2) lies above theta = alpha = 2
    assert theta_transitive(PRISM) == pytest.approx(12 / 5, abs=1e-9)
    assert theta_transitive(empty(40)) == 40.0
    with pytest.raises(Undecided):
        theta_transitive(cycle(numopt.THETA_VERTEX_LIMIT + 1))


def _circulant(n, jumps):
    return graph_from_edges(n, {tuple(sorted((i, (i + k) % n))) for i in range(n)
                                for k in jumps})


def _union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(base + i, base + j) for i, j in g.edges()]
        base += g.n
    return graph_from_edges(base, edges)


PETERSEN = graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _regular_graphs():
    """(name, graph, theta or None): regular inputs of the eigenvalue bound,
    with theta's closed form on the edge-transitive ones, in mpmath at 50
    digits."""
    out = []
    with mpmath.workdps(50):
        for n in range(3, numopt.THETA_VERTEX_LIMIT + 1):
            c = mpmath.cos(mpmath.pi / n)
            closed = mpmath.mpf(n) / 2 if n % 2 == 0 else n * c / (1 + c)
            out.append((f"C{n}", cycle(n), closed))
    rng = SplitMix64(44)
    for _ in range(6):
        n = 5 + rng.randrange(10)
        k = 2 + rng.randrange(n // 2 - 1)
        out.append((f"C{n}(1,{k})", _circulant(n, (1, k)), None))
    out += [(f"K{n}", complete(n), mpmath.mpf(1)) for n in range(2, 10)]
    s = catalog_get("schlafli")
    out += [
        ("C5+C6", _union(cycle(5), cycle(6)), None),
        ("K4+K33", _union(complete(4), complement(_union(complete(3), complete(3)))), None),
        ("prism", PRISM, None),
        ("C6xC5", and_product_graph(cycle(6), cycle(5)), None),
        ("petersen", PETERSEN, mpmath.mpf(4)),
        ("schlafli", s, mpmath.mpf(3)),
        ("schlafli-bar", complement(s), mpmath.mpf(9)),
    ]
    return out


REGULAR_GRAPHS = _regular_graphs()


@pytest.mark.parametrize("name, g, closed", REGULAR_GRAPHS,
                         ids=[name for name, _, _ in REGULAR_GRAPHS])
def test_theta_bound_is_a_feasible_dual_certificate(name, g, closed):
    # Lovasz 1979, Thm 9: M = J - tA, t = n / (d - lambda_min), is 1 on the
    # diagonal and on non-edges, so theta <= lambda_max(M) = the bound
    assert g.is_regular() and g.n <= numopt.THETA_VERTEX_LIMIT
    value = theta_transitive(g)
    adj = np.array([[float(g.has_edge(i, j)) for j in range(g.n)] for i in range(g.n)])
    d = g.degree(0)
    t = g.n / (d - np.linalg.eigvalsh(adj)[0])
    m = np.ones((g.n, g.n)) - t * adj
    assert all(m[i, j] == 1.0 for i in range(g.n) for j in range(g.n)
               if i == j or not g.has_edge(i, j))
    assert np.linalg.eigvalsh(m)[-1] <= value + 1e-9
    assert value >= alpha_exact(g).size - 1e-9
    if closed is not None:
        # the allowance keeps the float bound on or above the exact theta
        assert value >= closed
        assert value == pytest.approx(float(closed), abs=1e-9)


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
    with pytest.raises(ValueError):
        FiniteFieldMatrix(4, ((1,),))  # not prime
    with pytest.raises(ValueError):
        FiniteFieldMatrix(3, ((3,),))  # out of field


def test_haemers_never_below_log_alpha():
    rng = SplitMix64(29)
    for _ in range(10):
        g = random_graph(rng, 4 + rng.randrange(5), 0.5)
        a = alpha_exact(g).size
        for p in (2, 3):
            assert haemers_bound(g, adjacency_plus_identity(g, p)) >= \
                math.log2(a) - 1e-9
