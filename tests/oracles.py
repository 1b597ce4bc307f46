"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the solver code paths they are checking: subset
enumeration for alpha, exhaustive assignment for chi, partition enumeration
for the chromatic entropy, and a grid scan for the Koerner objective.
"""

import itertools
import math

import numpy as np

from zeroerr.graphs import bits_of, induced_subgraph_graph
from zeroerr.combin import (
    Coloring,
    HChiResult,
    _entropy_of_classes,
    is_independent,
    maximal_independent_sets,
    validate_coloring,
)


def alpha_brute(g):
    """Independence number by exhaustive subset search (n <= 16)."""
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and is_independent(g, mask):
            best = mask.bit_count()
    return best


def chi_brute(g):
    """Chromatic number by exhaustive assignment (tiny n only)."""
    for k in range(1, g.n + 1):
        for colors in itertools.product(range(k), repeat=g.n):
            if all(colors[i] != colors[j] for i, j in g.edges()):
                return k
    return 0


def hchi_brute(pg):
    """Minimum coloring entropy by enumerating partitions into independent
    sets (recursive class assignment)."""
    g = pg.graph
    w = [float(x) for x in pg.dist.weights]
    best = [math.inf]

    def rec(v, classes, masses):
        if v == g.n:
            h = -sum(m * math.log2(m) for m in masses if m > 0)
            best[0] = min(best[0], h)
            return
        for k in range(len(classes)):
            if not (classes[k] & g.rows[v]):
                classes[k] |= 1 << v
                masses[k] += w[v]
                rec(v + 1, classes, masses)
                classes[k] &= ~(1 << v)
                masses[k] -= w[v]
        classes.append(1 << v)
        masses.append(w[v])
        rec(v + 1, classes, masses)
        classes.pop()
        masses.pop()

    rec(0, [], [])
    return best[0]


def min_entropy_heuristic_reference(pg, limit=1_000_000):
    """The greedy chromatic-entropy peel as it stood before the heuristic
    enumerated the maximal independent sets once and peeled by restriction,
    kept verbatim as the reference it must reproduce bit for bit: at every
    peel, Bron-Kerbosch on the remaining graph and the heaviest set by the
    ascending-scan record rule."""
    g, n = pg.graph, pg.n
    w = [float(x) for x in pg.dist.weights]
    remaining = (1 << n) - 1
    color_of = [0] * n
    masses = []
    color = 0
    while remaining:
        sub_keep = list(bits_of(remaining))
        sub = induced_subgraph_graph(g, sub_keep)
        cand = maximal_independent_sets(sub, limit)
        best_mask, best_mass = 0, -1.0
        for wit in cand:
            m = sum(w[sub_keep[v]] for v in bits_of(wit.vertices))
            if m > best_mass + 1e-15 or (abs(m - best_mass) <= 1e-15 and wit.vertices < best_mask):
                best_mask, best_mass = wit.vertices, m
        chosen = 0
        for v in bits_of(best_mask):
            chosen |= 1 << sub_keep[v]
        for v in bits_of(chosen):
            color_of[v] = color
        masses.append(sum(w[v] for v in bits_of(chosen)))
        remaining &= ~chosen
        color += 1
    coloring = Coloring(tuple(color_of), color)
    assert validate_coloring(g, coloring)
    return HChiResult(_entropy_of_classes(masses), coloring, False)


def korner_grid_oracle(pg, resolution=64):
    """Brute-force grid minimization of the Koerner objective.

    For a fixed W-marginal r the best conditional is the restriction of r to
    the sets containing x, so min I(W;X) = min_r -sum_x P(x) log2 c_r(x);
    the grid runs over all compositions of `resolution` among the maximal
    independent sets.
    """
    sets = [w.vertices for w in maximal_independent_sets(pg.graph)]
    m, n = len(sets), pg.n
    member = np.zeros((m, n))
    for k, mask in enumerate(sets):
        for v in bits_of(mask):
            member[k, v] = 1.0
    p = np.array([float(x) for x in pg.dist.weights])
    combos = []

    def rec(prefix, left):
        if len(prefix) == m - 1:
            combos.append(prefix + (left,))
            return
        for v in range(left + 1):
            rec(prefix + (v,), left - v)

    rec((), resolution)
    grid = np.array(combos, dtype=float) / resolution
    cov = grid @ member
    good = (cov[:, p > 0] > 0).all(axis=1)
    with np.errstate(divide="ignore"):
        vals = -(np.where(cov > 0, np.log2(np.maximum(cov, 1e-300)), 0.0) * p).sum(axis=1)
    vals = np.where(good, vals, np.inf)
    return float(vals.min())


def korner_reference(pg, tol=1e-9, max_iter=100_000):
    """The Koerner fixed-point loop as it stood before the solver moved to a
    shared kernel, kept verbatim as the reference whose arithmetic the
    kernel must reproduce bit for bit.  Returns (value, r, iterations,
    converged)."""
    g = pg.graph
    sets = [w.vertices for w in maximal_independent_sets(g)]
    m, n = len(sets), g.n
    member = np.zeros((m, n))
    for k, mask in enumerate(sets):
        for v in bits_of(mask):
            member[k, v] = 1.0
    p = np.array([float(x) for x in pg.dist.weights])
    support = p > 0
    r = np.full(m, 1.0 / m)

    def objective(cov):
        return float(-(p[support] * np.log2(cov[support])).sum())

    cov = member.T @ r
    prev = objective(cov)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ratio = np.where(cov > 0, p / np.maximum(cov, 1e-300), 0.0)
        r = r * (member @ ratio)
        total = r.sum()
        if total <= 0:
            break
        r /= total
        cov = member.T @ r
        cur = objective(cov)
        if prev - cur < tol:
            converged = True
            prev = cur
            break
        prev = cur
    return max(prev, 0.0), r, iterations, converged


def sum_weights_grid(values, step=1000):
    """Grid maximum of H(P_A) + sum P_A(a) C0a at resolution 1/step,
    vectorized for 2- and 3-element families."""
    vals = np.array(values, dtype=float)
    if len(vals) == 2:
        s = np.arange(step + 1) / step
        ws = np.stack([s, 1.0 - s], axis=1)
    elif len(vals) == 3:
        i, j = np.meshgrid(np.arange(step + 1), np.arange(step + 1),
                           indexing="ij")
        keep = (i + j) <= step
        ws = np.stack([i[keep], j[keep], step - i[keep] - j[keep]],
                      axis=1) / step
    else:
        raise ValueError("grid oracle supports 2 or 3 channels")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(ws > 0, -ws * np.log2(np.where(ws > 0, ws, 1.0)), 0.0).sum(axis=1)
    return float((h + ws @ vals).max())
