"""Isomorphism, automorphism and perfectness tests.

The isomorphism engine is partition-refinement backtracking with bitset
forward checking, bounded by the node limit of the `graphs.Budget` scope.
It is not a canonical-labeling engine; it is sound and complete within its
budget and raises Undecided beyond it, which is enough for the highly
symmetric catalog graphs this package cares about.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .graphs import (
    WEIGHT_TOL,
    Budget,
    Graph,
    ProbabilisticGraph,
    Undecided,
    bits_of,
    complement,
    popcount,
    solved_once,
)

ISO_VERTEX_LIMIT = 64
PERFECT_VERTEX_LIMIT = 14


def _weight_classes(weights1, weights2):
    """Map both weight vectors to shared class ids, or None if the multisets
    cannot match.  Exact when both sides are rational, tolerant otherwise."""
    exact = all(isinstance(w, (Fraction, int)) for w in list(weights1) + list(weights2))
    if exact:
        keys = sorted(set(weights1) | set(weights2))
        idx = {w: k for k, w in enumerate(keys)}
        c1 = [idx[w] for w in weights1]
        c2 = [idx[w] for w in weights2]
    else:
        vals = sorted({float(w) for w in weights1} | {float(w) for w in weights2})
        reps = []
        for v in vals:
            if not reps or v - reps[-1] > WEIGHT_TOL:
                reps.append(v)

        def cls(w):
            w = float(w)
            return min(range(len(reps)), key=lambda k: abs(reps[k] - w))

        c1 = [cls(w) for w in weights1]
        c2 = [cls(w) for w in weights2]
    if sorted(c1) != sorted(c2):
        return None
    return c1, c2


def _refine(g: Graph, colors):
    """Iterated refinement: new color = (color, sorted neighbor colors)."""
    colors = list(colors)
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in bits_of(g.rows[v]))))
            for v in range(g.n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[s] for s in sig]
        if new == colors:
            return colors
        colors = new


class _IsoSearch:
    """Bijection search g1 -> g2 respecting colors, with forward checking."""

    def __init__(self, g1: Graph, g2: Graph, colors1, colors2):
        self.g1, self.g2 = g1, g2
        self.colors1, self.colors2 = list(colors1), list(colors2)
        self.node_limit = Budget.current().nodes
        self.nodes = 0

    def run(self, forced=()):
        n = self.g1.n
        if self.g2.n != n:
            return None
        c1, c2 = list(self.colors1), list(self.colors2)
        tag = max(c1 + c2, default=0)
        for v1, v2 in forced:
            tag += 1
            c1[v1] = tag
            c2[v2] = tag
        c1 = _refine(self.g1, c1)
        c2 = _refine(self.g2, c2)
        if sorted(c1) != sorted(c2):
            return None
        class_masks = {}
        for w, c in enumerate(c2):
            class_masks[c] = class_masks.get(c, 0) | (1 << w)
        cand = [class_masks.get(c, 0) for c in c1]
        for v1, v2 in forced:
            if not (cand[v1] >> v2) & 1:
                return None
            cand[v1] = 1 << v2
        mapping = [-1] * n
        cand = self._propagate_all(cand, mapping)
        if cand is None:
            return None
        return self._extend(mapping, cand)

    def _propagate_all(self, cand, mapping):
        """Assign every vertex whose candidate set is a singleton."""
        changed = True
        while changed:
            changed = False
            for v in range(self.g1.n):
                if mapping[v] == -1 and popcount(cand[v]) == 1:
                    w = cand[v].bit_length() - 1
                    cand = self._assign(cand, mapping, v, w)
                    if cand is None:
                        return None
                    changed = True
        return cand

    def _assign(self, cand, mapping, v, w):
        mapping[v] = w
        row_v = self.g1.rows[v]
        row_w = self.g2.rows[w]
        new = list(cand)
        used_clear = ~(1 << w)
        for u in range(self.g1.n):
            if mapping[u] != -1 or u == v:
                continue
            m = new[u] & used_clear
            m &= row_w if (row_v >> u) & 1 else ~row_w
            if m == 0:
                mapping[v] = -1
                return None
            new[u] = m
        return new

    def _extend(self, mapping, cand):
        unmapped = [v for v in range(self.g1.n) if mapping[v] == -1]
        if not unmapped:
            return list(mapping)
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise Undecided("undecided (budget)")
        v = min(unmapped, key=lambda u: popcount(cand[u]))
        for w in bits_of(cand[v]):
            new = self._assign(list(cand), mapping, v, w)
            if new is None:
                continue
            saved = list(mapping)
            new = self._propagate_all(new, mapping)
            if new is not None:
                res = self._extend(mapping, new)
                if res is not None:
                    return res
            mapping[:] = saved
            mapping[v] = -1
        return None


def _degree_colors(g: Graph):
    degs = sorted({g.degree(v) for v in range(g.n)})
    idx = {d: i for i, d in enumerate(degs)}
    return [idx[g.degree(v)] for v in range(g.n)]


def is_isomorphic(pg1: ProbabilisticGraph, pg2: ProbabilisticGraph):
    """Weight-preserving isomorphism between probabilistic graphs.

    Returns the vertex bijection (image of each pg1 vertex) or None.
    Raises Undecided when the node budget runs out.
    """
    g1, g2 = pg1.graph, pg2.graph
    if g1.n != g2.n:
        return None
    if g1.n > ISO_VERTEX_LIMIT:
        raise Undecided("undecided (budget): graph too large for isomorphism search")
    if g1.edge_count() != g2.edge_count():
        return None
    if Counter(g1.degree(v) for v in range(g1.n)) != Counter(g2.degree(v) for v in range(g2.n)):
        return None
    wc = _weight_classes(list(pg1.dist.weights), list(pg2.dist.weights))
    if wc is None:
        return None
    base = max(wc[0], default=0) + 1
    c1 = [wc[0][v] + base * _degree_colors(g1)[v] for v in range(g1.n)]
    c2 = [wc[1][v] + base * _degree_colors(g2)[v] for v in range(g2.n)]
    if sorted(c1) != sorted(c2):
        return None
    return _IsoSearch(g1, g2, c1, c2).run()


def graph_isomorphic(g1: Graph, g2: Graph):
    """Plain graph isomorphism (weights ignored); returns mapping or None."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    return _IsoSearch(g1, g2, _degree_colors(g1), _degree_colors(g2)).run()


def find_automorphism(g: Graph, forced):
    """Automorphism of g with prescribed images `forced` = [(v, image)]."""
    colors = _degree_colors(g)
    return _IsoSearch(g, g, colors, colors).run(forced)


# ---------------------------------------------------------------------------
# perfectness via odd-hole search (strong perfect graph characterization)


def find_odd_hole(g: Graph):
    """Search for an induced odd cycle of length >= 5; returns its vertex
    tuple or None.

    Paths are grown from their minimal vertex s.  A frame keeps the induced
    path [s, ..., head] and the neighborhoods of the interior vertices, so a
    chord-free extension or closure is a few bitset operations.
    """
    n = g.n
    rows = g.rows
    for s in range(n):
        allowed = 0
        for v in range(s + 1, n):
            allowed |= 1 << v
        row_s = rows[s]
        starts = [v for v in bits_of(row_s & allowed)]
        for v1 in starts:
            # path = [s, v1]; nb_mid = neighborhoods of interior vertices
            stack = [((s, v1), (1 << s) | (1 << v1), 0)]
            while stack:
                path, path_bits, nb_mid = stack.pop()
                head = path[-1]
                base = rows[head] & allowed & ~path_bits & ~nb_mid
                cycle_len = len(path) + 1
                if cycle_len >= 5 and cycle_len % 2 == 1:
                    closing = base & row_s
                    if closing:
                        w = closing & -closing
                        return path + (w.bit_length() - 1,)
                if cycle_len < n + 1:
                    for w in bits_of(base & ~row_s):
                        stack.append((path + (w,), path_bits | (1 << w),
                                      nb_mid | rows[head]))
    return None


@solved_once
def is_perfect(g: Graph):
    """Perfectness test: no induced odd hole in g or its complement.

    Returns (True, None, False) or (False, witness_hole, in_complement).
    """
    if g.n > PERFECT_VERTEX_LIMIT:
        raise Undecided("undecided (budget): perfectness search limited "
                        f"to {PERFECT_VERTEX_LIMIT} vertices")
    hole = find_odd_hole(g)
    if hole is not None:
        return False, hole, False
    hole = find_odd_hole(complement(g))
    if hole is not None:
        return False, hole, True
    return True, None, False


def srg_parameters(g: Graph):
    """(n, k, lambda, mu) if g is strongly regular, else None."""
    if g.n < 3 or not g.is_regular():
        return None
    k = g.degree(0)
    lam = mu = None
    for i in range(g.n):
        for j in range(i + 1, g.n):
            common = popcount(g.rows[i] & g.rows[j])
            if g.has_edge(i, j):
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return g.n, k, lam, mu
