"""Exact combinatorial solvers on bitset graphs.

All solvers are deterministic: vertices are ordered by descending degree at
the root (ties by index) and never reordered afterwards.  Budgets count
nodes, never seconds (each search reads `graphs.Budget.current()` when it
starts), so no result depends on the machine's speed; running out degrades
the result to a flagged one-sided bound instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import (
    Budget,
    BudgetExceeded,
    Graph,
    ProbabilisticGraph,
    ZeroErrError,
    bits_of,
    complement,
    connected_components,
    induced_subgraph_graph,
    solved_once,
)

HCHI_EXACT_LIMIT = 18  # most vertices the exact H_chi subset DP takes
MIS_LIMIT = 1_000_000  # most maximal independent sets one enumeration collects


class _Stop(Exception):
    pass


@dataclass(frozen=True)
class Coloring:
    """Proper coloring: color_of[v] in [0, color_count)."""

    color_of: tuple
    color_count: int

    def classes(self):
        out = [0] * self.color_count
        for v, c in enumerate(self.color_of):
            out[c] |= 1 << v
        return out


def validate_coloring(g: Graph, coloring: Coloring) -> bool:
    return all(coloring.color_of[i] != coloring.color_of[j] for i, j in g.edges())


@dataclass(frozen=True)
class IndependentSetWitness:
    vertices: int  # bitset
    size: int

    def to_list(self):
        return list(bits_of(self.vertices))


def is_independent(g: Graph, mask: int) -> bool:
    return all(not (g.rows[v] & mask) for v in bits_of(mask))


def is_clique(g: Graph, mask: int) -> bool:
    return all((g.rows[v] & mask) == mask & ~(1 << v) for v in bits_of(mask))


@dataclass(frozen=True)
class AlphaResult:
    size: int
    witness: IndependentSetWitness
    exact: bool


@dataclass(frozen=True)
class ChiResult:
    count: int
    coloring: Coloring
    exact: bool


# ---------------------------------------------------------------------------
# maximum clique / independent set


def _root_order(g: Graph):
    """(order, rows): the vertices by descending degree, ties by index, and
    the adjacency rows relabelled so that vertex order[i] becomes i."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    pos = [0] * g.n
    for new, old in enumerate(order):
        pos[old] = new
    rows = []
    for old in order:
        row, bits = 0, g.rows[old]
        while bits:
            low = bits & -bits
            row |= 1 << pos[low.bit_length() - 1]
            bits ^= low
        rows.append(row)
    return order, rows


class _CliqueSolver:
    """Branch-and-bound maximum clique with greedy-coloring upper bounds."""

    def __init__(self, g: Graph, root):
        self.g = g
        self.order, self.rows = root  # the `_root_order` of g
        self.n = g.n
        self.node_limit = Budget.current().nodes
        self.nodes = 0
        self.best_size = 0
        self.best_set = 0

    def _greedy_seed(self):
        # best of a few deterministic vertex orders
        for key in (lambda v: v,
                    lambda v: self.rows[v].bit_count(),
                    lambda v: -self.rows[v].bit_count()):
            taken, size = 0, 0
            banned = 0
            for v in sorted(range(self.n), key=key):
                bit = 1 << v
                if banned & bit:
                    continue
                # candidate must be adjacent to everything taken so far
                if taken & ~self.rows[v]:
                    banned |= bit
                    continue
                taken |= bit
                size += 1
            if size > self.best_size:
                self.best_size, self.best_set = size, taken

    def _expand(self, current: int, size: int, cand: int):
        nodes = self.nodes = self.nodes + 1
        if nodes > self.node_limit:
            raise _Stop
        rows = self.rows
        # greedy coloring of cand: vertex order with per-vertex color bounds
        order, bounds = [], []
        push_o, push_b = order.append, bounds.append
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            group = uncolored
            while group:
                low = group & -group
                v = low.bit_length() - 1
                group &= ~rows[v]
                group ^= low
                uncolored ^= low
                push_o(v)
                push_b(color)
        best_size = self.best_size
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            new_cand = cand & rows[v]
            if size + 1 > best_size:
                self.best_size = best_size = size + 1
                self.best_set = current | bit
            if new_cand:
                self._expand(current | bit, size + 1, new_cand)
                best_size = self.best_size
            cand &= ~bit

    def solve(self):
        if self.n == 0:
            return 0, 0, True
        self._greedy_seed()
        exact = True
        try:
            self._expand(0, 0, (1 << self.n) - 1)
        except _Stop:
            exact = False
        witness = 0
        for v in bits_of(self.best_set):
            witness |= 1 << self.order[v]
        if not is_clique(self.g, witness):
            raise ZeroErrError("clique solver returned a non-clique")
        return self.best_size, witness, exact


def max_clique(g: Graph):
    """(size, vertex bitset, exact flag); inexact results are still cliques."""
    return _CliqueSolver(g, _root_order(g)).solve()


def _components(g: Graph) -> list:
    """(vertex list, induced subgraph) of each connected component of g, in
    min-vertex order; empty when g has at most one component, which the
    caller then solves directly."""
    comps = connected_components(g)
    if len(comps) <= 1:
        return []
    return [(keep, induced_subgraph_graph(g, keep))
            for keep in (list(bits_of(comp)) for comp in comps)]


@solved_once
def alpha_exact(g: Graph) -> AlphaResult:
    """Maximum independent set via branch and bound on the complement.

    Disconnected graphs decompose: alpha is additive over components."""
    if g.n > 1024:
        raise ZeroErrError(f"alpha solver limited to 1024 vertices, got {g.n}")
    parts = _components(g)
    if not parts:
        size, mask, exact = max_clique(complement(g))
    else:
        size, mask, exact = 0, 0, True
        for keep, sub in parts:
            s, m, e = max_clique(complement(sub))
            size += s
            exact = exact and e
            for v in bits_of(m):
                mask |= 1 << keep[v]
    if not is_independent(g, mask):
        raise ZeroErrError("alpha solver returned a dependent set")
    return AlphaResult(size, IndependentSetWitness(mask, size), exact)


def omega_exact(g: Graph) -> AlphaResult:
    """Clique number as alpha of the complement."""
    return alpha_exact(complement(g))


# ---------------------------------------------------------------------------
# chromatic number


def dsatur_greedy(g: Graph) -> Coloring:
    """DSATUR heuristic coloring (deterministic): repeatedly color the
    uncolored vertex of highest saturation, ties to the earliest in root
    order, with the smallest feasible color."""
    if g.n == 0:
        return Coloring((), 0)
    order, rows = _root_order(g)
    color_of = [0] * g.n
    for v, c in enumerate(_Saturation(rows).greedy()):
        color_of[order[v]] = c
    return Coloring(tuple(color_of), max(color_of) + 1)


class _Saturation:
    """Incremental DSATUR state on relabelled rows (rank = index).

    Invariants while a partial coloring is in place:
    - ``near[c]`` is the bitset of vertices adjacent to color class c, so
      color c is feasible for an uncolored v iff ``not near[c] >> v & 1``;
    - ``level[s]`` is the bitset of uncolored vertices with saturation s
      (adjacent to exactly s distinct colors); the levels partition the
      uncolored vertices, and no level above the number of colors in use
      is non-empty.
    The next DSATUR vertex is the lowest bit of the highest non-empty level:
    highest saturation, ties to the lowest rank.
    """

    def __init__(self, rows):
        n = len(rows)
        self.rows = rows
        self.near = [0] * n
        self.level = [0] * (n + 1)
        self.level[0] = (1 << n) - 1

    def greedy(self) -> list:
        """Color every vertex greedily (smallest feasible color); returns the
        colors by rank.  Leaves the state fully colored."""
        rows, near, level = self.rows, self.near, self.level
        colors = [0] * len(rows)
        free, used = (1 << len(rows)) - 1, 0
        while free:
            s, v = self.pick(used)
            bit = 1 << v
            level[s] ^= bit
            free ^= bit
            c = 0
            while near[c] & bit:
                c += 1
            self.raise_levels(used, rows[v] & ~near[c] & free)
            near[c] |= rows[v]
            colors[v] = c
            used = max(used, c + 1)
        return colors

    def pick(self, top: int):
        """(saturation, vertex) of the next DSATUR vertex; every level above
        `top` must be empty and some level at or below it non-empty."""
        level = self.level
        while not level[top]:
            top -= 1
        bits = level[top]
        return top, (bits & -bits).bit_length() - 1

    def raise_levels(self, top: int, new: int) -> list:
        """Move every vertex of `new` (uncolored, newly adjacent to a color)
        up one level; levels above `top` must be empty.  Returns the moves
        as (level, bits) pairs for `lower_levels`."""
        level = self.level
        moves = []
        s = top
        while new:
            moved = level[s] & new
            if moved:
                level[s] ^= moved
                level[s + 1] |= moved
                new ^= moved
                moves.append((s, moved))
            s -= 1
        return moves

    def lower_levels(self, moves):
        """Undo `raise_levels`."""
        level = self.level
        for s, moved in moves:
            level[s + 1] ^= moved
            level[s] |= moved


class _ChiSolver:
    """DSATUR-ordered branch and bound for the chromatic number.

    Vertices are relabelled once in root order (descending degree, then
    index), so a vertex's rank is its index.  The search keeps one
    `_Saturation` state: ``near[c]``, the vertices adjacent to color class
    c, and ``level[s]``, the uncolored vertices of saturation s.  Each node
    takes the lowest bit of the highest non-empty level and tries every
    color c not in conflict (``near[c]`` misses v) below both one fresh
    color and the incumbent count minus one, re-reading the incumbent after
    each child.  Coloring v with c newly saturates the uncolored part of
    ``rows[v] & ~near[c]``, which moves up one level; every change to
    ``near`` and ``level`` is undone exactly on backtrack."""

    def __init__(self, g: Graph, lower: int, root):
        self.n = g.n
        self.node_limit = Budget.current().nodes
        self.nodes = 0
        self.lower = lower
        self.proved = False
        self.order, rows = root  # the `_root_order` of g
        self.best = _Saturation(rows).greedy()
        self.best_k = max(self.best, default=-1) + 1
        self.state = _Saturation(rows)
        self.color_of = [0] * g.n

    def solve(self):
        if self.n == 0:
            return 0, (), True
        exact = True
        if self.best_k != self.lower:
            try:
                self._search((1 << self.n) - 1, 0)
            except _Stop:
                exact = self.proved
        colors = [0] * self.n
        for v, c in enumerate(self.best):
            colors[self.order[v]] = c
        return self.best_k, tuple(colors), exact

    def _search(self, free, used):
        if self.best_k == self.lower:
            self.proved = True  # matched the clique bound: optimum certain
            raise _Stop
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Stop
        if not free:
            self.best_k = used
            self.best = self.color_of[:]
            return
        state = self.state
        near, level = state.near, state.level
        s, v = state.pick(used)
        bit = 1 << v
        level[s] ^= bit
        free ^= bit
        row = state.rows[v]
        for c in range(used + 1):  # at most one fresh color
            if c >= self.best_k - 1:  # re-read: a child may have lowered it
                break
            old = near[c]
            if old & bit:
                continue
            self.color_of[v] = c
            moves = state.raise_levels(used, row & ~old & free)
            near[c] = old | row
            self._search(free, used if c < used else used + 1)
            near[c] = old
            state.lower_levels(moves)
        level[s] |= bit


@solved_once
def chromatic_number_exact(g: Graph) -> ChiResult:
    """Exact chromatic number; degrades to a flagged upper bound on budget.

    Disconnected graphs decompose: chi is the maximum over components."""
    if g.n > 256:
        raise ZeroErrError(f"chromatic solver limited to 256 vertices, got {g.n}")
    if g.n == 0:
        return ChiResult(0, Coloring((), 0), True)
    parts = _components(g)
    if parts:
        color_of = [0] * g.n
        k, exact = 0, True
        for keep, sub in parts:
            res = chromatic_number_exact(sub)
            k = max(k, res.count)
            exact = exact and res.exact
            for local, v in enumerate(keep):
                color_of[v] = res.coloring.color_of[local]
        colors = tuple(color_of)
    else:
        root = _root_order(g)  # one relabelling for both solvers
        clique_size, _, clique_exact = _CliqueSolver(g, root).solve()
        k, colors, exact = _ChiSolver(g, clique_size if clique_exact else 1, root).solve()
    coloring = Coloring(colors, k)
    if not validate_coloring(g, coloring):
        raise ZeroErrError("chromatic solver returned an improper coloring")
    return ChiResult(k, coloring, exact)


@solved_once
def clique_cover_number(g: Graph) -> ChiResult:
    """Minimum partition into cliques: chi of the complement.

    Cliques never cross components, so covers add up across them; this keeps
    the complement solves small for disjoint unions."""
    parts = _components(g)
    if not parts:
        return chromatic_number_exact(complement(g))
    color_of = [0] * g.n
    total, exact = 0, True
    for keep, sub in parts:
        res = chromatic_number_exact(complement(sub))
        for local, v in enumerate(keep):
            color_of[v] = total + res.coloring.color_of[local]
        total += res.count
        exact = exact and res.exact
    return ChiResult(total, Coloring(tuple(color_of), total), exact)


# ---------------------------------------------------------------------------
# maximal independent set enumeration


def _maximal_sets(rows, within: int, w, delta: float, best: float, limit: int) -> list:
    """The maximal independent sets of the graph induced on `within` by
    pivoting Bron-Kerbosch, less some of mass below top - delta (top the
    heaviest, `best` at most top).  A branch is cut when its set's mass, plus
    the heaviest weight of each class of a greedy clique partition of its
    candidates, plus a rounding slack falls below best - delta, best rising
    with each set found.  More than `limit` sets collected raise BudgetExceeded."""
    # a cut rests on four float sums of weights, each within n u S of its
    # true value (S the total, u = 2**-53), and on a few roundings
    slack = 4 * 2.0 ** -53 * (len(w) + 8) * sum(w)
    cut = best - delta - slack
    free = [within & ~rows[v] & ~(1 << v) for v in range(len(rows))]
    out = []

    def bk(r: int, r_mass: float, p: int, x: int):
        nonlocal best, cut
        if not p:
            if not x and r_mass >= cut:
                if r_mass > best:
                    best, cut = r_mass, r_mass - delta - slack
                out.append(r)
                if len(out) > limit:
                    raise BudgetExceeded(f"more than {limit} maximal independent sets")
            return
        if r_mass < cut:
            need, bound, rest = cut - r_mass, 0.0, p
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                heaviest, clique = w[v], rest & rows[v]
                rest ^= low
                while clique:
                    low = clique & -clique
                    u = low.bit_length() - 1
                    if w[u] > heaviest:
                        heaviest = w[u]
                    clique &= rows[u]
                    rest ^= low
                bound += heaviest
                if bound >= need:
                    break
            else:
                return
        # pivot: the vertex of p | x with the most non-neighbours in p
        pool, pivot, most = p | x, 0, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            k = (p & free[u]).bit_count()
            if k > most:
                pivot, most = u, k
            pool ^= low
        branch = p & ~free[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            bk(r | low, r_mass + w[v], p & free[v], x & free[v])
            p ^= low
            x |= low
            branch ^= low

    try:
        if within:
            bk(0, 0.0, within, 0)
    finally:
        # bk reaches itself through its closure; without this the cycle, and
        # `out` with it, lives until the next cyclic collection
        del bk
    return out


def mis_masks(g: Graph, limit: int = MIS_LIMIT) -> list:
    """All inclusion-maximal independent sets as vertex bitsets, sorted
    numerically for determinism; more than `limit` raise BudgetExceeded."""
    return sorted(_maximal_sets(g.rows, (1 << g.n) - 1, [0.0] * g.n, math.inf, -1.0, limit))


def maximal_independent_sets(g: Graph, limit: int = MIS_LIMIT):
    """All inclusion-maximal independent sets as witnesses, ascending by
    bitset."""
    return [IndependentSetWitness(m, m.bit_count()) for m in mis_masks(g, limit)]


def greedy_maximal_independent_set(g: Graph) -> IndependentSetWitness:
    """Lowest-index greedy maximal independent set."""
    taken = 0
    candidates = (1 << g.n) - 1
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        taken |= 1 << v
        candidates &= ~(g.rows[v] | (1 << v))
    return IndependentSetWitness(taken, taken.bit_count())


# ---------------------------------------------------------------------------
# minimum-entropy coloring


def _phi(p: float) -> float:
    return -p * math.log2(p) if p > 0.0 else 0.0


@dataclass(frozen=True)
class HChiResult:
    value: float
    coloring: Coloring
    exact: bool


def _entropy_of_classes(masses) -> float:
    return sum(_phi(p) for p in masses)


def min_entropy_coloring(pg: ProbabilisticGraph, mode: str = "exact") -> HChiResult:
    """Chromatic entropy: min over proper colorings of H(color(X)).

    Exact mode is a subset DP, E[S] = min over independent I containing the
    lowest vertex of S of phi(p(I)) + E[S \\ I]; valid because the objective
    is additive over color classes.  Above HCHI_EXACT_LIMIT vertices (or
    with mode="heuristic") it falls back to greedily peeling a heaviest
    maximal independent set of the remaining graph as the next color class;
    the entropy of that coloring is a flagged upper bound.

    The peel rule, exactly: the mass of a set is the left-to-right float sum
    of its weights in ascending vertex order.  The maximal independent sets
    of the remaining graph are scanned in ascending bitset order, and a set
    replaces the incumbent (initially none, mass -1.0) when its mass exceeds
    the incumbent's by more than 1e-15.  Only the heaviest sets can win, so
    the peel keeps the family of every maximal independent set of mass at
    least a level, filled by a pruned Bron-Kerbosch, carried to the next
    remaining graph by restriction and refilled only when the level must
    drop.  MIS_LIMIT bounds the sets one fill collects, not all of them."""
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode '{mode}'")
    if mode == "exact" and pg.n <= HCHI_EXACT_LIMIT:
        return _min_entropy_exact(pg)
    return _min_entropy_heuristic(pg)


def _min_entropy_exact(pg: ProbabilisticGraph) -> HChiResult:
    g, n = pg.graph, pg.n
    w = [float(x) for x in pg.dist.weights]
    rows = g.rows
    memo = {}

    def solve(s: int):
        if s == 0:
            return 0.0, ()
        hit = memo.get(s)
        if hit is not None:
            return hit
        if all(not (rows[v] & s) for v in bits_of(s)):
            res = (_phi(_mass(w, s)), (s,))  # merging classes never raises H
            memo[s] = res
            return res
        v0 = (s & -s).bit_length() - 1
        best_val, best_classes = math.inf, None

        def grow(cls_mask: int, cls_mass: float, allowed: int):
            nonlocal best_val, best_classes
            rest_val, rest_classes = solve(s & ~cls_mask)
            val = _phi(cls_mass) + rest_val
            if val < best_val - 1e-15:
                best_val = val
                best_classes = (cls_mask,) + rest_classes
            while allowed:
                u = (allowed & -allowed).bit_length() - 1
                allowed &= allowed - 1
                grow(cls_mask | (1 << u), cls_mass + w[u], allowed & ~rows[u])

        try:
            grow(1 << v0, w[v0], s & ~rows[v0] & ~((1 << (v0 + 1)) - 1))
        finally:
            del grow     # grow reaches itself through its closure
        memo[s] = (best_val, best_classes)
        return memo[s]

    try:
        value, classes = solve((1 << n) - 1)
    finally:
        # solve reaches itself, and the memo, through its closure; without
        # this the cycle lives until the next cyclic collection
        del solve
    return HChiResult(value, _class_coloring(g, classes, "entropy coloring DP"), True)


def _class_coloring(g: Graph, classes, solver: str) -> Coloring:
    """The coloring with the given color classes, checked proper."""
    color_of = [0] * g.n
    for c, mask in enumerate(classes):
        for v in bits_of(mask):
            color_of[v] = c
    coloring = Coloring(tuple(color_of), len(classes))
    if not validate_coloring(g, coloring):
        raise ZeroErrError(f"{solver} returned an improper coloring")
    return coloring


def _mass(w, mask: int) -> float:
    """The exact mass of a set: its weights summed left to right, ascending."""
    return sum(w[v] for v in bits_of(mask))


def _peel(rows, w, within: int, family: dict, theta: float, limit: int):
    """(chosen, family, theta): the peel rule's pick among the maximal
    independent sets of the graph induced on `within`, and every one of them
    of mass at least `theta` ({mask: mass}).  `family` comes in for the graph
    before the last peel and is restricted: a maximal set here extends to
    one there, and adding a vertex never lowers a float mass.  Only sets
    above a gap matter: if the sets of mass at least some level outweigh all
    others by more than 1e-15, the first of them in the scan replaces any
    lighter incumbent and no lighter one replaces it.  The window starts
    1e-9 below the top and widens by 1e3 until a gap shows (wider than the
    top, it holds every set); the family is refilled when it passes theta."""
    carried = {}
    for mask, m in family.items():
        rest = mask & within
        if rest != mask:
            covered = rest
            for v in bits_of(rest):
                covered |= rows[v]
            if rest in carried or within & ~covered:  # seen, or not maximal
                continue
            m = _mass(w, rest)
            if m < theta:
                continue
        carried[rest] = m
    family, delta = carried, 1e-9
    while True:
        top = max(family.values(), default=-1.0)
        floor = top - delta if delta <= top else -math.inf
        if not family or floor < theta:
            found = _maximal_sets(rows, within, w, delta, top, limit)
            masses = [_mass(w, c) for c in found]
            top = max(masses)
            theta = floor = top - delta if delta <= top else -math.inf
            family = {c: m for c, m in zip(found, masses) if m >= theta}
        window = {c: m for c, m in family.items() if m >= floor}
        levels = sorted(set(window.values()), reverse=True) + [floor]
        if any(hi > lo + 1e-15 for hi, lo in zip(levels, levels[1:])):
            break
        delta *= 1e3
    chosen, best = 0, -1.0
    for c in sorted(window):
        if window[c] > best + 1e-15:
            chosen, best = c, window[c]
    return chosen, family, theta


def _min_entropy_heuristic(pg: ProbabilisticGraph) -> HChiResult:
    """Greedy peel of `min_entropy_coloring`."""
    g, n = pg.graph, pg.n
    w = [float(x) for x in pg.dist.weights]
    within, family, theta, classes = (1 << n) - 1, {}, math.inf, []
    while within:
        chosen, family, theta = _peel(g.rows, w, within, family, theta, MIS_LIMIT)
        classes.append(chosen)
        within &= ~chosen
    coloring = _class_coloring(g, classes, "greedy entropy coloring")
    return HChiResult(_entropy_of_classes(_mass(w, c) for c in classes), coloring, False)
