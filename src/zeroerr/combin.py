"""Exact combinatorial solvers on bitset graphs.

All solvers are deterministic: vertices are ordered by descending degree at
the root (ties by index) and never reordered afterwards.  Budgets combine a
node count and wall-clock seconds; running out degrades the result to a
flagged one-sided bound instead of raising.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import (
    Graph,
    ProbabilisticGraph,
    ZeroErrError,
    bits_of,
    complement,
    connected_components,
    induced_subgraph_graph,
    popcount,
)


@dataclass(frozen=True)
class Budget:
    nodes: int = 5_000_000
    seconds: float = 30.0


DEFAULT_BUDGET = Budget()


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

    def __init__(self, g: Graph, budget: Budget):
        self.order, self.rows = _root_order(g)
        self.n = g.n
        self.budget = budget
        self.deadline = time.monotonic() + budget.seconds
        self.nodes = 0
        self.best_size = 0
        self.best_set = 0

    def _greedy_seed(self):
        # best of a few deterministic vertex orders
        for key in (lambda v: v,
                    lambda v: popcount(self.rows[v]),
                    lambda v: -popcount(self.rows[v])):
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
        if nodes > self.budget.nodes or (
                not nodes & 1023 and time.monotonic() > self.deadline):
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
        return self.best_size, witness, exact


def max_clique(g: Graph, budget: Budget = DEFAULT_BUDGET):
    """(size, vertex bitset, exact flag); inexact results are still cliques."""
    size, mask, exact = _CliqueSolver(g, budget).solve()
    if not is_clique(g, mask):
        raise ZeroErrError("clique solver returned a non-clique")
    return size, mask, exact


def alpha_exact(g: Graph, budget: Budget = DEFAULT_BUDGET) -> AlphaResult:
    """Maximum independent set via branch and bound on the complement.

    Disconnected graphs decompose: alpha is additive over components."""
    if g.n > 1024:
        raise ZeroErrError(f"alpha solver limited to 1024 vertices, got {g.n}")
    comps = connected_components(g)
    if len(comps) <= 1:
        size, mask, exact = max_clique(complement(g), budget)
    else:
        size, mask, exact = 0, 0, True
        for comp in comps:
            keep = list(bits_of(comp))
            s, m, e = max_clique(complement(induced_subgraph_graph(g, keep)), budget)
            size += s
            exact = exact and e
            for v in bits_of(m):
                mask |= 1 << keep[v]
    if not is_independent(g, mask):
        raise ZeroErrError("alpha solver returned a dependent set")
    return AlphaResult(size, IndependentSetWitness(mask, size), exact)


def omega_exact(g: Graph, budget: Budget = DEFAULT_BUDGET) -> AlphaResult:
    """Clique number as alpha of the complement."""
    return alpha_exact(complement(g), budget)


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

    def __init__(self, g: Graph, budget: Budget, lower: int):
        self.n = g.n
        self.budget = budget
        self.deadline = time.monotonic() + budget.seconds
        self.nodes = 0
        self.lower = lower
        self.proved = False
        self.order, rows = _root_order(g)
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
        if self.nodes > self.budget.nodes or (
                self.nodes % 1024 == 0 and time.monotonic() > self.deadline):
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


def chromatic_number_exact(g: Graph, budget: Budget = DEFAULT_BUDGET) -> ChiResult:
    """Exact chromatic number; degrades to a flagged upper bound on budget.

    Disconnected graphs decompose: chi is the maximum over components."""
    if g.n > 256:
        raise ZeroErrError(f"chromatic solver limited to 256 vertices, got {g.n}")
    if g.n == 0:
        return ChiResult(0, Coloring((), 0), True)
    comps = connected_components(g)
    if len(comps) > 1:
        color_of = [0] * g.n
        k, exact = 0, True
        for comp in comps:
            keep = list(bits_of(comp))
            res = chromatic_number_exact(induced_subgraph_graph(g, keep), budget)
            k = max(k, res.count)
            exact = exact and res.exact
            for local, v in enumerate(keep):
                color_of[v] = res.coloring.color_of[local]
        coloring = Coloring(tuple(color_of), k)
        if not validate_coloring(g, coloring):
            raise ZeroErrError("chromatic solver returned an improper coloring")
        return ChiResult(k, coloring, exact)
    clique_size, _, clique_exact = max_clique(g, budget)
    solver = _ChiSolver(g, budget, clique_size if clique_exact else 1)
    k, colors, exact = solver.solve()
    coloring = Coloring(colors, k)
    if not validate_coloring(g, coloring):
        raise ZeroErrError("chromatic solver returned an improper coloring")
    return ChiResult(k, coloring, exact)


def clique_cover_number(g: Graph, budget: Budget = DEFAULT_BUDGET) -> ChiResult:
    """Minimum partition into cliques: chi of the complement.

    Cliques never cross components, so covers add up across them; this keeps
    the complement solves small for disjoint unions."""
    comps = connected_components(g)
    if len(comps) <= 1:
        return chromatic_number_exact(complement(g), budget)
    color_of = [0] * g.n
    total, exact = 0, True
    for comp in comps:
        keep = list(bits_of(comp))
        res = chromatic_number_exact(
            complement(induced_subgraph_graph(g, keep)), budget)
        for local, v in enumerate(keep):
            color_of[v] = total + res.coloring.color_of[local]
        total += res.count
        exact = exact and res.exact
    return ChiResult(total, Coloring(tuple(color_of), total), exact)


# ---------------------------------------------------------------------------
# maximal independent set enumeration


def mis_masks(g: Graph, limit: int = 1_000_000) -> list:
    """All inclusion-maximal independent sets as vertex bitsets, via pivoting
    Bron-Kerbosch on the complement's cliques.  Sorted numerically for
    determinism; more than `limit` sets raise ZeroErrError."""
    comp_rows = complement(g).rows
    out = []

    def bk(r: int, p: int, x: int):
        if not p:
            if not x:
                out.append(r)
                if len(out) > limit:
                    raise ZeroErrError(f"more than {limit} maximal independent sets")
            return
        # pivot: the vertex of p | x with the most non-neighbours in p
        pool, pivot, most = p | x, 0, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            k = (p & comp_rows[u]).bit_count()
            if k > most:
                pivot, most = u, k
            pool ^= low
        branch = p & ~comp_rows[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            bk(r | low, p & comp_rows[v], x & comp_rows[v])
            p ^= low
            x |= low
            branch ^= low

    try:
        if g.n:
            bk(0, (1 << g.n) - 1, 0)
    finally:
        # bk reaches itself through its closure; without this the cycle, and
        # `out` with it, lives until the next cyclic collection
        del bk
    out.sort()
    return out


def maximal_independent_sets(g: Graph, limit: int = 1_000_000):
    """All inclusion-maximal independent sets as witnesses, ascending by
    bitset."""
    return [IndependentSetWitness(m, popcount(m)) for m in mis_masks(g, limit)]


def pack_masks(masks, n: int) -> np.ndarray:
    """Bitsets on n vertices as a (len(masks), ceil(n/8)) uint8 array, vertex v
    of row k at bit v % 8 (little-endian) of byte v // 8."""
    limbs = [np.fromiter(((m >> s) & 0xFFFF_FFFF_FFFF_FFFF for m in masks),
                         dtype="<u8", count=len(masks))
             for s in range(0, n or 1, 64)]  # one limb even when n = 0
    return np.stack(limbs, axis=1).view(np.uint8)[:, :(n + 7) // 8]


def greedy_maximal_independent_set(g: Graph) -> IndependentSetWitness:
    """Lowest-index greedy maximal independent set."""
    taken = 0
    candidates = (1 << g.n) - 1
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        taken |= 1 << v
        candidates &= ~(g.rows[v] | (1 << v))
    return IndependentSetWitness(taken, popcount(taken))


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


def min_entropy_coloring(pg: ProbabilisticGraph, mode: str = "exact",
                         exact_budget: int = 18, limit: int = 1_000_000) -> HChiResult:
    """Chromatic entropy: min over proper colorings of H(color(X)).

    Exact mode is a subset DP, E[S] = min over independent I containing the
    lowest vertex of S of phi(p(I)) + E[S \\ I]; valid because the objective
    is additive over color classes.  Over budget (or mode="heuristic") falls
    back to greedily peeling a heaviest maximal independent set of the
    remaining graph as the next color class; the entropy of that coloring is
    a flagged upper bound.

    The peel rule, exactly: the mass of a set is the left-to-right float sum
    of its weights in ascending vertex order.  The maximal independent sets
    of the remaining graph are scanned in ascending bitset order, and a set
    replaces the incumbent (initially none, mass -1.0) when its mass exceeds
    the incumbent's by more than 1e-15.  `limit` bounds the number of maximal
    independent sets of the whole graph, which no remaining graph exceeds.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode '{mode}'")
    if mode == "exact" and pg.n <= exact_budget:
        return _min_entropy_exact(pg)
    return _min_entropy_heuristic(pg, limit)


def _min_entropy_exact(pg: ProbabilisticGraph) -> HChiResult:
    g, n = pg.graph, pg.n
    w = [float(x) for x in pg.dist.weights]
    rows = g.rows
    memo = {}

    def mass(mask: int) -> float:
        return sum(w[v] for v in bits_of(mask))

    def solve(s: int):
        if s == 0:
            return 0.0, ()
        hit = memo.get(s)
        if hit is not None:
            return hit
        if all(not (rows[v] & s) for v in bits_of(s)):
            res = (_phi(mass(s)), (s,))  # merging classes never raises H
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
    color_of = [0] * n
    for c, mask in enumerate(classes):
        for v in bits_of(mask):
            color_of[v] = c
    coloring = Coloring(tuple(color_of), len(classes))
    if not validate_coloring(g, coloring):
        raise ZeroErrError("entropy coloring DP returned an improper coloring")
    return HChiResult(value, coloring, True)


def _is_maximal(rows, mask: int, within: int) -> bool:
    """Independent `mask` is maximal in the graph induced on `within`."""
    covered = mask
    for v in bits_of(mask):
        covered |= rows[v]
    return not within & ~covered


def _heaviest_peel(rows, mis, approx, remaining: int, w, slack: float) -> int:
    """The set the peel rule of `min_entropy_coloring` picks among the
    maximal independent sets of the graph induced on `remaining`.

    The candidates are the rows I & remaining for the maximal independent
    sets I of the whole graph in `mis`, with `approx` their masses up to
    `slack`.  Each maximal independent set J of the remaining graph is such a
    row (extend J to a maximal I of the whole graph: every vertex added lies
    outside `remaining`); other rows are independent but not maximal and are
    skipped.

    Only sets above a gap matter: if the sets of mass at least some level
    outweigh every other set by more than 1e-15, the first of them in the
    scan replaces any lighter incumbent and no lighter set replaces one of
    them.  Adding a vertex never lowers a float mass, so a maximal superset
    of a set above the gap is above it too.  Exact masses are summed for the
    rows within 1e-9 of the top, a window widened until a gap shows; the
    widest window holds every row.
    """
    top = float(approx.max())
    delta = 1e-9
    while True:
        if delta > top:
            picked, outside = range(len(mis)), -math.inf
        else:
            picked = np.flatnonzero(approx >= top - delta).tolist()
            outside = top - delta + slack  # bounds the exact mass of every row left out
        mass = {c: sum(w[v] for v in bits_of(c)) for c in {mis[i] & remaining for i in picked}}
        levels = sorted(set(mass.values()), reverse=True) + [outside]
        if any(hi > max(lo, outside) + 1e-15 for hi, lo in zip(levels, levels[1:])):
            break
        delta *= 1e3
    best_mask, best_mass = 0, -1.0
    for c in sorted(mass):
        m = mass[c]
        if m > best_mass + 1e-15 and _is_maximal(rows, c, remaining):
            best_mask, best_mass = c, m
    return best_mask


def _min_entropy_heuristic(pg: ProbabilisticGraph, limit: int) -> HChiResult:
    """Greedy peel of `min_entropy_coloring`.  The maximal independent sets
    are enumerated once; each peel restricts them to the remaining vertices
    and reads their masses from per-byte tables of the remaining weights."""
    g, n = pg.graph, pg.n
    w = [float(x) for x in pg.dist.weights]
    mis = mis_masks(g, limit)
    packed = pack_masks(mis, n).T.copy()  # one row per byte position
    # an exact mass (the peel's left-to-right sum) and its table approximation
    # are float sums of the same nonnegative weights, each within (n + 7) u S
    # of the true sum S (u = 2**-53): they differ by less than half of this
    slack = 4 * 2.0 ** -53 * (n + 8) * sum(w)
    width = packed.shape[0]
    weights = np.zeros(8 * width)
    weights[:n] = w
    approx, term = np.empty(len(mis)), np.empty(len(mis))
    # byte_bits[b, j] = bit j of the byte value b
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                              bitorder="little").astype(float)
    remaining = (1 << n) - 1
    color_of = [0] * n
    masses = []
    color = 0
    while remaining:
        live = np.unpackbits(pack_masks([remaining], n)[0], bitorder="little")
        tables = (weights * live).reshape(width, 8) @ byte_bits.T  # (width, 256)
        np.take(tables[0], packed[0], out=approx)
        for j in range(1, width):
            approx += np.take(tables[j], packed[j], out=term)
        chosen = _heaviest_peel(g.rows, mis, approx, remaining, w, slack)
        if not chosen:
            raise ZeroErrError("entropy coloring peel found no maximal independent set")
        for v in bits_of(chosen):
            color_of[v] = color
        masses.append(sum(w[v] for v in bits_of(chosen)))
        remaining &= ~chosen
        color += 1
    coloring = Coloring(tuple(color_of), color)
    if not validate_coloring(g, coloring):
        raise ZeroErrError("greedy entropy coloring returned an improper coloring")
    return HChiResult(_entropy_of_classes(masses), coloring, False)
