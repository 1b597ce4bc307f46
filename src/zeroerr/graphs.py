"""Graphs with bitset adjacency, vertex distributions, and the product/union algebra.

Vertices are integers 0..n-1.  Each adjacency row is a Python int used as a
bitset: bit j of rows[i] is set iff i~j.  Rows are open (no self-loops); the
self-adjacency convention of the AND product is applied inside the product
constructors, never stored.

Index algebra is fixed so tests can reason about it:
  * product vertices: (i1, i2) -> i1 * n2 + i2 (lexicographic),
  * union vertices:   block offsets, component a starts at offsets[a].

Budgets live in one scope: `with Budget(nodes=..., vertices=...):` sets the
limits for the block and restores the enclosing ones on exit, also on an
exception.  No function takes a budget argument; solvers and product
constructors read `Budget.current()` when they start.  The scope is a
ContextVar, so a new thread starts at `Budget()` whatever its parent entered.
Each scope also holds the result store of the `solved_once` solvers.
"""

from __future__ import annotations

import functools
import json
import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

WEIGHT_TOL = 1e-9


class ZeroErrError(Exception):
    """Base error for this package."""


class BudgetExceeded(ZeroErrError):
    """A hard resource budget (vertices, enumeration size) would be exceeded."""


class Undecided(ZeroErrError):
    """A decision procedure ran out of search budget before deciding."""


@dataclass(frozen=True)
class Budget:
    """Limits, not a running total: `nodes` for each branch-and-bound solve and
    `vertices` for each AND product.  The active scopes are kept outside the
    instance, so an instance may be entered again while it is active.

    A scope starts an empty result store, dropped on exit, so nothing
    outlives the outermost scope (in the CLI, one command); a nested scope
    with an equal budget, which shapes results alike, shares its parent's."""

    nodes: int = 5_000_000
    vertices: int = 1 << 16

    def __post_init__(self):
        if self.nodes < 0 or self.vertices < 0:
            raise ZeroErrError(f"budgets must be >= 0: {self}")

    def __enter__(self) -> Budget:
        outer, store = _SCOPES.get()[-1]
        if store is None or outer != self:
            store = {}
        _SCOPES.set(_SCOPES.get() + ((self, store),))
        return self

    def __exit__(self, *exc) -> None:
        _SCOPES.set(_SCOPES.get()[:-1])

    @staticmethod
    def current() -> Budget:
        """The innermost active budget; `Budget()` outside every scope."""
        return _SCOPES.get()[-1][0]


_SCOPES = ContextVar("zeroerr_budget", default=((Budget(), None),))  # (budget, store) pairs


def solved_once(fn):
    """Inside a `Budget` scope, a call with the same (hashable) arguments as
    an earlier one returns that call's result, so results must be immutable.
    Exceptions are not stored; outside every scope each call solves.  The
    call goes through `__wrapped__`, so a test can count the solves."""

    @functools.wraps(fn)
    def once(*args, **kwargs):
        store = _SCOPES.get()[-1][1]
        if store is None:
            return once.__wrapped__(*args, **kwargs)
        key = (fn, args, tuple(kwargs.items()))
        if key not in store:
            store[key] = once.__wrapped__(*args, **kwargs)
        return store[key]

    return once


def bits_of(mask: int):
    """Iterate set bit positions of a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: `n` vertices, bitset adjacency `rows`."""

    n: int
    rows: tuple
    labels: tuple | None = None

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("rows length must equal n")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside [0, n)")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} is self-adjacent")
        for i in range(self.n):
            for j in bits_of(self.rows[i]):
                if not (self.rows[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")

    @property
    def closed_rows(self) -> tuple:
        """Adjacency rows with the self bit set (used by product rules)."""
        return tuple(row | (1 << i) for i, row in enumerate(self.rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> list:
        out = []
        for i in range(self.n):
            for j in bits_of(self.rows[i] >> (i + 1)):
                out.append((i, i + 1 + j))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def is_regular(self) -> bool:
        return self.n == 0 or len({self.degree(i) for i in range(self.n)}) == 1

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "edges": [[i, j] for i, j in self.edges()]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) has an endpoint outside [0, {n})")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows), tuple(labels) if labels is not None else None)


def graph_from_json_dict(d: dict) -> Graph:
    try:
        n = int(d["n"])
        edges = [(int(i), int(j)) for i, j in d.get("edges", [])]
        return graph_from_edges(n, edges, d.get("labels"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


@dataclass(frozen=True)
class Distribution:
    """Probability weights on 0..n-1; floats or exact Fractions."""

    weights: tuple

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("negative weight")
        total = sum(self.weights)
        if self.is_rational:
            if total != 1:
                raise ValueError(f"rational weights sum to {total}, not 1")
        elif not abs(float(total) - 1.0) <= WEIGHT_TOL:  # NaN fails too
            raise ValueError(f"weights sum to {float(total)}, not 1")

    @property
    def is_rational(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for w in self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int):
        return self.weights[i]

    def entropy(self) -> float:
        """Shannon entropy in bits, with 0 log 0 = 0."""
        return -sum(float(w) * math.log2(float(w)) for w in self.weights if w > 0)

    def product(self, other: "Distribution") -> "Distribution":
        return Distribution(tuple(a * b for a in self.weights for b in other.weights))

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution((Fraction(1, n),) * n)

    def to_json_value(self):
        if self.is_rational:
            den = math.lcm(*(Fraction(w).denominator for w in self.weights)) if self.weights else 1
            return {"num": [int(Fraction(w) * den) for w in self.weights], "den": den}
        return [float(w) for w in self.weights]


def distribution_from_json_value(v) -> Distribution:
    try:
        if isinstance(v, dict):
            den = int(v["den"])
            return Distribution(tuple(Fraction(int(k), den) for k in v["num"]))
        return Distribution(tuple(float(x) for x in v))
    except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed distribution JSON: {exc}") from exc


@dataclass(frozen=True)
class ProbabilisticGraph:
    """A graph together with a distribution on its vertices."""

    graph: Graph
    dist: Distribution

    def __post_init__(self):
        if len(self.dist) != self.graph.n:
            raise ValueError("distribution length must equal vertex count")

    @property
    def n(self) -> int:
        return self.graph.n

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d["dist"] = self.dist.to_json_value()
        return d


def pgraph_from_json_dict(d: dict) -> ProbabilisticGraph:
    g = graph_from_json_dict(d)
    if "dist" not in d:
        raise ValueError("missing 'dist' field for probabilistic graph")
    return ProbabilisticGraph(g, distribution_from_json_value(d["dist"]))


def uniform_pgraph(g: Graph) -> ProbabilisticGraph:
    return ProbabilisticGraph(g, Distribution.uniform(g.n))


@dataclass(frozen=True)
class ChannelSpec:
    """Support pattern of a conditional distribution P(y|x): only the
    support matters for zero-error questions."""

    x_count: int
    y_count: int
    support: frozenset

    def __post_init__(self):
        if self.x_count < 0:
            raise ValueError(f"x_count must be nonnegative, got {self.x_count}")
        if self.y_count < 0:
            raise ValueError(f"y_count must be nonnegative, got {self.y_count}")
        for x, y in self.support:
            if not (0 <= x < self.x_count and 0 <= y < self.y_count):
                raise ValueError(f"support pair ({x},{y}) out of range")
        for x in range(self.x_count):
            if not any(sx == x for sx, _ in self.support):
                raise ValueError(f"input {x} has no outputs")

    def outputs_of(self, x: int) -> list:
        return sorted(y for sx, y in self.support if sx == x)

    def to_json_dict(self) -> dict:
        return {
            "x_count": self.x_count,
            "y_count": self.y_count,
            "support": sorted([x, y] for x, y in self.support),
        }


def channel_from_json_dict(d: dict) -> ChannelSpec:
    try:
        support = frozenset((int(x), int(y)) for x, y in d["support"])
        return ChannelSpec(int(d["x_count"]), int(d["y_count"]), support)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc


@dataclass(frozen=True)
class UnionLayout:
    """Index bookkeeping for a disjoint union: component a occupies
    [offsets[a], offsets[a] + block_sizes[a])."""

    block_sizes: tuple
    offsets: tuple

    def global_index(self, a: int, local: int) -> int:
        if not 0 <= local < self.block_sizes[a]:
            raise ValueError("local index out of component range")
        return self.offsets[a] + local

    def component_of(self, v: int) -> tuple:
        for a in range(len(self.offsets) - 1, -1, -1):
            if v >= self.offsets[a]:
                return a, v - self.offsets[a]
        raise ValueError("vertex out of range")


# ---------------------------------------------------------------------------
# constructions


def characteristic_graph(channel: ChannelSpec) -> Graph:
    """Confusability graph of a channel: x ~ x' iff they share an output.

    Only `x_count` and `support` are read, so a partial side-information
    component may pass a subset of a channel's support; its inputs with no
    outputs stay isolated."""
    out_masks = [0] * channel.x_count
    for x, y in channel.support:
        out_masks[x] |= 1 << y
    rows = [0] * channel.x_count
    for i in range(channel.x_count):
        for j in range(i + 1, channel.x_count):
            if out_masks[i] & out_masks[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(channel.x_count, tuple(rows))


def and_product_graph(g1: Graph, g2: Graph) -> Graph:
    """AND (strong) product.  Distinct (u1,u2), (v1,v2) are adjacent iff
    u1 equals-or-adjacent v1 and u2 equals-or-adjacent v2."""
    n = g1.n * g2.n
    limit = Budget.current().vertices
    if n > limit:
        raise BudgetExceeded(f"product too large: {n} > {limit} vertices")
    c1, c2 = g1.closed_rows, g2.closed_rows
    rows = []
    for i1 in range(g1.n):
        closed1 = c1[i1]
        for i2 in range(g2.n):
            row = 0
            for j1 in bits_of(closed1):
                row |= c2[i2] << (j1 * g2.n)
            rows.append(row & ~(1 << (i1 * g2.n + i2)))
    return Graph(n, tuple(rows))


def and_product(pg1: ProbabilisticGraph, pg2: ProbabilisticGraph) -> ProbabilisticGraph:
    g = and_product_graph(pg1.graph, pg2.graph)
    return ProbabilisticGraph(g, pg1.dist.product(pg2.dist))


def and_power_graph(g: Graph, n: int) -> Graph:
    """G^n, each power the previous one times G (vertex = base-|V| digits).
    G^1 is g itself; only a product is held to the vertex budget."""
    if n < 1:
        raise ValueError("power must be >= 1")
    limit = Budget.current().vertices
    if n > 1 and g.n ** n > limit:
        raise BudgetExceeded(f"product too large: {g.n ** n} > {limit} vertices")
    out = g
    for _ in range(n - 1):
        out = and_product_graph(out, g)
    return out


def and_power(pg: ProbabilisticGraph, n: int) -> ProbabilisticGraph:
    """(G^n, P^n)."""
    g = and_power_graph(pg.graph, n)
    dist = pg.dist
    for _ in range(n - 1):
        dist = dist.product(pg.dist)
    return ProbabilisticGraph(g, dist)


def disjoint_union(parts, weights: Distribution):
    """Disjoint union of probabilistic graphs, vertex weights P_A(a) * P_Xa(x)."""
    parts = list(parts)
    if len(weights) != len(parts):
        raise ValueError("weights length must equal number of parts")
    sizes = tuple(pg.n for pg in parts)
    offsets, acc = [], 0
    for s in sizes:
        offsets.append(acc)
        acc += s
    rows, w = [], []
    for a, pg in enumerate(parts):
        off = offsets[a]
        rows.extend(row << off for row in pg.graph.rows)
        w.extend(weights[a] * px for px in pg.dist.weights)
    pg_out = ProbabilisticGraph(Graph(acc, tuple(rows)), Distribution(tuple(w)))
    return pg_out, UnionLayout(sizes, tuple(offsets))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~row) & ~(1 << i) for i, row in enumerate(g.rows)))


def connected_components(g: Graph) -> list:
    """Vertex bitsets of the connected components, in min-vertex order."""
    comps = []
    seen = 0
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            grow = 0
            for v in bits_of(frontier):
                grow |= g.rows[v]
            frontier = grow & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def induced_subgraph_graph(g: Graph, keep) -> Graph:
    """G induced on `keep`; vertex k of the result is the k-th smallest of `keep`."""
    keep = sorted(keep)
    pos = {v: k for k, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        for u in bits_of(g.rows[v]):
            if u in pos:
                row |= 1 << pos[u]
        rows.append(row)
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return Graph(len(keep), tuple(rows), labels)


def induced_subgraph(pg: ProbabilisticGraph, keep) -> ProbabilisticGraph:
    """G induced on `keep`, with P conditioned on it (renormalized)."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    sub = induced_subgraph_graph(pg.graph, keep)
    w = [pg.dist[v] for v in keep]
    total = sum(w)
    if total <= 0:
        raise ValueError("cannot renormalize: kept set has zero probability")
    return ProbabilisticGraph(sub, Distribution(tuple(x / total for x in w)))


# ---------------------------------------------------------------------------
# catalog


def _schlafli() -> Graph:
    """Schlafli graph as the skew-lines graph of the 27 lines on a cubic
    surface: a1..a6, b1..b6, c_ij (i<j); complement of the meeting relation."""
    labels = [f"a{i}" for i in range(1, 7)] + [f"b{i}" for i in range(1, 7)]
    cpairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    labels += [f"c{i}{j}" for i, j in cpairs]

    def meets(u, v):
        lu, lv = labels[u], labels[v]
        if lu[0] == "a" and lv[0] == "a":
            return False
        if lu[0] == "b" and lv[0] == "b":
            return False
        if {lu[0], lv[0]} == {"a", "b"}:
            return lu[1] != lv[1]
        if lu[0] == "c" and lv[0] == "c":
            return not (set(lu[1:]) & set(lv[1:]))
        if lv[0] == "c":
            lu, lv = lv, lu
        # lu = c_ij, lv = a_i or b_i
        return lv[1] in lu[1:]

    meet_edges = [(u, v) for u in range(27) for v in range(u + 1, 27) if meets(u, v)]
    return complement(graph_from_edges(27, meet_edges, labels))


def catalog_get(name: str, n: int | None = None) -> Graph:
    """Named graphs: cycle/complete/empty/path (need n) and schlafli."""
    name = name.lower()
    if name == "schlafli":
        return _schlafli()
    if n is None:
        raise ValueError(f"catalog '{name}' requires a vertex count")
    if name == "cycle":
        if n < 3:
            raise ValueError("cycles need n >= 3")
        return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete":
        return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "empty":
        return graph_from_edges(n, [])
    if name == "path":
        return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    raise ValueError(f"unknown catalog name '{name}'")


def cycle(n: int) -> Graph:
    return catalog_get("cycle", n)


def complete(n: int) -> Graph:
    return catalog_get("complete", n)


def empty(n: int) -> Graph:
    return catalog_get("empty", n)


def path(n: int) -> Graph:
    return catalog_get("path", n)


# ---------------------------------------------------------------------------
# file I/O helpers shared by the CLI


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
