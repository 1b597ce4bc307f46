"""Reference values that do not come from the package under test.

Independence number, clique number and perfectness are taken from
networkx; entropies are recomputed from the generated weights.
"""

from __future__ import annotations

import math

import networkx as nx


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def clique_number(g) -> int:
    return nx.max_weight_clique(g, weight=None)[1] if g.number_of_nodes() else 0


def alpha(g) -> int:
    return clique_number(nx.complement(g))


def _has_odd_hole(g) -> bool:
    return any(len(c) >= 5 and len(c) % 2 for c in nx.chordless_cycles(g))


def is_perfect(g) -> bool:
    """Strong perfect graph theorem: no odd hole in g or its complement."""
    return not _has_odd_hole(g) and not _has_odd_hole(nx.complement(g))


def entropy(weights) -> float:
    return -sum(w * math.log2(w) for w in weights if w > 0)
