"""Perfectness via odd-hole search, and strongly regular parameters."""

from __future__ import annotations

from .graphs import Graph, Undecided, bits_of, complement, solved_once

PERFECT_VERTEX_LIMIT = 14


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
            common = (g.rows[i] & g.rows[j]).bit_count()
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
