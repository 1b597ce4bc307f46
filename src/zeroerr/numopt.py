"""Convex and numerical solvers: Koerner graph entropy, capacity maximizers,
sum-of-channels weights, eigenvalue theta for transitive graphs, finite-field
rank bound.

Everything is in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Distribution, Graph, ProbabilisticGraph, ZeroErrError, bits_of
from .combin import mis_masks, pack_masks
from .symmetry import is_edge_transitive, is_perfect, is_vertex_transitive

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Koerner graph entropy by alternating minimization


@dataclass
class KornerSolution:
    """Result of the alternating minimization of I(W;X) over P(W|X) with
    X in W, W ranging over maximal independent sets."""

    value: float
    sets: list                 # W alphabet, independent sets as bitsets
    q: np.ndarray              # q[w, x] = Q(w|x), column-stochastic
    r: np.ndarray              # marginal of W
    iterations: int
    converged: bool
    history: list = field(default_factory=list)


def _membership(sets, n: int) -> np.ndarray:
    """0/1 membership matrix member[w, x] = 1[x in w] of vertex bitsets on
    n vertices."""
    return np.unpackbits(pack_masks(sets, n), axis=1, count=n,
                         bitorder="little").astype(float)


def _korner_iterate(member: np.ndarray, p: np.ndarray, r0: np.ndarray,
                    tol: float, max_iter: int):
    """Fixed-point iteration r <- r * (M @ (P / c)) of the Koerner objective
    J(r) = -sum_x P(x) log2 c(x), c = M^T r, started from r0.

    Returns (r, c, J, iterations, converged, history).  r0 must cover every
    vertex of positive weight.  Only the support of P enters the division
    and the logarithm.  A covered support vertex stays covered (the new c(x)
    is at least P(x)), so the loop needs no guards.  The products keep the
    full matrix so that their summation order, and hence every bit of the
    result, does not depend on which vertices have zero weight.
    """
    member_t = member.T
    support = p > 0
    p_s = p[support]
    r = np.array(r0, dtype=float)
    cov = member_t.dot(r)
    ratio = np.zeros(len(p))
    prev = float(-(p_s * np.log2(cov[support])).sum())
    history = [prev]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.divide(p, cov, out=ratio, where=support)
        r *= member.dot(ratio)
        r /= r.sum()
        cov = member_t.dot(r)
        cur = float(-(p_s * np.log2(cov[support])).sum())
        history.append(cur)
        converged = prev - cur < tol
        prev = cur
        if converged:
            break
    return r, cov, prev, iterations, converged, history


def _korner_gap(member: np.ndarray, p: np.ndarray, cov: np.ndarray) -> float:
    """log2 max_w sum_{x in w} P(x) / c(x) for a coverage c of the support.

    By Jensen's inequality J(r') >= J(r) - log2 sum_w r'(w) g(w) for every r',
    with g = M @ (P / c), so J(r) exceeds the Koerner entropy by at most
    this gap.
    """
    ratio = np.zeros(len(p))
    np.divide(p, cov, out=ratio, where=p > 0)
    return float(np.log2(member.dot(ratio).max()))


def korner_entropy(pg: ProbabilisticGraph, tol: float = 1e-9,
                   max_iter: int = 100_000, mis_limit: int = 1_000_000) -> KornerSolution:
    """Koerner graph entropy min I(W;X) s.t. X in W, W independent.

    The W alphabet is restricted to maximal independent sets: enlarging any
    independent W to a maximal superset keeps X in W and cannot increase
    I(W;X).  Alternating minimization collapses to an iteration on the
    W-marginal r alone: for fixed r the best Q(.|x) is the restriction of r
    to the sets containing x, which makes the objective
    J(r) = -sum_x P(x) log2 c(x) with coverage c(x) = sum_{w: x in w} r(w),
    and the marginal update is r <- r * (M @ (P / c)).  J is non-increasing,
    always an upper bound on the entropy, and converges to it.

    Each call enumerates the sets and starts from the uniform r; the
    iteration itself is the kernel shared with `perfect_capacity_evaluator`.
    """
    sets = mis_masks(pg.graph, mis_limit)
    member = _membership(sets, pg.n)
    p = np.array([float(x) for x in pg.dist.weights])
    r, cov, value, iterations, converged, history = _korner_iterate(
        member, p, np.full(len(sets), 1.0 / len(sets)), tol, max_iter)
    # reconstruct the conditional simplices Q(w|x) = r(w) 1[x in w] / c(x)
    safe_cov = np.where(cov > 0, cov, 1.0)
    q = (r[:, None] * member) / safe_cov[None, :]
    return KornerSolution(max(value, 0.0), sets, q, r, iterations, converged, history)


@dataclass(frozen=True)
class CapacityValue:
    value: float
    korner: KornerSolution
    perfect_assumed: bool


def relative_capacity_perfect(pg: ProbabilisticGraph, assume_perfect: bool = False,
                              tol: float = 1e-9, perfect_budget: int = 14) -> CapacityValue:
    """Zero-error capacity relative to the vertex distribution, exact for
    perfect graphs: H(P) - Koerner entropy.

    Refuses when perfectness is not established and not asserted by the
    caller; an asserted perfectness is recorded in the result.
    """
    assumed = bool(assume_perfect)
    if not assume_perfect:
        perfect, _, _ = is_perfect(pg.graph, perfect_budget)
        if not perfect:
            raise ZeroErrError("graph is not perfect; relative capacity formula "
                               "H(P) - H_kappa does not apply")
    sol = korner_entropy(pg, tol)
    return CapacityValue(pg.dist.entropy() - sol.value, sol, assumed)


# ---------------------------------------------------------------------------
# capacity-achieving distribution by mirror ascent


def perfect_capacity_evaluator(g: Graph, assume_perfect: bool = False,
                               tol: float = 1e-10, perfect_budget: int = 14):
    """Evaluator P -> (C(G,P), supergradient) for perfect graphs.

    Supergradient component for vertex x: -log P(x) - 1/ln 2 - D(Q*(.|x)||r*),
    from the envelope theorem on the inner minimization.  With
    Q*(w|x) = r*(w) 1[x in w] / c(x) the divergence is -log2 c(x).

    The maximal independent sets and their membership matrix are built once,
    when the evaluator is made, and every evaluation runs the Koerner kernel
    of `korner_entropy`.  Each evaluation after the first starts from the
    previous evaluation's r, with its entries raised to at least 1e-100 so
    that every vertex is covered.  A warm start can still stall near a face
    of the simplex where a set the new P needs has almost no mass, so the
    warm result is kept only when the gap of `_korner_gap` certifies it
    within sqrt(tol) bits; otherwise the evaluation is redone from the
    uniform r, as `korner_entropy` starts.

    The evaluator is therefore stateful: the same P can give results that
    differ within the Koerner tolerance depending on the earlier calls.
    Use a fresh evaluator for each optimisation that must be reproducible.
    """
    if not assume_perfect:
        perfect, _, _ = is_perfect(g, perfect_budget)
        if not perfect:
            raise ZeroErrError("graph is not perfect; supply a custom evaluator")
    member = _membership(mis_masks(g, 1_000_000), g.n)
    uniform = np.full(len(member), 1.0 / len(member))
    gap_limit = math.sqrt(tol)
    r = None

    def evaluate(weights):
        nonlocal r
        pg = ProbabilisticGraph(g, Distribution(tuple(weights)))
        p = np.array([float(x) for x in weights])
        sol = None
        if r is not None:
            sol = _korner_iterate(member, p, np.maximum(r, 1e-100), tol, 100_000)
        if sol is None or _korner_gap(member, p, sol[1]) > gap_limit:
            sol = _korner_iterate(member, p, uniform, tol, 100_000)
        r, cov, kappa = sol[:3]
        value = pg.dist.entropy() - max(kappa, 0.0)
        log_p = np.full(g.n, -60.0)
        np.log2(p, out=log_p, where=p > 0)
        log_c = np.zeros(g.n)
        np.log2(cov, out=log_c, where=cov > 0)
        return value, -log_p - 1.0 / LN2 + log_c

    return evaluate


@dataclass(frozen=True)
class CapacityOptimum:
    dist: Distribution
    value: float
    converged: bool
    exact_evaluator: bool
    iterations: int


def capacity_achieving_distribution(g: Graph, evaluator=None, tol: float = 1e-5,
                                    max_iter: int = 2000,
                                    exact_evaluator: bool = True) -> CapacityOptimum:
    """Maximize P -> C(G,P) on the simplex by exponentiated gradient ascent.

    The problem is concave, so supergradient stationarity within `tol`
    certifies global optimality of the value.  When a custom evaluator only
    lower-bounds C(G,P), pass exact_evaluator=False; the result is then
    labeled a lower bound on C0.
    """
    if evaluator is None:
        evaluator = perfect_capacity_evaluator(g)
    n = g.n
    p = np.full(n, 1.0 / n)
    best_val, best_p = -math.inf, p.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        value, grad = evaluator(tuple(p))
        if value > best_val:
            best_val, best_p = value, p.copy()
        gap = float(np.max(grad) - grad @ p)
        if gap <= tol:
            converged = True
            break
        step = 0.5 / math.sqrt(iterations)
        logits = np.log(np.maximum(p, 1e-300)) / LN2 + step * grad
        logits -= logits.max()
        p = np.exp2(logits)
        p /= p.sum()
    return CapacityOptimum(Distribution(tuple(float(x) for x in best_p)),
                           best_val, converged, exact_evaluator, iterations)


# ---------------------------------------------------------------------------
# sum of channels


def sum_channel_weights(c0_values):
    """Optimal channel-selection weights for a sum of channels and the
    resulting rate log2(sum_a 2^C0a); closed form, full support always."""
    vals = [float(v) for v in c0_values]
    if not vals or any(math.isinf(v) or math.isnan(v) for v in vals):
        raise ValueError("capacity values must be finite")
    top = max(vals)
    scaled = [2.0 ** (v - top) for v in vals]
    total = sum(scaled)
    weights = Distribution(tuple(s / total for s in scaled))
    return weights, top + math.log2(total)


# ---------------------------------------------------------------------------
# eigenvalue theta for vertex- and edge-transitive graphs


def jacobi_eigenvalues(matrix: np.ndarray, off_threshold: float = 1e-12,
                       max_sweeps: int = 100) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of a symmetric matrix, ascending.

    Deterministic sweep order (p ascending, then q); terminates when the
    off-diagonal Frobenius norm drops below `off_threshold`.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric square")
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float((a * a).sum() - (np.diag(a) ** 2).sum())))
        if off < off_threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < off_threshold / max(1, n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def theta_transitive(g: Graph, assume_transitive: bool = False,
                     node_budget: int = 10_000_000) -> float:
    """Lovasz number for regular vertex- and edge-transitive graphs via the
    eigenvalue formula theta = n (-lambda_min) / (d - lambda_min).

    log2 of the result is a certified upper bound on the zero-error capacity
    under the stated precondition.  Refuses non-regular inputs; transitivity
    is either verified (n <= 32) or asserted by the caller.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_regular():
        raise ZeroErrError("theta eigenvalue formula needs a regular graph")
    d = g.degree(0)
    if d == 0:
        return float(g.n)
    if not assume_transitive:
        if not is_vertex_transitive(g, node_budget):
            raise ZeroErrError("graph is not vertex-transitive")
        if not is_edge_transitive(g, node_budget):
            raise ZeroErrError("graph is not edge-transitive")
    adj = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in bits_of(g.rows[i]):
            adj[i, j] = 1.0
    lam_min = float(jacobi_eigenvalues(adj)[0])
    return g.n * (-lam_min) / (d - lam_min)


# ---------------------------------------------------------------------------
# Haemers rank bound over a prime field


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class FiniteFieldMatrix:
    p: int
    entries: tuple  # tuple of row tuples, values in [0, p)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(not 0 <= v < self.p for v in row):
                raise ValueError("entries must lie in [0, p)")

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "rows": [list(r) for r in self.entries]}


def matrix_from_json_dict(d: dict) -> FiniteFieldMatrix:
    try:
        return FiniteFieldMatrix(int(d["p"]), tuple(tuple(int(v) for v in r) for r in d["rows"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc


def gf_rank(m: FiniteFieldMatrix) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    p = m.p
    rows = [list(r) for r in m.entries]
    n = m.n
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def haemers_bound(g: Graph, b: FiniteFieldMatrix) -> float:
    """log2 rank of a fitting matrix: certified upper bound on C0(g).

    A matrix fits when its diagonal is nonzero and it vanishes on distinct
    non-adjacent pairs; then alpha(G^n) <= rank(B)^n.
    """
    if b.n != g.n:
        raise ValueError("matrix size must match the graph")
    for i in range(g.n):
        if b.entries[i][i] == 0:
            raise ZeroErrError(f"matrix does not fit: zero diagonal at ({i},{i})")
        for j in range(g.n):
            if i != j and not g.has_edge(i, j) and b.entries[i][j] != 0:
                raise ZeroErrError(f"matrix does not fit: nonzero entry at non-edge ({i},{j})")
    return math.log2(gf_rank(b))


def adjacency_plus_identity(g: Graph, p: int) -> FiniteFieldMatrix:
    """Default Haemers candidate A + I over GF(p)."""
    rows = []
    for i in range(g.n):
        rows.append(tuple(1 if (i == j or g.has_edge(i, j)) else 0 for j in range(g.n)))
    return FiniteFieldMatrix(p, tuple(rows))
