"""Convex and numerical solvers: Koerner graph entropy, capacity maximizers,
sum-of-channels weights, an eigenvalue bound on theta for regular graphs
(lambda_min from numpy's `eigvalsh`, stepped down by an allowance of
n d 2^-52 for its rounding), finite-field rank bound.  Each checks its own
precondition (perfect graphs for capacity, regular ones for theta); no
caller can vouch for one.

A Koerner solve runs Cover's fixed-point step and has two stop rules.  A
solve whose step lowers J by less than tol within KORNER_NEWTON_AFTER steps
stops there, on the step test alone.  A solve still running then is
stalled, typically with mass draining from sets the optimum leaves empty;
an active-set Newton finish takes it over and stops only once the Jensen
gap of `_korner_gap` certifies J within tol of the entropy.  A finish that
does not get there hands back to the fixed-point step.

Everything is in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    WEIGHT_TOL,
    Distribution,
    Graph,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    solved_once,
)
from .combin import mis_masks
from .symmetry import is_perfect

LN2 = math.log(2.0)
CAPACITY_KORNER_TOL = 1e-10  # Koerner tolerance of each capacity evaluation
KORNER_MAX_ITER = 100_000  # most fixed-point steps of one Koerner solve
KORNER_NEWTON_AFTER = 100  # fixed-point steps before a solve tries the Newton finish
KORNER_NEWTON_STEPS = 30  # most Newton steps of one finish
KORNER_HISTORY_FLOATS = 4096  # iterate rows one Koerner look-ahead block keeps
# Largest graph the theta candidate runs on.  eigvalsh is not what limits it:
# the limit stays until an exact eigenvalue check is timed at 60 and 100 vertices.
THETA_VERTEX_LIMIT = 32


# ---------------------------------------------------------------------------
# Koerner graph entropy by alternating minimization


@dataclass(frozen=True)
class KornerSolution:
    """Result of the alternating minimization of I(W;X) over P(W|X) with
    X in W, W ranging over maximal independent sets; immutable, arrays too."""

    value: float
    sets: tuple                # W alphabet, independent sets as bitsets
    r: np.ndarray              # marginal of W
    cov: np.ndarray            # cov[x] = sum_{w: x in w} r(w)
    iterations: int
    converged: bool

    def __post_init__(self):
        self.r.flags.writeable = self.cov.flags.writeable = False


def _membership(sets, n: int) -> np.ndarray:
    """0/1 membership matrix member[w, x] = 1[x in w] of vertex bitsets on
    n vertices."""
    limbs = [np.fromiter(((m >> s) & 0xFFFF_FFFF_FFFF_FFFF for m in sets),
                         dtype="<u8", count=len(sets))
             for s in range(0, n or 1, 64)]  # one limb even when n = 0
    packed = np.stack(limbs, axis=1).view(np.uint8)  # vertex v at bit v % 8 of byte v // 8
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(float)


def _korner_iterate(member: np.ndarray, p: np.ndarray, r0: np.ndarray,
                    tol: float, max_iter: int):
    """Fixed-point iteration r <- r * (M @ (P / c)) of the Koerner objective
    J(r) = -sum_x P(x) log2 c(x), c = M^T r, started from r0, until a step
    lowers J by less than tol or max_iter steps are made.

    Returns (r, c, J, iterations, converged).  r0 must cover every vertex
    of positive weight.  Only the support of P enters the division and the
    logarithm.  A covered support vertex stays covered (the new c(x)
    is at least P(x)), so the loop needs no guards.  The products keep the
    full matrix so that their summation order, and hence every bit of the
    result, does not depend on which vertices have zero weight.

    The stopping test is made on a block of iterates at once.  The map runs
    k steps ahead and keeps each step's r and c as a row; then J of all k
    rows comes from one vectorised pass over the support columns, gathered
    C-contiguous so that each row sum is the same pairwise sum as the sum
    over a single c; and the result is the first row whose step lowered J
    by less than tol.  The first block is one step.  After that, k is the
    number of steps the last two steps predict until one falls below tol,
    if they shrink geometrically, and otherwise twice the last k.  The rows
    of one block hold at most KORNER_HISTORY_FLOATS floats, so a large set
    family, where the two matrix-vector products cost far more than the
    test, runs one step per block and keeps no history.

    Contract: r, c, J, the iteration count and `converged` are bit for bit
    those of the loop that tests J after every step (kept in the tests as
    the reference); the look-ahead only adds steps that are never returned.
    """
    member_t = member.T
    m, n = member.shape
    support = p > 0
    full = bool(support.all())  # then P / c needs no mask, as c > 0
    cols = support.nonzero()[0]
    p_s = p[cols]
    depth = max(1, KORNER_HISTORY_FLOATS // (m + n))  # steps one block keeps
    rs = np.empty((depth, m))        # rs[i - 1]: r after step i of the block
    covs = np.empty((depth + 1, n))  # covs[i]: c after step i; covs[0]: at its start
    r = np.asarray(r0, dtype=float)
    member_t.dot(r, out=covs[0])
    ratio = np.zeros(n)
    first, block = 0, 1  # J of covs rows first..k is made after each block
    before = last = math.nan  # the last two steps J(r_{i-1}) - J(r_i)
    iterations, converged, max_iter = 0, False, max(max_iter, 0)
    while True:
        k = min(block, depth, max_iter - iterations)
        c = covs[0]
        for i in range(k):
            if full:
                np.divide(p, c, ratio)
            else:
                np.divide(p, c, ratio, where=support)
            r_next, c = rs[i], covs[i + 1]
            np.multiply(r, member.dot(ratio), r_next)
            np.divide(r_next, np.add.reduce(r_next, 0), r_next)
            member_t.dot(r_next, out=c)
            r = r_next
        rows = covs[first:k + 1] if full else covs[first:k + 1].take(cols, 1)
        sums = np.add.reduce(p_s * np.log2(rows), 1).tolist()  # -J of each row
        if not first:
            s_prev, first = sums.pop(0), 1
        stop = k
        for i, s in enumerate(sums, 1):
            before, last, s_prev = last, s - s_prev, s
            if last < tol:
                stop, converged = i, True
                break
        iterations += stop
        if converged or iterations == max_iter:
            if stop:
                r = rs[stop - 1]
            return r.copy(), covs[stop].copy(), -s_prev, iterations, converged
        covs[0] = covs[k]  # r is rs[k - 1], which the next block reads first
        block = _korner_block(before, last, tol, k)


def _korner_block(before: float, last: float, tol: float, k: int) -> int:
    """Steps to run before the next stopping test: the number of steps until
    one falls below tol if they keep shrinking by the ratio last / before,
    and twice the last block k while they do not shrink."""
    if 0 < tol < last < before:
        shrink = math.log(last / before)
        if shrink < 0:
            return max(1, math.ceil(math.log(tol / last) / shrink))
    return 2 * k


def _korner_scores(member: np.ndarray, p: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """g = M @ (P / c), g(w) = sum_{x in w} P(x) / c(x), for a coverage c of
    the support: minus the gradient of J in natural-log units."""
    ratio = np.zeros(len(p))
    np.divide(p, cov, out=ratio, where=p > 0)
    return member.dot(ratio)


def _korner_gap(member: np.ndarray, p: np.ndarray, cov: np.ndarray) -> float:
    """log2 max_w g(w) for a coverage c of the support (`_korner_scores`).

    By Jensen's inequality J(r') >= J(r) - log2 sum_w r'(w) g(w) for every r',
    so J(r) exceeds the Koerner entropy by at most this gap.
    """
    return float(np.log2(_korner_scores(member, p, cov).max()))


def _korner_newton(member: np.ndarray, p: np.ndarray, r: np.ndarray, tol: float):
    """Active-set Newton steps on J over the simplex, from the r the kernel
    stopped at; returns (r, c, J, steps) once `_korner_gap` at c = M^T r is
    at most tol, or None when KORNER_NEWTON_STEPS steps do not get there.

    The active sets A start as the 4 |supp P| + 4 heaviest sets of r, so no
    dense matrix grows with the set family; the set of largest g joins A
    when it is outside, in place of the lightest set of A when A is full.
    Each step minimises the quadratic model of f = J ln 2 at r over the
    face where the sets outside A are zero.  As f is homogeneous of degree
    0 in r, its Hessian H = M W M^T, W = diag(P / c^2), satisfies H r = g,
    so the model's KKT system reads H_AA x_A + lambda 1 = 2 g_A,
    sum x_A = 1.  lstsq solves it for x_A - r_A, whose right side vanishes
    at the optimum, so the rounding of the solve shrinks with the step; H_AA
    is singular when sets cover alike.  While x has a negative entry, a
    ratio test moves towards it only until the first set of A reaches zero,
    and that set leaves A before the system is solved again.  The step from
    r to x is then halved until J does not rise.  Every r is feasible and J
    is recomputed from the returned one, so J stays an upper bound on the
    Koerner entropy.
    """
    member_t = member.T
    cols = (p > 0).nonzero()[0]
    p_s = p[cols]
    cap = 4 * len(cols) + 4
    active = sorted(np.argsort(-r, kind="stable")[:cap].tolist())
    cov = member_t.dot(r)
    for step in range(KORNER_NEWTON_STEPS + 1):
        g = _korner_scores(member, p, cov)
        if math.log2(g.max()) <= tol:
            return r, cov, -float(np.add.reduce(p_s * np.log2(cov[cols]))), step
        if step == KORNER_NEWTON_STEPS:
            return None
        top = int(g.argmax())
        if top not in active:
            if len(active) == cap:
                active.remove(min(active, key=r.__getitem__))
            active.append(top)
        a = member[np.ix_(active, cols)]
        c_s = cov[cols]
        weighted = a * (p_s / (c_s * c_s))
        hessian = weighted.dot(a.T)
        x, keep = r.copy(), list(range(len(active)))
        while True:
            sets = [active[i] for i in keep]
            k = len(keep)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = hessian[np.ix_(keep, keep)]
            kkt[k, k] = 0.0
            leaving = c_s - a[keep].T.dot(r[sets])  # coverage of the sets set to zero
            rhs = np.append(g[sets] - 1.0 + weighted[keep].dot(leaving), 1.0 - r[sets].sum())
            d = -x
            d[sets] += r[sets] + np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            falling = (d < 0).nonzero()[0]
            ratios = x[falling] / -d[falling]
            t = float(ratios.min(initial=1.0))  # ratio test: x stays >= 0
            if t >= 1.0:
                x += d
                break
            x += t * d
            blocking = int(falling[ratios.argmin()])
            x[blocking] = 0.0
            keep.remove(active.index(blocking))
        np.maximum(x, 0.0, out=x)
        s = 1.0
        while True:
            trial = (1.0 - s) * r + s * x
            trial /= trial.sum()
            # J(t / |t|) - J(r / |r|) = log2(1 + |dr| / |r|) - sum_x P(x) log2(1 +
            # dc(x) / c(x)) with dr = t - r and dc = M^T dr: made from the step
            # itself, it keeps its sign where the two J round alike
            step_r = trial - r
            rise = member_t.dot(step_r)[cols] / c_s
            if rise.min() > -1.0 and (p_s.dot(np.log1p(rise))
                                      >= math.log1p(step_r.sum() / r.sum())):
                break
            s *= 0.5
            if s < 2.0 ** -30:
                return None
        r, cov = trial, member_t.dot(trial)
        active = [w for w in active if r[w] > 0]


def _korner_solve(member: np.ndarray, p: np.ndarray, r0: np.ndarray, tol: float):
    """One Koerner solve from r0: the kernel for at most KORNER_NEWTON_AFTER
    steps; if its step test has not stopped it, the Newton finish, which
    stops only on a gap of at most tol; if that fails, the kernel again
    from where it stopped, up to KORNER_MAX_ITER steps in all.

    Returns `_korner_iterate`'s (r, c, J, iterations, converged), counting
    fixed-point and Newton steps alike.  A solve that stops within the
    first KORNER_NEWTON_AFTER steps, or whose finish fails, gives the bits
    of the kernel alone.
    """
    r, cov, value, iterations, converged = _korner_iterate(
        member, p, r0, tol, KORNER_NEWTON_AFTER)
    if converged:
        return r, cov, value, iterations, converged
    finish = _korner_newton(member, p, r, tol)
    if finish is not None:
        return *finish[:3], iterations + finish[3], True
    more = _korner_iterate(member, p, r, tol, KORNER_MAX_ITER - iterations)
    return *more[:3], iterations + more[3], more[4]


@solved_once
def korner_entropy(pg: ProbabilisticGraph, tol: float = 1e-9) -> KornerSolution:
    """Koerner graph entropy min I(W;X) s.t. X in W, W independent.

    The W alphabet is restricted to maximal independent sets: enlarging any
    independent W to a maximal superset keeps X in W and cannot increase
    I(W;X).  Alternating minimization collapses to an iteration on the
    W-marginal r alone: for fixed r the best Q(.|x) is the restriction of r
    to the sets containing x, which makes the objective
    J(r) = -sum_x P(x) log2 c(x) with coverage c(x) = sum_{w: x in w} r(w),
    and the marginal update is r <- r * (M @ (P / c)).  J is non-increasing,
    always an upper bound on the entropy, and converges to it.

    Each call enumerates the sets and starts from the uniform r; the solve
    (`_korner_solve`) is the one `perfect_capacity_evaluator` runs.  It stops
    on the step test within KORNER_NEWTON_AFTER steps, with the bits of the
    fixed-point kernel alone, or else in the Newton finish, whose r has a
    Jensen gap of at most tol, so that H_kappa >= value - tol.  `iterations`
    counts fixed-point and Newton steps alike.
    """
    sets = mis_masks(pg.graph)
    member = _membership(sets, pg.n)
    p = np.array([float(x) for x in pg.dist.weights])
    r, cov, value, iterations, converged = _korner_solve(
        member, p, np.full(len(sets), 1.0 / len(sets)), tol)
    return KornerSolution(max(value, 0.0), tuple(sets), r, cov, iterations, converged)


@dataclass(frozen=True)
class CapacityValue:
    value: float


def _require_perfect(g: Graph) -> None:
    """C(G,P) = H(P) - H_kappa(G,P) holds on perfect graphs only."""
    perfect, _, _ = is_perfect(g)
    if not perfect:
        raise ZeroErrError("graph is not perfect; relative capacity formula "
                           "H(P) - H_kappa does not apply")


def relative_capacity_perfect(pg: ProbabilisticGraph, tol: float = 1e-9) -> CapacityValue:
    """Zero-error capacity relative to the vertex distribution, exact for
    perfect graphs: H(P) - Koerner entropy.  Refuses graphs that are not
    perfect.
    """
    _require_perfect(pg.graph)
    return CapacityValue(pg.dist.entropy() - korner_entropy(pg, tol).value)


# ---------------------------------------------------------------------------
# capacity-achieving distribution by mirror ascent


def perfect_capacity_evaluator(g: Graph):
    """Evaluator P -> (C(G,P), supergradient) for perfect graphs; refuses
    graphs that are not perfect.

    Supergradient component for vertex x: -log P(x) - 1/ln 2 - D(Q*(.|x)||r*),
    from the envelope theorem on the inner minimization.  With
    Q*(w|x) = r*(w) 1[x in w] / c(x) the divergence is -log2 c(x).

    The maximal independent sets and their membership matrix are built once,
    when the evaluator is made, and every evaluation runs the Koerner solve
    of `korner_entropy`: the fixed-point kernel, stopped by its step test,
    or the Newton finish, stopped by a certified gap, where the kernel
    stalls.  Each evaluation after the first starts from the
    previous evaluation's r, with its entries raised to at least 1e-100 so
    that every vertex is covered.  A warm start can still stall near a face
    of the simplex where a set the new P needs has almost no mass, so the
    warm result is kept only when the gap of `_korner_gap` certifies it
    within sqrt(CAPACITY_KORNER_TOL) bits; otherwise the evaluation is
    redone from the uniform r, as `korner_entropy` starts.

    The evaluator is therefore stateful: the same P can give results that
    differ within the Koerner tolerance depending on the earlier calls.
    Use a fresh evaluator for each optimisation that must be reproducible.

    An evaluation reads P as floats and checks that it is a distribution on
    the vertices (ValueError otherwise); it builds no `Distribution`, and
    its H(P) is the sum `Distribution.entropy` makes, term for term.
    """
    _require_perfect(g)
    member = _membership(mis_masks(g), g.n)
    uniform = np.full(len(member), 1.0 / len(member))
    gap_limit = math.sqrt(CAPACITY_KORNER_TOL)
    r = None

    def evaluate(weights):
        nonlocal r
        w = [float(x) for x in weights]
        if len(w) != g.n:
            raise ValueError("distribution length must equal vertex count")
        if min(w, default=0.0) < 0 or not abs(sum(w) - 1.0) <= WEIGHT_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        p = np.array(w)
        sol = None
        if r is not None:
            sol = _korner_solve(member, p, np.maximum(r, 1e-100), CAPACITY_KORNER_TOL)
        if sol is None or _korner_gap(member, p, sol[1]) > gap_limit:
            sol = _korner_solve(member, p, uniform, CAPACITY_KORNER_TOL)
        r, cov, kappa = sol[:3]
        value = -sum(x * math.log2(x) for x in w if x > 0) - max(kappa, 0.0)  # H(P) - H_kappa
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
    iterations: int


def capacity_achieving_distribution(g: Graph, tol: float = 1e-5,
                                    max_iter: int = 2000) -> CapacityOptimum:
    """Maximize P -> C(G,P) on the simplex by exponentiated gradient ascent,
    for perfect graphs; refuses graphs that are not perfect.

    The problem is concave, so supergradient stationarity within `tol`
    certifies global optimality of the value.
    """
    evaluator = perfect_capacity_evaluator(g)
    n = g.n
    p = np.full(n, 1.0 / n)
    best_val, best_p = -math.inf, p.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        value, grad = evaluator(p)
        if value > best_val:
            best_val, best_p = value, p.copy()
        gap = float(grad.max() - grad @ p)
        if gap <= tol:
            converged = True
            break
        step = 0.5 / math.sqrt(iterations)
        logits = np.log(np.maximum(p, 1e-300)) / LN2 + step * grad
        logits -= logits.max()
        p = np.exp2(logits)
        p /= p.sum()
    return CapacityOptimum(Distribution(tuple(float(x) for x in best_p)),
                           best_val, converged, iterations)


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
# eigenvalue bound on theta for regular graphs


@solved_once
def theta_transitive(g: Graph) -> float:
    """Lovasz's bound n (-lambda_min) / (d - lambda_min) on theta of a
    d-regular graph (Lovasz 1979, Thm 9): J - tA with t = n / (d - lambda_min)
    is feasible for the dual of theta, and the bound is its largest
    eigenvalue.  Equality holds on edge-transitive graphs.

    lambda_min comes from LAPACK's symmetric eigensolver
    (`numpy.linalg.eigvalsh`), which is backward stable to about n u ||A||_2
    with ||A||_2 = d, so it is stepped down by the allowance n d 2^-52
    before the bound is evaluated.  The bound falls as lambda rises, so the
    step errs upward.  This is a float estimate, not a proof: no check
    shows the stepped value below lambda_min.

    log2 of the result is an upper bound on the zero-error capacity.
    Refuses graphs that are not regular; above THETA_VERTEX_LIMIT vertices
    raises Undecided.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_regular():
        raise ZeroErrError("theta eigenvalue formula needs a regular graph")
    d = g.degree(0)
    if d == 0:
        return float(g.n)
    if g.n > THETA_VERTEX_LIMIT:
        raise Undecided("undecided (budget): theta eigenvalue bound limited "
                        f"to {THETA_VERTEX_LIMIT} vertices")
    lam = float(np.linalg.eigvalsh(_membership(g.rows, g.n))[0]) - g.n * d * 2.0 ** -52
    return g.n * (-lam) / (d - lam)


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
