"""Method-of-types machinery: sequence types, typical sets, typical induced
subgraphs and the flagged alpha estimate on them, type splitting, and the
finite evaluation of the union-entropy function eta on rational weightings.

Typicality is the infinity norm on types: x^n is eps-typical for P iff
max_a |T(a) - P(a)| <= eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (
    BudgetExceeded,
    Distribution,
    ProbabilisticGraph,
    and_power,
    and_product,
    induced_subgraph,
)
from .combin import alpha_exact
from .bounds import KORNER_TOL, hbar_bounds, scale_interval
from .rng import SplitMix64, weighted_draw

ENUM_LIMIT = 1 << 24  # most typical sequences `members` materializes
TYPE_SPLIT_TOL = 1e-9  # largest mismatch `type_split` allows per symbol


@dataclass(frozen=True)
class SequenceType:
    """Empirical symbol counts of a length-n sequence."""

    counts: tuple
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("type needs a positive length")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")

    def as_distribution(self) -> Distribution:
        return Distribution(tuple(Fraction(c, self.n) for c in self.counts))

    def linf_distance(self, p: Distribution) -> float:
        return max(abs(c / self.n - float(w)) for c, w in zip(self.counts, p.weights))


def type_of(seq, alphabet_size: int) -> SequenceType:
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty sequence has no type")
    counts = [0] * alphabet_size
    for s in seq:
        if not 0 <= s < alphabet_size:
            raise ValueError(f"symbol {s} outside alphabet")
        counts[s] += 1
    return SequenceType(tuple(counts), len(seq))


def _compositions(total: int, parts: int):
    """All count vectors of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multiset_sequences(counts):
    """All distinct sequences with the given symbol counts, lexicographic."""
    n = sum(counts)
    counts = list(counts)

    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for a, c in enumerate(counts):
            if c:
                counts[a] -= 1
                prefix.append(a)
                yield from rec(prefix)
                prefix.pop()
                counts[a] += 1

    try:
        yield from rec([])
    finally:
        del rec  # rec reaches itself through its closure


@dataclass(frozen=True)
class TypicalSet:
    """Lazily enumerable eps-typical set for (P, n)."""

    base: Distribution
    n: int
    eps: float

    @property
    def alphabet_size(self) -> int:
        return len(self.base)

    def contains(self, seq) -> bool:
        t = type_of(seq, self.alphabet_size)
        return t.linf_distance(self.base) <= self.eps + 1e-12

    def _valid_types(self):
        k = self.alphabet_size
        for counts in _compositions(self.n, k):
            t = SequenceType(counts, self.n)
            if t.linf_distance(self.base) <= self.eps + 1e-12:
                yield counts

    def cardinality(self) -> int:
        total = 0
        for counts in self._valid_types():
            total += math.factorial(self.n) // math.prod(math.factorial(c) for c in counts)
        return total

    def members(self):
        """Materialize all members, sorted lexicographically."""
        if self.cardinality() > ENUM_LIMIT:
            raise BudgetExceeded("typical set too large to enumerate eagerly")
        out = []
        for counts in self._valid_types():
            out.extend(_multiset_sequences(counts))
        out.sort()
        return out

    def probability(self) -> float:
        """P^{(x)n} mass of the typical set."""
        logw = [math.log(float(w)) if w > 0 else -math.inf for w in self.base.weights]
        total = 0.0
        for counts in self._valid_types():
            if any(c > 0 and logw[a] == -math.inf for a, c in enumerate(counts)):
                continue
            logmult = (math.lgamma(self.n + 1)
                       - sum(math.lgamma(c + 1) for c in counts)
                       + sum(c * logw[a] for a, c in enumerate(counts) if c))
            total += math.exp(logmult)
        return min(total, 1.0)


def typical_set(p: Distribution, n: int, eps: float) -> TypicalSet:
    if n <= 0:
        raise ValueError("block length must be positive")
    if eps < 0:
        raise ValueError("tolerance must be nonnegative")
    return TypicalSet(p, n, eps)


def sequence_index(seq, alphabet_size: int) -> int:
    """Lexicographic index of a sequence in the n-th power alphabet; matches
    the and_power vertex indexing."""
    idx = 0
    for s in seq:
        idx = idx * alphabet_size + s
    return idx


def index_sequence(idx: int, alphabet_size: int, n: int):
    out = [0] * n
    for t in range(n - 1, -1, -1):
        idx, out[t] = divmod(idx, alphabet_size)
    return tuple(out)


def typical_induced_subgraph(pg: ProbabilisticGraph, n: int, eps: float):
    """Power graph induced on the typical set, distribution renormalized.

    Returns (induced probabilistic graph, list of member sequences).
    """
    ts = typical_set(pg.dist, n, eps)
    members = ts.members()
    if not members:
        raise ValueError(f"typical set is empty at n={n}, eps={eps}")
    power = and_power(pg, n)
    keep = [sequence_index(seq, pg.n) for seq in members]
    return induced_subgraph(power, keep), members


@dataclass(frozen=True)
class Estimate:
    value: float
    certified: bool
    note: str
    details: dict = field(default_factory=dict)


def typical_alpha_estimate(pg: ProbabilisticGraph, n: int, eps: float) -> Estimate:
    """(1/n) log alpha(G^n[typical set]): an estimate of C(G,P).

    The double limit in the definition of C(G,P) prevents a one-sided
    finite-(n, eps) certificate, so this value is explicitly non-certified.
    """
    sub, members = typical_induced_subgraph(pg, n, eps)
    a = alpha_exact(sub.graph)
    return Estimate(math.log2(a.size) / n, False,
                    "non-certified estimate of C(G,P)",
                    {"n": n, "eps": eps, "alpha": a.size,
                     "typical_count": len(members), "alpha_exact": a.exact})


# ---------------------------------------------------------------------------
# type splitting


@dataclass(frozen=True)
class TypeSplit:
    mask: tuple       # 0 -> first subsequence, 1 -> second
    sub1: tuple
    sub2: tuple
    type1: SequenceType | None
    type2: SequenceType | None
    exact: bool


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**9)


def type_split(seq, beta, p1: Distribution, p2: Distribution,
               seed: int = 0) -> TypeSplit:
    """Split a sequence into subsequences of prescribed types.

    Requires T_seq = beta*p1 + (1-beta)*p2 (within TYPE_SPLIT_TOL).  When beta*n*p1(a)
    is integral for every symbol, a deterministic greedy assignment achieves
    the target types exactly (first occurrences go to the first part).
    Otherwise each position is assigned to part one with the exact
    probability beta*n*p1(a) / (n*T(a)), capped at 1, by one `weighted_draw`
    on a seeded generator, and the achieved types are reported with
    exact=False.
    """
    seq = tuple(seq)
    k = len(p1)
    if len(p2) != k:
        raise ValueError("component distributions must share an alphabet")
    t = type_of(seq, k)
    n = t.n
    for a in range(k):
        mix = float(beta) * float(p1[a]) + (1.0 - float(beta)) * float(p2[a])
        if abs(t.counts[a] / n - mix) > TYPE_SPLIT_TOL:
            raise ValueError(f"sequence type does not match beta*p1+(1-beta)*p2 at symbol {a}")

    fb = _as_fraction(beta)
    quotas = [fb * n * _as_fraction(p1[a]) for a in range(k)]
    exact = all(q.denominator == 1 for q in quotas)

    if exact:
        mask, taken = [], [0] * k
        for s in seq:
            if taken[s] < quotas[s]:
                mask.append(0)
                taken[s] += 1
            else:
                mask.append(1)
    else:
        rng = SplitMix64(seed)
        probs = {a: min(quotas[a] / t.counts[a], 1) for a in set(seq)}
        draws = {a: weighted_draw((q, 1 - q)) for a, q in probs.items()}
        mask = [draws[s](rng) for s in seq]

    sub1 = tuple(s for s, b in zip(seq, mask) if b == 0)
    sub2 = tuple(s for s, b in zip(seq, mask) if b == 1)
    t1 = type_of(sub1, k) if sub1 else None
    t2 = type_of(sub2, k) if sub2 else None
    return TypeSplit(tuple(mask), sub1, sub2, t1, t2, exact)


# ---------------------------------------------------------------------------
# eta: union entropy through the product-of-powers identity


def eta_bounds(parts, p_a, max_n: int = 1, korner_tol: float = KORNER_TOL):
    """Certified interval for eta(P_A) = Hbar of the P_A-weighted disjoint
    union, evaluated as (1/k) * hbar interval of the product of k*P_A(a)-th
    powers; P_A must be a type with denominator k.

    Returns (interval, product graph, k).
    """
    parts = list(parts)
    raw = p_a.weights if isinstance(p_a, Distribution) else tuple(p_a)
    if not all(isinstance(w, (Fraction, int)) for w in raw):
        raise ValueError("P_A must be rational (pass Fraction weights)")
    weights = [Fraction(w) for w in raw]
    if len(weights) != len(parts):
        raise ValueError("P_A length must match the number of parts")
    if sum(weights) != 1:
        raise ValueError("P_A must be an exact rational distribution")
    k = math.lcm(*(w.denominator for w in weights))
    product = None
    for pg, w in zip(parts, weights):
        reps = int(w * k)
        if reps == 0:
            continue
        block = and_power(pg, reps)
        product = block if product is None else and_product(product, block)
    if product is None:
        raise ValueError("P_A has empty support")
    inner = hbar_bounds(product, max_n=max_n, korner_tol=korner_tol)
    return scale_interval(inner, 1.0 / k, f"eta_scaled(k={k})"), product, k
