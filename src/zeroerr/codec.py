"""Operational zero-error codes and their simulation harness.

Bit strings are Python strings of '0'/'1' (packed big-endian only at the
serialization boundary).  All randomness flows through seeded SplitMix64
generators, so every simulation is reproducible.

The zero-error property of each construction is structural, not statistical:
decoders either return the unique compatible source word or raise
AmbiguityError, which for validly constructed codes cannot happen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .graphs import (
    ChannelSpec,
    DEFAULT_VERTEX_BUDGET,
    Distribution,
    Graph,
    ProbabilisticGraph,
    ZeroErrError,
    and_power_graph,
    bits_of,
    characteristic_graph,
    graph_from_edges,
)
from .combin import (
    Budget,
    DEFAULT_BUDGET,
    alpha_exact,
    chromatic_number_exact,
    dsatur_greedy,
    greedy_maximal_independent_set,
    is_independent,
)
from .rng import SplitMix64


class AmbiguityError(ZeroErrError):
    """Decoder candidate set was not a singleton: the code is invalid."""


# ---------------------------------------------------------------------------
# Huffman coding (prefix-free, deterministic tie-breaking)


def huffman_code(weights) -> list:
    """Prefix-free codeword per symbol from nonnegative weights.

    Deterministic: ties broken by insertion order.  A single symbol gets the
    1-bit codeword "0" so concatenated streams stay self-delimiting.
    """
    import heapq

    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return ["0"]
    heap = [(float(w), i, i) for i, w in enumerate(weights)]  # (weight, tiebreak, node)
    heapq.heapify(heap)
    parent = {}
    side = {}
    next_id = n
    while len(heap) > 1:
        w0, _, a = heapq.heappop(heap)
        w1, _, b = heapq.heappop(heap)
        parent[a], side[a] = next_id, "0"
        parent[b], side[b] = next_id, "1"
        heapq.heappush(heap, (w0 + w1, next_id, next_id))
        next_id += 1
    codes = []
    for i in range(n):
        bits = []
        node = i
        while node in parent:
            bits.append(side[node])
            node = parent[node]
        codes.append("".join(reversed(bits)))
    return codes


def kraft_sum(codes) -> float:
    return sum(2.0 ** -len(c) for c in codes)


def is_prefix_free(codes) -> bool:
    srt = sorted(codes)
    return all(not srt[i + 1].startswith(srt[i]) for i in range(len(srt) - 1))


class _HuffmanDecoder:
    def __init__(self, codes):
        self.table = {c: i for i, c in enumerate(codes)}
        self.max_len = max((len(c) for c in codes), default=0)

    def read(self, bits: str, pos: int):
        """Decode one codeword starting at pos; returns (symbol, new_pos)."""
        for ln in range(1, self.max_len + 1):
            sym = self.table.get(bits[pos:pos + ln])
            if sym is not None:
                return sym, pos + ln
        raise AmbiguityError("bit stream does not start with a valid codeword")


def pack_bits(bits: str) -> bytes:
    """Big-endian bit packing; the caller must track the bit count."""
    out = bytearray()
    for i in range(0, len(bits), 8):
        out.append(int(bits[i:i + 8].ljust(8, "0"), 2))
    return bytes(out)


def unpack_bits(data: bytes, bit_count: int) -> str:
    return "".join(f"{b:08b}" for b in data)[:bit_count]


# ---------------------------------------------------------------------------
# variable-length side-information code


def _int_to_bits(value: int, width: int) -> str:
    return format(value, "b").zfill(width)


@dataclass
class SiCode:
    """Typical-set coloring code for the side-information problem.

    Encoder: typical x^n -> flag 0 + Huffman codeword of its color;
    atypical x^n -> flag 1 + raw ceil(n log2 |X|)-bit index.  The decoder
    recovers x^n from y^n because confusable typical sequences never share
    a color.
    """

    n: int
    eps: float
    alphabet_size: int
    support: frozenset
    typical_members: list          # sorted sequences
    color_of: tuple                # per typical member
    color_count: int
    color_codewords: list
    escape_length: int
    _member_index: dict = field(repr=False, default_factory=dict)
    _decode_table: dict = field(repr=False, default_factory=dict)
    _huffman: _HuffmanDecoder = field(repr=False, default=None)

    def __post_init__(self):
        self._member_index = {seq: i for i, seq in enumerate(self.typical_members)}
        self._decode_table = {}
        for i, seq in enumerate(self.typical_members):
            self._decode_table.setdefault(self.color_of[i], []).append(seq)
        self._huffman = _HuffmanDecoder(self.color_codewords)

    def encode(self, x_seq) -> str:
        x_seq = tuple(x_seq)
        idx = self._member_index.get(x_seq)
        if idx is not None:
            return "0" + self.color_codewords[self.color_of[idx]]
        raw = 0
        for s in x_seq:
            raw = raw * self.alphabet_size + s
        return "1" + _int_to_bits(raw, self.escape_length)

    def decode(self, y_seq, bits: str, pos: int = 0):
        """Returns (x_seq, new_pos).  A stream that ends early or does not
        hold a codeword raises AmbiguityError."""
        y_seq = tuple(y_seq)
        flag, pos = bits[pos:pos + 1], pos + 1
        if flag not in ("0", "1"):
            raise AmbiguityError("bit stream does not start with a flag bit")
        if flag == "1":
            index_bits = bits[pos:pos + self.escape_length]
            pos += self.escape_length
            if len(index_bits) != self.escape_length or index_bits.strip("01"):
                raise AmbiguityError("truncated or malformed escape index")
            raw = int(index_bits, 2)
            if raw >= self.alphabet_size ** self.n:
                raise AmbiguityError("escape index outside the source alphabet")
            seq = [0] * self.n
            for t in range(self.n - 1, -1, -1):
                raw, seq[t] = divmod(raw, self.alphabet_size)
            return tuple(seq), pos
        color, pos = self._huffman.read(bits, pos)
        candidates = [
            x for x in self._decode_table.get(color, ())
            if all((xt, yt) in self.support for xt, yt in zip(x, y_seq))
        ]
        if len(candidates) != 1:
            raise AmbiguityError(
                f"side-information decode found {len(candidates)} candidates")
        return candidates[0], pos


def _build_si_from_graph(g: Graph, support: frozenset, p: Distribution,
                         n: int, eps: float, budget: Budget,
                         exact_coloring_limit: int = 256,
                         vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> SiCode:
    from .typicality import typical_induced_subgraph

    pg = ProbabilisticGraph(g, p)
    induced, members = typical_induced_subgraph(pg, n, eps, vertex_budget)
    if induced.n <= exact_coloring_limit:
        coloring = chromatic_number_exact(induced.graph, budget).coloring
    else:
        coloring = dsatur_greedy(induced.graph)
    masses = [0.0] * coloring.color_count
    for i in range(induced.n):
        masses[coloring.color_of[i]] += float(induced.dist[i])
    codes = huffman_code(masses)
    escape = max(1, (g.n ** n - 1).bit_length())
    return SiCode(n, eps, g.n, support, members, coloring.color_of,
                  coloring.color_count, codes, escape)


def build_si_code(channel: ChannelSpec, p: Distribution, n: int, eps: float,
                  budget: Budget = DEFAULT_BUDGET,
                  vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> SiCode:
    g = characteristic_graph(channel)
    return _build_si_from_graph(g, channel.support, p, n, eps, budget,
                                vertex_budget=vertex_budget)


def si_roundtrip(code: SiCode, x_seq, y_seq):
    """Encode, decode, verify; returns (decoded sequence, bits used)."""
    bits = code.encode(x_seq)
    decoded, pos = code.decode(y_seq, bits)
    if pos != len(bits):
        raise AmbiguityError("decoder consumed the wrong number of bits")
    if decoded != tuple(x_seq):
        raise AmbiguityError("round trip mismatch: the code is not zero-error")
    return decoded, len(bits)


# ---------------------------------------------------------------------------
# partial side information at the encoder


def _confusability_graph(x_count: int, support) -> Graph:
    """Characteristic graph over the full input alphabet from raw support
    pairs; inputs with no outputs stay as isolated vertices."""
    out_masks = [0] * x_count
    for x, y in support:
        out_masks[x] |= 1 << y
    edges = [(i, j) for i in range(x_count) for j in range(i + 1, x_count)
             if out_masks[i] & out_masks[j]]
    return graph_from_edges(x_count, edges)


@dataclass(frozen=True)
class PartialSideInfoSpec:
    """Deterministic map g: Y -> A splitting the side-information channel."""

    channel: ChannelSpec
    g_map: tuple                # per output symbol, component index
    joint: tuple                # ((x, y, weight), ...) with positive weights

    def __post_init__(self):
        if len(self.g_map) != self.channel.y_count:
            raise ValueError("g_map must be total on the output alphabet")
        for x, y, w in self.joint:
            if (x, y) not in self.channel.support:
                raise ValueError(f"joint weight on ({x},{y}) outside channel support")
            if w <= 0:
                raise ValueError("joint weights must be positive")

    @property
    def component_count(self) -> int:
        return max(self.g_map) + 1

    def component_support(self, a: int) -> frozenset:
        return frozenset((x, y) for x, y in self.channel.support if self.g_map[y] == a)

    def component_dist(self, a: int) -> Distribution:
        w = [0.0] * self.channel.x_count
        for x, y, wt in self.joint:
            if self.g_map[y] == a:
                w[x] += wt
        total = sum(w)
        if total <= 0:
            raise ValueError(f"component {a} has zero probability")
        return Distribution(tuple(v / total for v in w))

    def component_weight(self, a: int) -> float:
        total = sum(wt for _, _, wt in self.joint)
        return sum(wt for x, y, wt in self.joint if self.g_map[y] == a) / total


@dataclass
class PartialSiCode:
    """Per-component SiCodes applied to the subsequences with a_t = g(y_t),
    codewords concatenated in component order.

    Component codes are built lazily per realized subsequence length and
    cached; the decoder re-derives the split from y^n."""

    spec: PartialSideInfoSpec
    n: int
    eps: float
    budget: Budget = DEFAULT_BUDGET
    _cache: dict = field(default_factory=dict, repr=False)

    def _code_for(self, a: int, length: int) -> SiCode:
        key = (a, length)
        if key not in self._cache:
            support = self.spec.component_support(a)
            g = _confusability_graph(self.spec.channel.x_count, support)
            self._cache[key] = _build_si_from_graph(
                g, support, self.spec.component_dist(a), length, self.eps, self.budget)
        return self._cache[key]

    def encode(self, x_seq, a_seq) -> str:
        parts = []
        for a in range(self.spec.component_count):
            sub = tuple(x for x, aa in zip(x_seq, a_seq) if aa == a)
            if sub:
                parts.append(self._code_for(a, len(sub)).encode(sub))
        return "".join(parts)

    def decode(self, y_seq, bits: str):
        a_seq = tuple(self.spec.g_map[y] for y in y_seq)
        decoded_parts = {}
        pos = 0
        for a in range(self.spec.component_count):
            sub_y = tuple(y for y, aa in zip(y_seq, a_seq) if aa == a)
            if sub_y:
                decoded_parts[a], pos = self._code_for(a, len(sub_y)).decode(sub_y, bits, pos)
        if pos != len(bits):
            raise AmbiguityError("decoder consumed the wrong number of bits")
        out = []
        cursor = dict.fromkeys(decoded_parts, 0)
        for aa in a_seq:
            out.append(decoded_parts[aa][cursor[aa]])
            cursor[aa] += 1
        return tuple(out)


def build_partial_si_code(spec: PartialSideInfoSpec, n: int, eps: float,
                          budget: Budget = DEFAULT_BUDGET) -> PartialSiCode:
    return PartialSiCode(spec, n, eps, budget)


def sample_joint(spec: PartialSideInfoSpec, n: int, rng: SplitMix64):
    """Draw (x^n, y^n) i.i.d. from the joint weights."""
    total = sum(w for _, _, w in spec.joint)
    pairs = [(x, y) for x, y, _ in spec.joint]
    cum = []
    acc = 0.0
    for _, _, w in spec.joint:
        acc += w / total
        cum.append(acc)
    xs, ys = [], []
    for _ in range(n):
        u = rng.random()
        k = next(i for i, c in enumerate(cum) if u < c or i == len(cum) - 1)
        x, y = pairs[k]
        xs.append(x)
        ys.append(y)
    return tuple(xs), tuple(ys)


# ---------------------------------------------------------------------------
# channel coding


@dataclass(frozen=True)
class Codebook:
    n: int
    codewords: tuple            # tuples of input symbols
    independence_checked: bool

    def rate(self) -> float:
        return math.log2(len(self.codewords)) / self.n

    def to_json_list(self):
        return [list(c) for c in self.codewords]


def words_confusable(g: Graph, w1, w2) -> bool:
    """Adjacency of two distinct words in the AND power of g."""
    return all(a == b or g.has_edge(a, b) for a, b in zip(w1, w2))


def verify_codebook(g: Graph, book: Codebook) -> bool:
    """Pairwise independence check against the base confusability graph."""
    words = book.codewords
    return not any(
        words_confusable(g, words[i], words[j])
        for i in range(len(words)) for j in range(i + 1, len(words))
    )


def build_channel_code(channel: ChannelSpec, n: int, target: str = "exact",
                       budget: Budget = DEFAULT_BUDGET,
                       vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> Codebook:
    """Zero-error codebook: maximum (exact) or greedy-maximal independent set
    in the n-th AND power of the characteristic graph."""
    from .typicality import index_sequence

    if target not in ("exact", "greedy"):
        raise ValueError(f"unknown target '{target}'")
    g = characteristic_graph(channel)
    power = and_power_graph(g, n, vertex_budget)
    if target == "exact":
        mask = alpha_exact(power, budget).witness.vertices
    else:
        mask = greedy_maximal_independent_set(power).vertices
    if not is_independent(power, mask):
        raise ZeroErrError("codebook is not independent in the AND power")
    words = tuple(index_sequence(v, g.n, n) for v in bits_of(mask))
    return Codebook(n, words, True)


def channel_roundtrip(code: Codebook, channel: ChannelSpec, trials: int,
                      seed: int = 0) -> int:
    """Simulate transmissions decoding by unique support-compatibility.

    Returns the decoding error count: zero for independent codebooks.  For
    a checked codebook an ambiguous decode raises (it is a bug); for an
    unchecked one (test hook) ambiguity counts as an error.
    """
    if not code.codewords:
        raise ValueError("empty codebook")
    rows = {x: channel.outputs_of(x) for x in range(channel.x_count)}
    rng = SplitMix64(seed)
    errors = 0
    words = code.codewords
    for _ in range(trials):
        x = words[rng.randrange(len(words))]
        y = tuple(rows[s][rng.randrange(len(rows[s]))] for s in x)
        cands = [w for w in words
                 if all((wt, yt) in channel.support for wt, yt in zip(w, y))]
        if len(cands) != 1:
            if code.independence_checked:
                raise AmbiguityError(f"{len(cands)} candidates for a checked codebook")
            errors += 1
            continue
        if cands[0] != x:
            errors += 1
    return errors


# ---------------------------------------------------------------------------
# sum of channels: time-sharing codebook with index-pattern information


def _multinomial(counts) -> int:
    total = sum(counts)
    out = 1
    for c in counts:
        out *= math.comb(total, c)
        total -= c
    return out


def _unrank_arrangement(rank: int, counts) -> list:
    """Arrangement of the multiset {a : counts[a] copies} with given rank
    (lexicographic)."""
    counts = list(counts)
    out = []
    for _ in range(sum(counts)):
        for a in range(len(counts)):
            if counts[a] == 0:
                continue
            counts[a] -= 1
            block = _multinomial(counts)
            if rank < block:
                out.append(a)
                break
            rank -= block
            counts[a] += 1
        else:
            raise ValueError("arrangement rank out of range")
    return out


def _rank_arrangement(arrangement, counts) -> int:
    counts = list(counts)
    rank = 0
    for a_star in arrangement:
        for a in range(a_star):
            if counts[a] == 0:
                continue
            counts[a] -= 1
            rank += _multinomial(counts)
            counts[a] += 1
        counts[a_star] -= 1
    return rank


@dataclass(frozen=True)
class SumChannelCode:
    """Time-sharing code over a sum of channels.

    A message picks (i) the arrangement of per-channel blocks and (ii) one
    codeword per block.  Letters are (channel, symbol) pairs: the output
    alphabets of the summands are disjoint by construction, so the decoder
    recovers the arrangement from the outputs alone, worth log multinomial
    extra bits on top of the per-channel payloads.
    """

    channels: tuple
    books: tuple
    composition: tuple

    def __post_init__(self):
        if not (len(self.channels) == len(self.books) == len(self.composition)):
            raise ValueError("channels, books and composition must align")
        if any(c < 0 for c in self.composition) or sum(self.composition) == 0:
            raise ValueError("composition must be nonnegative and nonempty")
        for book in self.books:
            if not book.independence_checked:
                raise ValueError("per-channel books must be independence-checked")

    @property
    def block_count(self) -> int:
        return sum(self.composition)

    @property
    def letter_count(self) -> int:
        return sum(c * b.n for c, b in zip(self.composition, self.books))

    def _word_space(self) -> int:
        out = 1
        for c, b in zip(self.composition, self.books):
            out *= len(b.codewords) ** c
        return out

    def message_count(self) -> int:
        return _multinomial(self.composition) * self._word_space()

    def rate(self) -> float:
        return math.log2(self.message_count()) / self.letter_count

    def encode(self, message: int):
        """Message integer -> sequence of (channel, symbol) letters."""
        if not 0 <= message < self.message_count():
            raise ValueError("message out of range")
        arr_rank, word_rank = divmod(message, self._word_space())
        arrangement = _unrank_arrangement(arr_rank, self.composition)
        radices = [len(self.books[a].codewords) for a in arrangement]
        digits = []
        for r in reversed(radices):
            word_rank, d = divmod(word_rank, r)
            digits.append(d)
        digits.reverse()
        letters = []
        for a, d in zip(arrangement, digits):
            letters.extend((a, s) for s in self.books[a].codewords[d])
        return tuple(letters)

    def decode_outputs(self, outputs) -> int:
        """Sequence of (channel, output symbol) letters -> message integer."""
        outputs = tuple(outputs)
        arrangement, blocks = [], []
        pos = 0
        while pos < len(outputs):
            a = outputs[pos][0]
            m = self.books[a].n
            block = outputs[pos:pos + m]
            if len(block) != m or any(ch != a for ch, _ in block):
                raise AmbiguityError("output letters do not align with blocks")
            arrangement.append(a)
            blocks.append(tuple(y for _, y in block))
            pos += m
        counts = [arrangement.count(a) for a in range(len(self.channels))]
        if counts != list(self.composition):
            raise AmbiguityError("recovered arrangement has the wrong composition")
        digits = []
        for a, ys in zip(arrangement, blocks):
            chan = self.channels[a]
            cands = [i for i, w in enumerate(self.books[a].codewords)
                     if all((wt, yt) in chan.support for wt, yt in zip(w, ys))]
            if len(cands) != 1:
                raise AmbiguityError(f"{len(cands)} block candidates in channel {a}")
            digits.append(cands[0])
        word_rank = 0
        for a, d in zip(arrangement, digits):
            word_rank = word_rank * len(self.books[a].codewords) + d
        return _rank_arrangement(arrangement, self.composition) * self._word_space() + word_rank


def build_sum_channel_code(channels, books, composition) -> SumChannelCode:
    return SumChannelCode(tuple(channels), tuple(books), tuple(composition))


def sum_channel_roundtrip(code: SumChannelCode, trials: int, seed: int = 0) -> int:
    """Random messages through support-uniform channel noise; error count."""
    rng = SplitMix64(seed)
    m = code.message_count()
    rows = [{x: ch.outputs_of(x) for x in range(ch.x_count)} for ch in code.channels]
    errors = 0
    for _ in range(trials):
        msg = rng.randrange(m)
        letters = code.encode(msg)
        outputs = tuple((a, rows[a][s][rng.randrange(len(rows[a][s]))])
                        for a, s in letters)
        if code.decode_outputs(outputs) != msg:
            errors += 1
    return errors


# ---------------------------------------------------------------------------
# shifted codebooks (two-factor product alphabet)


def shifted_codebook(book: Codebook, n1: int, n2: int,
                     target_marginals=None, size_budget: int = 1 << 20) -> Codebook:
    """All cyclic first-component shifts of the codebook, concatenated across
    shifts, filtered to sequences typical for the product of marginals.

    The book is over the product alphabet [n1] x [n2] encoded as i1*n2+i2.
    Each shift preserves independence, and concatenations of independent
    sets stay independent, so the output keeps independence_checked.  The
    tolerance is the drift of the book-average marginals from the target
    product plus n^(-1/4); with default targets the drift term is zero.
    """
    if not book.independence_checked:
        raise ValueError("input book must be independence-checked")
    n = book.n
    words = book.codewords
    if len(words) ** n > size_budget:
        raise ZeroErrError("shift concatenation exceeds the size budget")

    def split(word):
        return tuple(s // n2 for s in word), tuple(s % n2 for s in word)

    q1 = [0.0] * n1
    q2 = [0.0] * n2
    for w in words:
        a, b = split(w)
        for s in a:
            q1[s] += 1.0 / (n * len(words))
        for s in b:
            q2[s] += 1.0 / (n * len(words))
    if target_marginals is None:
        p1, p2 = q1, q2
    else:
        p1 = [float(x) for x in target_marginals[0].weights]
        p2 = [float(x) for x in target_marginals[1].weights]
    drift = max(abs(q1[i] * q2[j] - p1[i] * p2[j])
                for i in range(n1) for j in range(n2))
    eps = drift + n ** -0.25

    shifted = []
    for t in range(n):
        shift_words = []
        for w in words:
            a, b = split(w)
            a = a[t:] + a[:t]
            shift_words.append(tuple(x * n2 + y for x, y in zip(a, b)))
        shifted.append(shift_words)

    def product_type_ok(parts):
        counts = {}
        for part in parts:
            for s in part:
                counts[s] = counts.get(s, 0) + 1
        total = n * n
        return all(
            abs(counts.get(i * n2 + j, 0) / total - p1[i] * p2[j]) <= eps + 1e-12
            for i in range(n1) for j in range(n2)
        )

    out = [tuple(s for part in combo for s in part)
           for combo in itertools.product(*shifted)
           if product_type_ok(combo)]
    if not out:
        raise ZeroErrError("typicality filter emptied the shifted codebook; "
                           "retry with a larger block length")
    return Codebook(n * n, tuple(out), True)
