"""Operational zero-error codes, their spec-file parsers, and the one home of
their simulation: `si_simulate`, `partial_si_roundtrip`, `channel_roundtrip`
and `sum_channel_roundtrip`, which the CLI and the verifier call.

Bit strings are Python strings of '0'/'1'.  Every draw is an exact draw of
`rng.py` on a seeded SplitMix64, so every simulation is reproducible.

The zero-error property of each construction is structural, not statistical:
decoders return the unique compatible source word or raise AmbiguityError,
which valid codes never do on what their encoders send.  Malformed input
(bad bits, wrong lengths, out-of-range symbols) raises it too.  A decoder
does not scan its words: it looks each output y_t up in a per-position admit
index, built once per word list, and ANDs the bitmasks of the words whose
letter t admits y_t.  The answer is exact: the one set bit, or the
candidate count in the AmbiguityError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .graphs import (
    Budget,
    ChannelSpec,
    Distribution,
    Graph,
    ProbabilisticGraph,
    ZeroErrError,
    and_power_graph,
    bits_of,
    channel_from_json_dict,
    characteristic_graph,
)
from .combin import (
    alpha_exact,
    chromatic_number_exact,
    dsatur_greedy,
    greedy_maximal_independent_set,
    is_independent,
)
from .rng import SplitMix64, weighted_draw
from .typicality import index_sequence, sequence_index, typical_induced_subgraph


class AmbiguityError(ZeroErrError):
    """Decoder candidate set was not a singleton: the code is invalid."""


# ---------------------------------------------------------------------------
# Huffman coding (prefix-free, deterministic tie-breaking)


def huffman_code(weights) -> list:
    """Prefix-free codeword per symbol from nonnegative weights.

    Deterministic: ties broken by insertion order.  A single symbol gets the
    1-bit codeword "0" so concatenated streams stay self-delimiting.
    """
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


# ---------------------------------------------------------------------------
# decoding by admit masks


def _admit_index(words, support, n: int) -> list:
    """Per position t < n, a dict from an output y to the bitmask of the
    words whose letter t admits y, that is (word[t], y) in support."""
    outputs = {}
    for x, y in support:
        outputs.setdefault(x, []).append(y)
    index = [{} for _ in range(n)]
    for i, word in enumerate(words):
        bit = 1 << i
        for table, x in zip(index, word):
            for y in outputs.get(x, ()):
                table[y] = table.get(y, 0) | bit
    return index


def _sole_admitted(index, word_count: int, y_seq, message: str) -> int:
    """Position of the one word whose every letter admits y_seq; any other
    candidate count raises AmbiguityError with `message` formatted on it."""
    m = (1 << word_count) - 1
    for table, y in zip(index, y_seq):
        m &= table.get(y, 0)
    if not m or m & (m - 1):
        raise AmbiguityError(message.format(m.bit_count()))
    return m.bit_length() - 1


# ---------------------------------------------------------------------------
# variable-length side-information code


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
    _member_index: dict = field(init=False, repr=False)
    _decode_table: dict = field(init=False, repr=False)  # color -> (members, admit index)
    _huffman: _HuffmanDecoder = field(init=False, repr=False)

    def __post_init__(self):
        self._member_index = {seq: i for i, seq in enumerate(self.typical_members)}
        classes = {}
        for i, seq in enumerate(self.typical_members):
            classes.setdefault(self.color_of[i], []).append(seq)
        self._decode_table = {c: (words, _admit_index(words, self.support, self.n))
                              for c, words in classes.items()}
        self._huffman = _HuffmanDecoder(self.color_codewords)

    def encode(self, x_seq) -> str:
        x_seq = tuple(x_seq)
        idx = self._member_index.get(x_seq)
        if idx is not None:
            return "0" + self.color_codewords[self.color_of[idx]]
        raw = sequence_index(x_seq, self.alphabet_size)
        return "1" + format(raw, "b").zfill(self.escape_length)

    def decode(self, y_seq, bits: str, pos: int = 0):
        """Returns (x_seq, new_pos).  Side information of the wrong length or
        a stream that ends early or holds no codeword raises AmbiguityError."""
        y_seq = tuple(y_seq)
        if len(y_seq) != self.n:
            raise AmbiguityError(f"{len(y_seq)} outputs for a block of {self.n}")
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
            return index_sequence(raw, self.alphabet_size, self.n), pos
        color, pos = self._huffman.read(bits, pos)
        words, index = self._decode_table.get(color, ((), ()))
        i = _sole_admitted(index, len(words), y_seq,
                           "side-information decode found {} candidates")
        return words[i], pos


def _build_si_from_graph(g: Graph, support: frozenset, p: Distribution,
                         n: int, eps: float) -> SiCode:
    pg = ProbabilisticGraph(g, p)
    induced, members = typical_induced_subgraph(pg, n, eps)
    if induced.n <= 256:  # the exact solver's vertex limit
        coloring = chromatic_number_exact(induced.graph).coloring
    else:
        coloring = dsatur_greedy(induced.graph)
    masses = [0.0] * coloring.color_count
    for i in range(induced.n):
        masses[coloring.color_of[i]] += float(induced.dist[i])
    codes = huffman_code(masses)
    escape = max(1, (g.n ** n - 1).bit_length())
    return SiCode(n, eps, g.n, support, members, coloring.color_of,
                  coloring.color_count, codes, escape)


def build_si_code(channel: ChannelSpec, p: Distribution, n: int, eps: float) -> SiCode:
    g = characteristic_graph(channel)
    return _build_si_from_graph(g, channel.support, p, n, eps)


def si_roundtrip(code: SiCode, x_seq, y_seq):
    """Encode, decode, verify; returns (decoded sequence, bits used)."""
    bits = code.encode(x_seq)
    decoded, pos = code.decode(y_seq, bits)
    if pos != len(bits):
        raise AmbiguityError("decoder consumed the wrong number of bits")
    if decoded != tuple(x_seq):
        raise AmbiguityError("round trip mismatch: the code is not zero-error")
    return decoded, len(bits)


def si_simulate(code: SiCode, channel: ChannelSpec, p: Distribution, trials: int, seed: int):
    """`trials` blocks through `si_roundtrip`: x^n i.i.d. from p, then each
    y_t uniform on the outputs of x_t; returns (error count, total bits).

    Each symbol is one `weighted_draw` over p's weights, so the draw is exact
    and Distribution.uniform(k) draws randrange(k)."""
    draw = weighted_draw(p.weights)
    rows = [channel.outputs_of(x) for x in range(channel.x_count)]
    rng = SplitMix64(seed)
    errors = bits_total = 0
    for _ in range(trials):
        x = tuple(draw(rng) for _ in range(code.n))
        y = tuple(rng.choice(rows[s]) for s in x)
        decoded, used = si_roundtrip(code, x, y)
        errors += decoded != x
        bits_total += used
    return errors, bits_total


# ---------------------------------------------------------------------------
# partial side information at the encoder


@dataclass(frozen=True)
class PartialSideInfoSpec:
    """Deterministic map g: Y -> A splitting the side-information channel."""

    channel: ChannelSpec
    g_map: tuple                # per output symbol, component index
    joint: tuple                # ((x, y, weight), ...) with positive weights

    def __post_init__(self):
        if len(self.g_map) != self.channel.y_count or min(self.g_map, default=0) < 0:
            raise ValueError("g_map must give each output a component index >= 0")
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

    def component_graph(self, a: int) -> Graph:
        """Characteristic graph of component a: inputs that share an output y
        with g(y) = a are confusable."""
        return characteristic_graph(
            SimpleNamespace(x_count=self.channel.x_count, support=self.component_support(a)))

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


def partial_si_spec_from_json_dict(d: dict) -> PartialSideInfoSpec:
    """{"channel": {...}, "g_map": [a per output], "joint": [[x, y, w], ...]}."""
    try:
        return PartialSideInfoSpec(
            channel_from_json_dict(d["channel"]), tuple(int(a) for a in d["g_map"]),
            tuple((int(x), int(y), float(w)) for x, y, w in d["joint"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed partial-SI spec JSON: {exc}") from exc


@dataclass
class PartialSiCode:
    """Per-component SiCodes applied to the subsequences with a_t = g(y_t),
    codewords concatenated in component order.

    Component codes are built lazily per realized subsequence length and
    cached, under the budget that was active when the code was made; the
    decoder re-derives the split from y^n."""

    spec: PartialSideInfoSpec
    n: int
    eps: float
    budget: Budget = field(default_factory=Budget.current, init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def _code_for(self, a: int, length: int) -> SiCode:
        key = (a, length)
        if key not in self._cache:
            with self.budget:
                self._cache[key] = _build_si_from_graph(
                    self.spec.component_graph(a), self.spec.component_support(a),
                    self.spec.component_dist(a), length, self.eps)
        return self._cache[key]

    def encode(self, x_seq, a_seq) -> str:
        parts = []
        for a in range(self.spec.component_count):
            sub = tuple(x for x, aa in zip(x_seq, a_seq) if aa == a)
            if sub:
                parts.append(self._code_for(a, len(sub)).encode(sub))
        return "".join(parts)

    def decode(self, y_seq, bits: str):
        y_seq = tuple(y_seq)
        if len(y_seq) != self.n or not all(0 <= y < self.spec.channel.y_count for y in y_seq):
            raise AmbiguityError(f"side information is not {self.n} channel outputs")
        a_seq = tuple(self.spec.g_map[y] for y in y_seq)
        if not set(a_seq) <= {self.spec.g_map[y] for _, y, _ in self.spec.joint}:
            raise AmbiguityError("side information falls in a component of zero weight")
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


def build_partial_si_code(spec: PartialSideInfoSpec, n: int, eps: float) -> PartialSiCode:
    return PartialSiCode(spec, n, eps)


def _joint_sampler(spec: PartialSideInfoSpec):
    """A function (n, rng) -> (x^n, y^n) drawing pairs i.i.d. from the joint
    weights, by one `weighted_draw` table."""
    draw = weighted_draw([w for _, _, w in spec.joint])

    def sample(n, rng):
        pairs = [spec.joint[draw(rng)] for _ in range(n)]
        return tuple(x for x, _, _ in pairs), tuple(y for _, y, _ in pairs)
    return sample


def sample_joint(spec: PartialSideInfoSpec, n: int, rng: SplitMix64):
    """Draw (x^n, y^n) i.i.d. from the joint weights, by `weighted_draw`."""
    return _joint_sampler(spec)(n, rng)


def partial_si_roundtrip(code: PartialSiCode, trials: int, seed: int):
    """Blocks of length code.n drawn as `sample_joint` draws them, encoded
    with a^n = g(y^n) and decoded from y^n; returns (error count, total bits)."""
    rng = SplitMix64(seed)
    spec = code.spec
    sample = _joint_sampler(spec)
    errors = 0
    bits_total = 0
    for _ in range(trials):
        xs, ys = sample(code.n, rng)
        bits = code.encode(xs, tuple(spec.g_map[y] for y in ys))
        if code.decode(ys, bits) != xs:
            errors += 1
        bits_total += len(bits)
    return errors, bits_total


# ---------------------------------------------------------------------------
# channel coding


@dataclass(frozen=True)
class Codebook:
    n: int
    codewords: tuple            # tuples of input symbols
    independence_checked: bool
    # channel support -> admit index, built by the first decode against it
    _admit: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def rate(self) -> float:
        return math.log2(len(self.codewords)) / self.n

    def to_json_list(self):
        return [list(c) for c in self.codewords]

    def decode(self, channel: ChannelSpec, y) -> int:
        """Index of the one codeword whose support admits the outputs y; a
        wrong length or a candidate count other than one raises AmbiguityError."""
        y = tuple(y)
        if len(y) != self.n:
            raise AmbiguityError(f"{len(y)} outputs for a block of {self.n}")
        index = self._admit.get(channel.support)
        if index is None:
            index = self._admit[channel.support] = _admit_index(
                self.codewords, channel.support, self.n)
        return _sole_admitted(index, len(self.codewords), y, "{} codeword candidates")


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


def build_channel_code(channel: ChannelSpec, n: int, target: str = "exact") -> Codebook:
    """Zero-error codebook: maximum (exact) or greedy-maximal independent set
    in the n-th AND power of the characteristic graph."""
    if target not in ("exact", "greedy"):
        raise ValueError(f"unknown target '{target}'")
    g = characteristic_graph(channel)
    power = and_power_graph(g, n)
    if target == "exact":
        mask = alpha_exact(power).witness.vertices
    else:
        mask = greedy_maximal_independent_set(power).vertices
    if not is_independent(power, mask):
        raise ZeroErrError("codebook is not independent in the AND power")
    words = tuple(index_sequence(v, g.n, n) for v in bits_of(mask))
    return Codebook(n, words, True)


def channel_roundtrip(code: Codebook, channel: ChannelSpec, trials: int,
                      seed: int) -> int:
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
        i = rng.randrange(len(words))
        y = tuple(rng.choice(rows[s]) for s in words[i])
        try:
            errors += code.decode(channel, y) != i
        except AmbiguityError:
            if code.independence_checked:
                raise
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


# The arrangements that start with letter a number multinomial(c - e_a)
# = multinomial(c) * c_a / sum(c), an exact integer quotient, so ranking and
# unranking step from one multinomial to the next instead of recomputing it.


def _unrank_arrangement(rank: int, counts) -> list:
    """Arrangement of the multiset {a : counts[a] copies} with given rank
    (lexicographic)."""
    counts = list(counts)
    block = _multinomial(counts)
    if not 0 <= rank < block:
        raise ValueError("arrangement rank out of range")
    out = []
    for left in range(sum(counts), 0, -1):
        for a, c in enumerate(counts):
            sub = block * c // left
            if rank < sub:
                break
            rank -= sub
        out.append(a)
        counts[a] -= 1
        block = sub
    return out


def _rank_arrangement(arrangement, counts) -> int:
    counts = list(counts)
    total = sum(counts)
    block = _multinomial(counts)
    rank = 0
    for a_star in arrangement:
        rank += block * sum(counts[:a_star]) // total
        block = block * counts[a_star] // total
        counts[a_star] -= 1
        total -= 1
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
    # codeword choices of one arrangement and the message count, made once
    _word_space: int = field(init=False, compare=False, repr=False)
    _message_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (len(self.channels) == len(self.books) == len(self.composition)):
            raise ValueError("channels, books and composition must align")
        if any(c < 0 for c in self.composition) or sum(self.composition) == 0:
            raise ValueError("composition must be nonnegative and nonempty")
        for book in self.books:
            if not book.independence_checked:
                raise ValueError("per-channel books must be independence-checked")
        words = 1
        for c, b in zip(self.composition, self.books):
            words *= len(b.codewords) ** c
        object.__setattr__(self, "_word_space", words)
        object.__setattr__(self, "_message_count", _multinomial(self.composition) * words)

    @property
    def letter_count(self) -> int:
        return sum(c * b.n for c, b in zip(self.composition, self.books))

    def message_count(self) -> int:
        return self._message_count

    def rate(self) -> float:
        return math.log2(self.message_count()) / self.letter_count

    def encode(self, message: int):
        """Message integer -> sequence of (channel, symbol) letters."""
        if not 0 <= message < self._message_count:
            raise ValueError("message out of range")
        arr_rank, word_rank = divmod(message, self._word_space)
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
        arrangement, digits = [], []
        pos = 0
        while pos < len(outputs):
            a = outputs[pos][0]
            if not 0 <= a < len(self.channels):
                raise AmbiguityError(f"output letter names channel {a}")
            m = self.books[a].n
            block = outputs[pos:pos + m]
            if len(block) != m or any(ch != a for ch, _ in block):
                raise AmbiguityError("output letters do not align with blocks")
            arrangement.append(a)
            digits.append(self.books[a].decode(self.channels[a], (y for _, y in block)))
            pos += m
        counts = [arrangement.count(a) for a in range(len(self.channels))]
        if counts != list(self.composition):
            raise AmbiguityError("recovered arrangement has the wrong composition")
        word_rank = 0
        for a, d in zip(arrangement, digits):
            word_rank = word_rank * len(self.books[a].codewords) + d
        return _rank_arrangement(arrangement, self.composition) * self._word_space + word_rank


def build_sum_channel_code(channels, books, composition) -> SumChannelCode:
    return SumChannelCode(tuple(channels), tuple(books), tuple(composition))


def sum_channels_from_json_dict(d: dict) -> tuple:
    """The summands of a sum spec: {"channels": [{...}, ...]}."""
    try:
        return tuple(channel_from_json_dict(c) for c in d["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sum spec JSON: {exc}") from exc


def sum_channel_roundtrip(code: SumChannelCode, trials: int, seed: int) -> int:
    """Random messages through support-uniform channel noise; error count."""
    rng = SplitMix64(seed)
    m = code.message_count()
    rows = [{x: ch.outputs_of(x) for x in range(ch.x_count)} for ch in code.channels]
    errors = 0
    for _ in range(trials):
        msg = rng.randrange(m)
        letters = code.encode(msg)
        outputs = tuple((a, rng.choice(rows[a][s])) for a, s in letters)
        if code.decode_outputs(outputs) != msg:
            errors += 1
    return errors


# ---------------------------------------------------------------------------
# shifted codebooks (two-factor product alphabet)


def shifted_codebook(book: Codebook, n1: int, n2: int) -> Codebook:
    """All cyclic first-component shifts of the codebook, concatenated across
    shifts, filtered to sequences typical for the product of the book-average
    marginals.

    The book is over the product alphabet [n1] x [n2] encoded as i1*n2+i2.
    Each shift preserves independence, and concatenations of independent
    sets stay independent, so the output keeps independence_checked.  The
    typicality tolerance is n^(-1/4).
    """
    if not book.independence_checked:
        raise ValueError("input book must be independence-checked")
    n = book.n
    words = book.codewords
    if len(words) ** n > 1 << 20:
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
    eps = n ** -0.25

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
            abs(counts.get(i * n2 + j, 0) / total - q1[i] * q2[j]) <= eps + 1e-12
            for i in range(n1) for j in range(n2)
        )

    out = [tuple(s for part in combo for s in part)
           for combo in itertools.product(*shifted)
           if product_type_ok(combo)]
    if not out:
        raise ZeroErrError("typicality filter emptied the shifted codebook; "
                           "retry with a larger block length")
    return Codebook(n * n, tuple(out), True)
