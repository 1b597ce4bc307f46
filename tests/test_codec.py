"""Operational zero-error codes: prefix-freeness, roundtrips, rate accounting."""

import math

import pytest

from zeroerr.graphs import (
    ChannelSpec,
    Distribution,
    and_product_graph,
    characteristic_graph,
    cycle,
    graph_from_edges,
    ZeroErrError,
)
from zeroerr import codec
from zeroerr.codec import (
    AmbiguityError,
    Codebook,
    PartialSideInfoSpec,
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    huffman_code,
    is_prefix_free,
    kraft_sum,
    pack_bits,
    sample_joint,
    shifted_codebook,
    si_roundtrip,
    sum_channel_roundtrip,
    unpack_bits,
    verify_codebook,
    words_confusable,
)
from zeroerr.rng import SplitMix64
from zeroerr.typicality import typical_set
from zeroerr.verifier import typewriter_channel

TRIALS = 3000


# --- Huffman -----------------------------------------------------------------


def test_huffman_basic_properties():
    rng = SplitMix64(3)
    for _ in range(10):
        n = 1 + rng.randrange(8)
        w = [rng.random() + 0.01 for _ in range(n)]
        total = sum(w)
        w = [x / total for x in w]
        codes = huffman_code(w)
        assert is_prefix_free(codes)
        if n == 1:
            assert codes == ["0"]
            continue
        assert kraft_sum(codes) == pytest.approx(1.0)  # full tree
        avg = sum(wi * len(c) for wi, c in zip(w, codes))
        h = -sum(wi * math.log2(wi) for wi in w if wi > 0)
        assert h - 1e-9 <= avg < h + 1.0


def test_huffman_deterministic():
    w = [0.25, 0.25, 0.25, 0.25]
    assert huffman_code(w) == huffman_code(list(w))


def test_bit_packing_roundtrip():
    rng = SplitMix64(5)
    for _ in range(10):
        bits = "".join("01"[rng.randrange(2)] for _ in range(rng.randrange(40)))
        assert unpack_bits(pack_bits(bits), len(bits)) == bits


# --- side information codec ---------------------------------------------------


def _si_setup(n=2, eps=0.3):
    chan = typewriter_channel(5)
    code = build_si_code(chan, Distribution.uniform(5), n, eps)
    rows = {x: chan.outputs_of(x) for x in range(5)}
    return chan, code, rows


def test_si_code_structure():
    _, code, _ = _si_setup()
    assert len(code.typical_members) == 20  # distinct-symbol pairs
    assert is_prefix_free(code.color_codewords)
    assert kraft_sum(code.color_codewords) <= 1.0 + 1e-12
    assert code.escape_length == 5  # ceil(2 log2 5)


def test_si_roundtrips_and_rate_budget():
    chan, code, rows = _si_setup()
    rng = SplitMix64(7)
    bits_total = 0
    for _ in range(TRIALS):
        x = tuple(rng.randrange(5) for _ in range(2))
        y = tuple(rows[s][rng.randrange(len(rows[s]))] for s in x)
        decoded, used = si_roundtrip(code, x, y)
        assert decoded == x
        bits_total += used
    rate = bits_total / (2 * TRIALS)
    p_typ = typical_set(Distribution.uniform(5), 2, 0.3).probability()
    # Eq.-style budget with the extra Huffman bit
    masses = [0.0] * code.color_count
    for seq, c in zip(code.typical_members, code.color_of):
        masses[c] += 1 / 25
    total = sum(masses)
    h_col = -sum(m / total * math.log2(m / total) for m in masses if m)
    budget = 0.5 + (1 - p_typ) * math.log2(5) + (h_col + 1) / 2
    assert rate <= budget + 0.05


def test_si_full_support_is_huffman_on_x():
    # complete characteristic graph at n=1, eps>=1: one color per letter,
    # so the payload is a Huffman code for P with mean length in [H, H+1)
    full = ChannelSpec(4, 2, frozenset((x, y) for x in range(4) for y in range(2)))
    p = Distribution((0.4, 0.3, 0.2, 0.1))
    code = build_si_code(full, p, 1, 1.0)
    assert code.color_count == 4
    mean = sum(float(p[x]) * len(code.color_codewords[code.color_of[x]])
               for x in range(4))
    assert p.entropy() - 1e-9 <= mean < p.entropy() + 1.0


def test_si_identity_channel_single_color():
    ident = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    code = build_si_code(ident, Distribution.uniform(3), 2, 1.0)
    assert code.color_count == 1
    assert code.color_codewords == ["0"]
    rng = SplitMix64(9)
    for _ in range(200):
        x = tuple(rng.randrange(3) for _ in range(2))
        decoded, used = si_roundtrip(code, x, x)
        assert decoded == x and used == 2  # flag + 1-bit color


def test_si_escape_path():
    chan, code, _ = _si_setup(2, 0.3)
    # a repeated-symbol word is atypical at eps=0.3 and takes the raw escape
    bits = code.encode((2, 2))
    assert bits[0] == "1" and len(bits) == 1 + code.escape_length
    decoded, pos = code.decode((2, 3), bits)
    assert decoded == (2, 2) and pos == len(bits)


def test_si_malformed_streams_raise_ambiguity():
    _, code, _ = _si_setup(2, 0.3)
    # empty stream, truncated escape, escape cut after one index bit, an
    # escape index past 5**2 - 1, and a non-bit flag
    for bits in ("", "1", "10", "1" + "1" * code.escape_length, "x0"):
        with pytest.raises(AmbiguityError):
            code.decode((2, 3), bits)
    # a stream that ends inside a color codeword
    assert max(map(len, code.color_codewords)) > 1
    with pytest.raises(AmbiguityError):
        code.decode((2, 3), "0")


def test_si_stream_self_synchronizing():
    chan, code, rows = _si_setup()
    rng = SplitMix64(11)
    words, ys = [], []
    stream = ""
    for _ in range(50):
        x = tuple(rng.randrange(5) for _ in range(2))
        y = tuple(rows[s][rng.randrange(len(rows[s]))] for s in x)
        words.append(x)
        ys.append(y)
        stream += code.encode(x)
    pos = 0
    for x, y in zip(words, ys):
        decoded, pos = code.decode(y, stream, pos)
        assert decoded == x
    assert pos == len(stream)


# --- partial side information --------------------------------------------------


def _partial_spec():
    support = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3)})
    chan = ChannelSpec(2, 4, support)
    joint = tuple((x, y, 0.125 if y < 2 else 0.25) for x, y in sorted(support))
    return PartialSideInfoSpec(chan, (0, 0, 1, 1), joint)


def test_partial_si_roundtrips():
    spec = _partial_spec()
    code = build_partial_si_code(spec, 6, 0.5)
    rng = SplitMix64(13)
    for _ in range(TRIALS // 3):
        xs, ys = sample_joint(spec, 6, rng)
        a_seq = tuple(spec.g_map[y] for y in ys)
        bits = code.encode(xs, a_seq)
        assert code.decode(ys, bits) == xs


def test_partial_si_single_component_matches_si():
    # |A| = 1 reduces to the plain side-information code
    chan = typewriter_channel(5)
    joint = tuple((x, y, 0.1) for x, y in sorted(chan.support))
    spec = PartialSideInfoSpec(chan, (0,) * 5, joint)
    code = build_partial_si_code(spec, 2, 0.3)
    plain = build_si_code(chan, Distribution.uniform(5), 2, 0.3)
    rng = SplitMix64(17)
    rows = {x: chan.outputs_of(x) for x in range(5)}
    for _ in range(300):
        x = tuple(rng.randrange(5) for _ in range(2))
        y = tuple(rows[s][rng.randrange(len(rows[s]))] for s in x)
        a_seq = tuple(spec.g_map[yy] for yy in y)
        assert code.encode(x, a_seq) == plain.encode(x)
        assert code.decode(y, code.encode(x, a_seq)) == x


def test_partial_si_two_identity_channels_low_rate():
    # both components clean: one color each, rate collapses to the framing bits
    support = frozenset({(0, 0), (1, 1), (0, 2), (1, 3)})
    chan = ChannelSpec(2, 4, support)
    joint = tuple((x, y, 0.25) for x, y in sorted(support))
    spec = PartialSideInfoSpec(chan, (0, 0, 1, 1), joint)
    code = build_partial_si_code(spec, 8, 0.5)
    rng = SplitMix64(19)
    bits_total = 0
    trials = 300
    for _ in range(trials):
        xs, ys = sample_joint(spec, 8, rng)
        a_seq = tuple(spec.g_map[y] for y in ys)
        bits = code.encode(xs, a_seq)
        assert code.decode(ys, bits) == xs
        bits_total += len(bits)
    assert bits_total / (8 * trials) <= 0.6  # ~2 blocks x (flag+color) / 8


# --- channel coding -------------------------------------------------------------


def test_channel_code_examples():
    chan = typewriter_channel(5)
    book = build_channel_code(chan, 2, "exact")
    assert len(book.codewords) == 5
    assert book.rate() == pytest.approx(0.5 * math.log2(5))
    assert verify_codebook(characteristic_graph(chan), book)
    k3 = ChannelSpec(3, 3, frozenset((x, y) for x in range(3) for y in range(3)))
    assert len(build_channel_code(k3, 2, "exact").codewords) == 1
    ident = ChannelSpec(4, 4, frozenset((x, x) for x in range(4)))
    assert len(build_channel_code(ident, 1, "exact").codewords) == 4


def test_channel_code_checks_independence_with_typed_error(monkeypatch):
    # the codebook check survives python -O
    monkeypatch.setattr(codec, "is_independent", lambda g, mask: False)
    with pytest.raises(ZeroErrError, match="not independent"):
        build_channel_code(typewriter_channel(5), 2, "greedy")


def test_channel_greedy_mode():
    chan = typewriter_channel(5)
    book = build_channel_code(chan, 2, "greedy")
    assert book.independence_checked
    assert 1 <= len(book.codewords) <= 5
    assert channel_roundtrip(book, chan, 500, seed=3) == 0


def test_channel_roundtrip_zero_errors():
    chan = typewriter_channel(5)
    book = build_channel_code(chan, 2, "exact")
    assert channel_roundtrip(book, chan, TRIALS, seed=23) == 0


def test_corrupted_book_reports_ambiguity():
    chan = typewriter_channel(5)
    bad = Codebook(1, ((0,), (1,)), False)      # confusable pair, unchecked
    assert channel_roundtrip(bad, chan, 200, seed=29) > 0
    checked_bad = Codebook(1, ((0,), (1,)), True)
    with pytest.raises(AmbiguityError):
        channel_roundtrip(checked_bad, chan, 200, seed=29)


# --- sum of channels -------------------------------------------------------------


def test_sum_channel_rate_examples():
    id1 = ChannelSpec(1, 1, frozenset({(0, 0)}))
    b1 = build_channel_code(id1, 1)
    sc = build_sum_channel_code([id1, id1], [b1, b1], (2, 2))
    assert sc.rate() == pytest.approx(math.log2(6) / 4)
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    b3 = build_channel_code(ch3, 1)
    single = build_sum_channel_code([ch3], [b3], (4,))
    assert single.rate() == pytest.approx(math.log2(3))


def test_sum_channel_direct_count_and_convergence():
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    ch7 = ChannelSpec(7, 7, frozenset((x, x) for x in range(7)))
    b3, b7 = build_channel_code(ch3, 1), build_channel_code(ch7, 1)
    sc = build_sum_channel_code([ch3, ch7], [b3, b7], (3, 7))
    assert sc.message_count() == math.comb(10, 3) * 3 ** 3 * 7 ** 7
    lower = 0.3 * math.log2(3) + 0.7 * math.log2(7)
    assert lower <= sc.rate() <= math.log2(10)
    # larger blocks close in on log2(10) = log2(3 + 7)
    sc2 = build_sum_channel_code([ch3, ch7], [b3, b7], (30, 70))
    assert sc.rate() < sc2.rate() <= math.log2(10)


def test_sum_channel_roundtrips():
    ch2 = ChannelSpec(2, 2, frozenset((x, x) for x in range(2)))
    noisy = typewriter_channel(5)
    books = [build_channel_code(ch2, 1), build_channel_code(noisy, 2)]
    sc = build_sum_channel_code([ch2, noisy], books, (3, 2))
    assert sum_channel_roundtrip(sc, TRIALS // 3, seed=31) == 0


def test_sum_channel_encode_decode_all_messages():
    id2 = ChannelSpec(2, 2, frozenset((x, x) for x in range(2)))
    b2 = build_channel_code(id2, 1)
    sc = build_sum_channel_code([id2, id2], [b2, b2], (1, 2))
    for msg in range(sc.message_count()):
        letters = sc.encode(msg)
        outputs = tuple((a, s) for a, s in letters)  # identity channels
        assert sc.decode_outputs(outputs) == msg


# --- shifted codebooks ------------------------------------------------------------


def test_shifted_codebook_diagonal():
    c5 = cycle(5)
    prod = and_product_graph(c5, c5)
    words = []
    for i in range(5):
        v1 = i * 5 + (2 * i) % 5
        v2 = ((i + 1) % 5) * 5 + (2 * i + 2) % 5
        words.append((v1, v2))
    book = Codebook(2, tuple(words), True)
    assert verify_codebook(prod, book)
    sh = shifted_codebook(book, 5, 5)
    assert sh.n == 4
    assert len(sh.codewords) >= 1
    assert verify_codebook(prod, sh)


def test_shifted_codebook_filters_to_marginal_product():
    # correlated two-letter book over [2] x [2]: first == second component
    g = graph_from_edges(4, [])  # empty base graph: everything independent
    book = Codebook(2, ((0, 3), (3, 0)), True)  # symbols 0=(0,0), 3=(1,1)
    sh = shifted_codebook(book, 2, 2)
    # every surviving word's type must be near the product of marginals
    n1 = n2 = 2
    for w in sh.codewords:
        counts = {}
        for s in w:
            counts[s] = counts.get(s, 0) + 1
        t00 = counts.get(0, 0) / len(w)
        assert abs(t00 - 0.25) <= (2 ** -0.25) + 1e-9
    assert words_confusable(g, (0, 0), (0, 0))  # equal words always confusable


def test_shifted_codebook_requires_checked():
    with pytest.raises(ValueError, match="independence-checked"):
        shifted_codebook(Codebook(2, ((0, 0),), False), 2, 2)
