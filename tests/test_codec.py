"""Operational zero-error codes: prefix-freeness, roundtrips, rate accounting."""

import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from zeroerr.graphs import (
    Budget,
    BudgetExceeded,
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
    SiCode,
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    huffman_code,
    partial_si_roundtrip,
    partial_si_spec_from_json_dict,
    sample_joint,
    shifted_codebook,
    si_roundtrip,
    si_simulate,
    sum_channel_roundtrip,
    sum_channels_from_json_dict,
    verify_codebook,
    words_confusable,
)
from zeroerr.rng import SplitMix64
from zeroerr.typicality import typical_set
from zeroerr.verifier import typewriter_channel

from oracles import is_prefix_free, kraft_sum, scan_decode

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


def _record_roundtrips(monkeypatch):
    """The (x, y) blocks that si_simulate hands to si_roundtrip."""
    seen, real = [], codec.si_roundtrip
    monkeypatch.setattr(codec, "si_roundtrip",
                        lambda code, x, y: seen.append((x, y)) or real(code, x, y))
    return seen


def test_si_simulate_draws_uniform_symbols_with_one_randrange(monkeypatch):
    chan, code, rows = _si_setup()
    seen = _record_roundtrips(monkeypatch)
    errors, bits = si_simulate(code, chan, Distribution.uniform(5), 40, 17)
    rng = SplitMix64(17)
    want = []
    for _ in range(40):
        x = tuple(rng.randrange(5) for _ in range(2))
        want.append((x, tuple(rows[s][rng.randrange(len(rows[s]))] for s in x)))
    assert seen == want
    assert (errors, bits) == (0, sum(len(code.encode(x)) for x, _ in want))


def test_si_simulate_draws_exactly_from_p(monkeypatch):
    # 1/2, 1/4, 1/4 scale to the integers 2, 1, 1: one randrange(4) per
    # symbol; dyadic floats are the same numbers and draw the same symbols
    chan = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    rng = SplitMix64(5)
    want = []
    for _ in range(30):
        x = (0, 0, 1, 2)[rng.randrange(4)]
        rng.randrange(1)  # the output draw of a noiseless channel
        want.append(((x,), (x,)))
    for weights in ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (0.5, 0.25, 0.25)):
        p = Distribution(weights)
        code = build_si_code(chan, p, 1, 1.0)
        seen = _record_roundtrips(monkeypatch)
        assert si_simulate(code, chan, p, 30, 5)[0] == 0
        assert seen == want


# --- partial side information --------------------------------------------------


def _partial_spec():
    support = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3)})
    chan = ChannelSpec(2, 4, support)
    joint = tuple((x, y, 0.125 if y < 2 else 0.25) for x, y in sorted(support))
    return PartialSideInfoSpec(chan, (0, 0, 1, 1), joint)


def _partial_spec_with_a_weightless_component():
    # outputs 2 and 3 map to component 1, which the joint weights never reach
    return PartialSideInfoSpec(_partial_spec().channel, (0, 0, 1, 1),
                               ((0, 0, 0.5), (1, 1, 0.5)))


def test_sample_joint_draws_exactly_from_the_joint():
    # the weights 1/8 x4 and 1/4 x2 scale to the integers 1, 1, 2, 1, 1, 2 in
    # joint order: one randrange(8) per pair, with no float cumulative table
    spec = _partial_spec()
    expanded = [(x, y) for x, y, w in spec.joint for _ in range(int(w * 8))]
    rng, replay = SplitMix64(29), SplitMix64(29)
    for _ in range(20):
        want = [expanded[replay.randrange(8)] for _ in range(6)]
        assert sample_joint(spec, 6, rng) == (tuple(x for x, _ in want),
                                              tuple(y for _, y in want))


def test_partial_si_roundtrips():
    spec = _partial_spec()
    code = build_partial_si_code(spec, 6, 0.5)
    rng = SplitMix64(13)
    for _ in range(TRIALS // 3):
        xs, ys = sample_joint(spec, 6, rng)
        a_seq = tuple(spec.g_map[y] for y in ys)
        bits = code.encode(xs, a_seq)
        assert code.decode(ys, bits) == xs


def test_partial_si_code_keeps_the_budget_it_was_made_under():
    # component codes are built at the first roundtrip, after the scope closed
    spec = _partial_spec()
    with Budget(vertices=4):
        code = build_partial_si_code(spec, 6, 0.5)
    with pytest.raises(BudgetExceeded, match="too large"):
        partial_si_roundtrip(code, 1, 7)
    assert partial_si_roundtrip(build_partial_si_code(spec, 6, 0.5), 20, 7)[0] == 0


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


def test_sum_channel_code_counts_its_messages_once(monkeypatch):
    # the codec-sum code: the message count and word space are made when the
    # code is built, so a message costs one multinomial to unrank its
    # arrangement and one to rank it back
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    ch7 = ChannelSpec(7, 7, frozenset((x, x) for x in range(7)))
    sc = build_sum_channel_code([ch3, ch7], [build_channel_code(ch3, 1, "exact"),
                                             build_channel_code(ch7, 1, "exact")], (3, 7))
    calls = []
    multinomial = codec._multinomial
    monkeypatch.setattr(codec, "_multinomial",
                        lambda counts: calls.append(counts) or multinomial(counts))
    trials = 50
    assert sum_channel_roundtrip(sc, trials, seed=5) == 0
    assert len(calls) <= 2 * trials


def test_sum_channel_encode_decode_all_messages():
    id2 = ChannelSpec(2, 2, frozenset((x, x) for x in range(2)))
    b2 = build_channel_code(id2, 1)
    sc = build_sum_channel_code([id2, id2], [b2, b2], (1, 2))
    for msg in range(sc.message_count()):
        letters = sc.encode(msg)
        outputs = tuple((a, s) for a, s in letters)  # identity channels
        assert sc.decode_outputs(outputs) == msg


def test_arrangement_rank_and_unrank_are_inverse_bijections():
    # every composition with 1 to 4 parts and total 0 to 7, zero counts
    # included: itertools.product lists the words over range(parts) in
    # lexicographic order, so each composition's group is its sorted list of
    # distinct arrangements
    for parts in range(1, 5):
        for total in range(8):
            groups = {}
            for word in itertools.product(range(parts), repeat=total):
                counts = tuple(word.count(a) for a in range(parts))
                groups.setdefault(counts, []).append(list(word))
            assert len(groups) == math.comb(total + parts - 1, parts - 1)
            for counts, arrangements in groups.items():
                assert len(arrangements) == codec._multinomial(counts)
                for rank, arrangement in enumerate(arrangements):
                    assert codec._unrank_arrangement(rank, counts) == arrangement
                    assert codec._rank_arrangement(arrangement, counts) == rank
                for rank in (len(arrangements), -1):
                    with pytest.raises(ValueError, match="rank out of range"):
                        codec._unrank_arrangement(rank, counts)


# --- malformed input ----------------------------------------------------------


def test_decoders_reject_wrong_lengths_and_out_of_range_symbols():
    _, code, _ = _si_setup()
    psi = build_partial_si_code(_partial_spec(), 2, 0.5)
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    b3 = build_channel_code(ch3, 1)
    sc = build_sum_channel_code([ch3, ch3], [b3, b3], (1, 1))
    calls = [lambda: code.decode((0,), "0110"),      # one output for two symbols
             lambda: b3.decode(ch3, (0, 0)),
             lambda: sc.decode_outputs(((5, 0), (0, 0))),
             lambda: psi.decode((7, 0), "00"),
             lambda: psi.decode((-1, 0), "00"),    # not g_map[-1]
             lambda: build_partial_si_code(
                 _partial_spec_with_a_weightless_component(), 2, 0.5).decode((2, 3), "00")]
    for call in calls:
        with pytest.raises(AmbiguityError):
            call()


def test_spec_loaders_name_a_missing_key():
    with pytest.raises(ValueError, match="malformed partial-SI spec JSON: 'g_map'"):
        partial_si_spec_from_json_dict({"channel": _partial_spec().channel.to_json_dict(),
                                        "joint": []})
    with pytest.raises(ValueError, match="malformed sum spec JSON: 'channels'"):
        sum_channels_from_json_dict({})
    with pytest.raises(ValueError, match="component index"):
        PartialSideInfoSpec(_partial_spec().channel, (0, 0, 1, -1), ())


@functools.cache
def _fuzz_codes():
    chan, si, rows = _si_setup()
    book = build_channel_code(chan, 2)
    ch3 = ChannelSpec(3, 3, frozenset((x, x) for x in range(3)))
    sc = build_sum_channel_code([ch3, chan], [build_channel_code(ch3, 1), book], (2, 1))
    psis = (build_partial_si_code(_partial_spec(), 3, 0.5),
            build_partial_si_code(_partial_spec_with_a_weightless_component(), 2, 0.5))
    return chan, rows, si, book, sc, psis


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(seed=st.integers(0, 2 ** 32), edits=st.lists(st.tuples(
    st.integers(0, 5), st.integers(0, 6), st.integers(-2, 5)), max_size=4))
def test_decoders_return_a_valid_decode_or_raise_ambiguity(seed, edits):
    # each decoder gets what its encoder sent and the channel put out, after
    # edits (target, position, value) that replace, append or drop (-2) an
    # item: wrong lengths, foreign bits and out-of-range symbols
    chan, rows, si, book, sc, psis = _fuzz_codes()
    rng = SplitMix64(seed)

    def edited(target, seq, piece):
        seq = list(seq)
        for t, pos, v in edits:
            if t == target:
                seq[pos:pos + 1] = [] if v == -2 else [piece(v)]
        return seq

    def noisy(target, word):
        return edited(target, [rows[s][rng.randrange(2)] for s in word], int)

    def bit(v):
        return "01x"[v % 3]

    x = (rng.randrange(5), rng.randrange(5))
    ys, bits = noisy(0, x), "".join(edited(1, si.encode(x), bit))
    try:
        got, pos = si.decode(ys, bits)
        assert len(ys) == len(got) == 2 and all(0 <= s < 5 for s in got)
        assert 0 < pos <= len(bits)
        assert bits[0] == "1" or all(p in chan.support for p in zip(got, ys))
    except AmbiguityError:
        pass
    ys = noisy(2, book.codewords[rng.randrange(5)])
    try:
        word = book.codewords[book.decode(chan, ys)]
        assert len(ys) == 2 and all(p in chan.support for p in zip(word, ys))
    except AmbiguityError:
        pass
    letters = edited(3, [(a, s if a == 0 else rows[s][rng.randrange(2)])
                         for a, s in sc.encode(rng.randrange(sc.message_count()))],
                     lambda v: (v % 4 - 1, v))
    try:
        sent = sc.encode(sc.decode_outputs(letters))
        assert len(sent) == len(letters)
        assert all(a == b and (s, y) in sc.channels[a].support
                   for (a, s), (b, y) in zip(sent, letters))
    except AmbiguityError:
        pass
    for psi in psis:
        xs, ys = sample_joint(psi.spec, psi.n, rng)
        bits = "".join(edited(4, psi.encode(xs, [psi.spec.g_map[y] for y in ys]), bit))
        ys = edited(5, ys, int)
        try:
            got = psi.decode(ys, bits)
            assert len(got) == len(ys) == psi.n and all(0 <= s < 2 for s in got)
        except AmbiguityError:
            pass


# --- admit-index decoders against the scan ---------------------------------------


def _outcome(call):
    try:
        return "decoded", call()
    except AmbiguityError as exc:
        return "ambiguous", str(exc)


def _scan_outcome(words, support, n, y, message):
    if len(y) != n:
        return "ambiguous", f"{len(y)} outputs for a block of {n}"
    cands = scan_decode(words, support, y)
    if len(cands) != 1:
        return "ambiguous", message.format(len(cands))
    return "decoded", cands[0]


@st.composite
def _decoder_cases(draw):
    """Random supports (empty ones included), words of length n over the
    inputs, optionally pruned to a zero-error book, outputs (noisy copies of
    the words, and free lists with out-of-range and negative symbols and
    wrong lengths) and a color per word for the SI code."""
    x_count, y_count, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    pairs = st.sampled_from([(x, y) for x in range(x_count) for y in range(y_count)])
    supports = [frozenset(draw(st.sets(pairs))) for _ in range(2)]
    words = draw(st.lists(st.tuples(*[st.integers(0, x_count - 1)] * n), max_size=8))
    checked = draw(st.booleans())
    if checked:
        g = characteristic_graph(SimpleNamespace(x_count=x_count, support=supports[0]))
        kept = []
        for w in words:
            if not any(words_confusable(g, w, k) for k in kept):
                kept.append(w)
        words = kept
    ys = []
    for _ in range(draw(st.integers(1, 6))):
        if words and draw(st.booleans()):
            w = words[draw(st.integers(0, len(words) - 1))]
            ys.append(tuple(draw(st.sampled_from(sorted(y for x, y in supports[0] if x == s)
                                                 or [y_count])) for s in w))
        else:
            ys.append(tuple(draw(st.lists(st.integers(-2, y_count + 1),
                                          min_size=max(0, n - 1), max_size=n + 1))))
    colors = draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    return x_count, supports, n, words, checked, ys, colors


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(case=_decoder_cases())
def test_admit_index_decoders_match_the_scan(case):
    # Codebook.decode and SiCode.decode on the empty book, a one-word book and
    # the whole book, each decoding every y against two supports in turn (the
    # book keeps one admit index per support), give what the scan gives: the
    # same word, or AmbiguityError with the same message
    x_count, supports, n, words, checked, ys, colors = case
    for book_words in (words[:0], words[:1], words):
        book = Codebook(n, tuple(book_words), checked)
        for support in supports + supports[:1]:
            channel = SimpleNamespace(support=support)
            for y in ys:
                assert _outcome(lambda: book.decode(channel, y)) == _scan_outcome(
                    book_words, support, n, y, "{} codeword candidates")
        members = sorted(set(book_words))
        color_of = tuple(colors[:len(members)])   # a color may be left empty
        codewords = huffman_code([1] * 4)
        si = SiCode(n, 0.5, x_count, supports[0], members, color_of, 4,
                    codewords, max(1, (x_count ** n - 1).bit_length()))
        for color, codeword in enumerate(codewords):
            cls = [m for m, c in zip(members, color_of) if c == color]
            bits = "0" + codeword
            for y in ys:
                got = _outcome(lambda: si.decode(y, bits))
                kind, want = _scan_outcome(cls, supports[0], n, y,
                                           "side-information decode found {} candidates")
                assert got == ((kind, (cls[want], len(bits))) if kind == "decoded"
                               else (kind, want))


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
