"""SplitMix64: fixed draws, unbiased ranges of any size, and the exact
weighted and uniform draws that simulations use."""

from fractions import Fraction

from zeroerr.rng import SplitMix64, weighted_draw


def _draws(n, k=6, seed=7):
    rng = SplitMix64(seed)
    return [rng.randrange(n) for _ in range(k)]


def test_randrange_vectors_up_to_two_to_the_64():
    # one 64-bit word per attempt, as before ranges above 2^64 were allowed
    assert _draws(5) == [2, 4, 1, 3, 4, 0]
    assert _draws(2 ** 63 + 1) == [
        7191089600892374487, 309689372594955804, 8346079845500723674,
        4601199455465548305, 8632209307422871798, 6051947643683389182]
    assert _draws(2 ** 64) == [
        7191089600892374487, 309689372594955804, 16616101746815609346,
        10753165928301472203, 8346079845500723674, 4601199455465548305]
    rng = SplitMix64(7)
    assert [rng.randrange(1) for _ in range(3)] == [0, 0, 0]
    assert rng.next_u64() == 10753165928301472203  # n = 1 still spends a word


def test_randrange_above_two_to_the_64_returns():
    for n in (2 ** 64 + 1, 2 ** 128 - 1, 2 ** 128, 2 ** 200, 3 ** 100):
        draws = _draws(n, k=20)
        assert all(0 <= x < n for x in draws)
        assert len(set(draws)) == 20
    # the top word is used: values far above 2^64 show up
    assert max(_draws(2 ** 200, k=20)) > 2 ** 190


def test_equal_weights_draw_randrange_k():
    for weights in ((1, 1, 1, 1, 1), (Fraction(1, 5),) * 5, (0.2,) * 5, (7.5,) * 5):
        draw, rng = weighted_draw(weights), SplitMix64(7)
        assert [draw(rng) for _ in range(6)] == _draws(5) == [2, 4, 1, 3, 4, 0]


def test_weighted_draw_never_draws_a_zero_weight():
    # 1/2, 1/4, 0, 1/4 scale to 2, 1, 0, 1: one randrange(4) per draw
    draw, rng = weighted_draw((0.5, 0.25, 0, 0.25)), SplitMix64(9)
    assert [draw(rng) for _ in range(12)] == [(0, 0, 1, 3)[r] for r in _draws(4, 12, 9)]
    draw, rng = weighted_draw((0, Fraction(2, 3), 0)), SplitMix64(9)
    assert [draw(rng) for _ in range(5)] == [1] * 5


def test_choice_is_randrange_over_the_sequence():
    rng = SplitMix64(7)
    assert [rng.choice("abcde") for _ in range(6)] == ["c", "e", "b", "d", "e", "a"]
    assert [rng.choice((9,)) for _ in range(3)] == [9, 9, 9]
