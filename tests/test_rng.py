"""SplitMix64: fixed draws and unbiased ranges of any size."""

from zeroerr.rng import SplitMix64


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
