"""The standard-library stream against numpy's default_rng(SeedSequence(...)),
whose draws every seeded golden was recorded with."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspack.regions import region_count, sample_interior
from toruspack.stream import Stream


def _numpy(*entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


@settings(max_examples=60, deadline=None)
@given(entropy=st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=6),
       lo=st.floats(-1e3, 1e3), width=st.floats(0, 1e3))
def test_draws_match_numpy(entropy, lo, width):
    # more than 4 words reach the pool's second mixing loop: 6 ints of up
    # to 3 words each give up to 18
    ours, theirs, hi = Stream(*entropy), _numpy(*entropy), lo + width
    assert [ours.random() for _ in range(64)] == theirs.random(64).tolist()
    assert [ours.uniform(lo, hi) for _ in range(16)] == [float(theirs.uniform(lo, hi)) for _ in range(16)]


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_realization_starts_match_numpy(seed):
    # (seed, 0xE): 240 starts of 2 nv + 1 = 9 doubles each at n = 4
    assert Stream(seed, 0xE).randoms(240 * 9) == _numpy(seed, 0xE).random((240, 9)).ravel().tolist()


@pytest.mark.parametrize("seed", [0, 7])
def test_oracle_starts_match_numpy(seed):
    # (seed, r): one stream of 2 n doubles per restart
    for r in range(200):
        assert Stream(seed, r).randoms(8) == _numpy(seed, r).random((4, 2)).ravel().tolist()


@pytest.mark.parametrize("entropy", [(0, 3, 0xC), (0, 4, 0xC), (5, 4, 0xC), (0, 3), (0, 4), (11, 2)])
def test_sampled_tori_match_numpy(entropy):
    # (seed, n, 0xC) for the pipeline's oracle table, (seed, n) for verify
    n = entropy[1]
    ours, theirs = Stream(*entropy), _numpy(*entropy)
    for index in list(range(1, region_count(n) + 1)) * 5:
        assert sample_interior(n, index, ours) == sample_interior(n, index, theirs)


def test_negative_entropy_is_refused():
    for entropy in ((-1,), (0, -1), (3, 4, -2**40)):
        with pytest.raises(ValueError):
            _numpy(*entropy)
        with pytest.raises(ValueError, match="non-negative"):
            Stream(*entropy)
