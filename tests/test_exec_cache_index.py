"""The result cache's eviction index: a put costs no directory walk
beyond the one scan that builds the index and the resync once every
``capacity`` puts, and that resync picks up entries other writers
added.  Eviction order and the capacity floor are covered by
``test_exec_cache_properties.py``."""

import os

import pytest

from repro.exec import ResultCache, job_key


def _key(i):
    return job_key("t", {"i": i}, salt="s")


def _put(cache, i):
    cache.put(_key(i), "t", {"i": i})


@pytest.fixture
def walks(monkeypatch):
    """Every full directory walk (``os.walk`` call) made from here on."""
    calls = []
    real = os.walk

    def counting(top, *args, **kwargs):
        calls.append(top)
        return real(top, *args, **kwargs)

    monkeypatch.setattr(os, "walk", counting)
    return calls


class TestWalkBudget:
    def test_puts_below_capacity_walk_only_to_build_the_index(self, tmp_path, walks):
        cache = ResultCache(str(tmp_path / "cache"), capacity=16)
        _put(cache, 0)
        assert len(walks) == 1  # first use: the scan that builds the index
        for i in range(1, 16):
            _put(cache, i)
        assert len(walks) == 1
        assert cache.stats.evictions == 0

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_walks_at_capacity_stay_amortised(self, tmp_path, walks, capacity):
        cache = ResultCache(str(tmp_path / "cache"), capacity=capacity)
        puts = 40
        for i in range(puts):
            _put(cache, i)
        assert len(walks) <= puts / capacity + 1
        assert cache.stats.evictions == puts - capacity
        del walks[:]
        assert len(cache) == capacity


class TestResync:
    def test_entry_from_another_cache_is_counted_after_the_resync(self, tmp_path):
        root = str(tmp_path / "cache")
        mine = ResultCache(root, capacity=3)
        _put(mine, 0)
        _put(ResultCache(root, capacity=3), 100)  # a second writer
        _put(mine, 1)
        _put(mine, 2)
        # until the resync, `mine` has not seen the other writer's entry
        assert len(mine) == 4 and mine.stats.evictions == 0
        _put(mine, 3)  # the (capacity + 1)-th put rescans first
        assert len(mine) == 3
        assert mine.stats.evictions == 2

    def test_discarded_corrupt_entry_leaves_the_floor_intact(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), capacity=3)
        for i in range(3):
            _put(cache, i)
        with open(cache._path(_key(1)), "w") as handle:
            handle.write("{torn")
        assert cache.get(_key(1), task="t") is None
        assert cache.stats.errors == 1
        _put(cache, 3)  # the index forgot the discarded entry
        assert len(cache) == 3
        assert cache.stats.evictions == 0

    def test_clear_resets_the_index(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), capacity=2)
        _put(cache, 0)
        _put(cache, 1)
        assert cache.clear() == 2
        _put(cache, 2)
        _put(cache, 3)
        assert sorted(cache.entries()) == sorted([_key(2), _key(3)])
        assert cache.stats.evictions == 0
