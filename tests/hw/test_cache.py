"""Unit tests for the set-associative cache."""

import pytest

from repro.errors import HardwareError
from repro.hw.cache import Cache, CacheConfig, CacheSnapshot, _make_set


class TestConfig:
    def test_a53_geometry(self):
        cfg = CacheConfig()
        assert cfg.sets == 128 and cfg.ways == 4 and cfg.line_size == 64
        assert cfg.line_shift == 6

    def test_power_of_two_enforced(self):
        with pytest.raises(HardwareError):
            CacheConfig(sets=100)
        with pytest.raises(HardwareError):
            CacheConfig(line_size=48)

    def test_set_index_and_tag(self):
        cfg = CacheConfig()
        addr = (5 << 13) | (93 << 6) | 17
        assert cfg.set_index(addr) == 93
        assert cfg.tag(addr) == 5
        assert cfg.line_of(addr) == addr >> 6

    def test_set_index_wraps(self):
        cfg = CacheConfig()
        assert cfg.set_index(128 * 64) == 0
        assert cfg.set_index(129 * 64) == 1


class TestAccess:
    def test_miss_then_hit(self):
        cache = Cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.misses == 1 and cache.hits == 1

    def test_same_line_offsets_hit(self):
        cache = Cache()
        cache.access(0x1000)
        assert cache.access(0x103F)
        assert not cache.access(0x1040)  # next line

    def test_contains_has_no_side_effect(self):
        cache = Cache()
        assert not cache.contains(0x1000)
        cache.access(0x1000)
        hits = cache.hits
        assert cache.contains(0x1000)
        assert cache.hits == hits

    def test_lru_eviction(self):
        cfg = CacheConfig(sets=2, ways=2, line_size=64)
        cache = Cache(cfg)
        set_stride = 2 * 64  # same set every stride
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a: b is now LRU
        cache.access(c)  # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_prefetch_fills_without_counting(self):
        cache = Cache()
        cache.prefetch(0x2000)
        assert cache.contains(0x2000)
        assert cache.hits == 0 and cache.misses == 0

    def test_prefetch_existing_line_noop(self):
        cache = Cache()
        cache.access(0x2000)
        cache.prefetch(0x2000)
        assert len(cache.snapshot()) == 1


class TestFlush:
    def test_flush_all(self):
        cache = Cache()
        cache.access(0x1000)
        cache.flush_all()
        assert not cache.contains(0x1000)
        assert len(cache.snapshot()) == 0

    def test_flush_line_only_touches_target(self):
        cache = Cache()
        cache.access(0x1000)
        cache.access(0x2000)
        cache.flush_line(0x1000)
        assert not cache.contains(0x1000)
        assert cache.contains(0x2000)


class TestSnapshot:
    def test_snapshot_equality(self):
        a, b = Cache(), Cache()
        a.access(0x1000)
        b.access(0x1000)
        assert a.snapshot() == b.snapshot()
        b.access(0x9000)
        assert a.snapshot() != b.snapshot()

    def test_snapshot_ignores_lru_order(self):
        a, b = Cache(), Cache()
        same_set = 128 * 64
        a.access(0x0)
        a.access(same_set)
        b.access(same_set)
        b.access(0x0)
        assert a.snapshot() == b.snapshot()

    def test_restrict_hides_other_sets(self):
        cache = Cache()
        cache.access(61 * 64)
        cache.access(3 * 64)
        snap = cache.snapshot().restrict(range(61, 128))
        assert snap.occupied_sets() == (61,)

    def test_resident_lines(self):
        cache = Cache()
        cache.access(5 * 64)
        assert cache.resident_lines() == ((5, 0),)

    def test_noise_hooks(self):
        cache = Cache()
        cache.access(5 * 64)
        cache.evict_set_way(5)
        assert not cache.contains(5 * 64)
        cache.insert_line(9, tag=3)
        assert (9, 3) in cache.resident_lines()


def dense_cache(config: CacheConfig) -> Cache:
    """A cache with every set allocated up front, the layout the sparse
    cache must be indistinguishable from."""
    cache = Cache(config)
    cache._sets = {index: _make_set(config, index) for index in range(config.sets)}
    return cache


#: Five lines per set in sets 0 and 3, plus one in set 100: conflicts make
#: every policy choose victims.
CONFLICT_STREAM = [
    (set_index << 6) | (tag << 13)
    for tag in range(5)
    for set_index in (0, 3)
] + [100 << 6, 0, 3 << 6, 2 << 13]


class TestSparseLayout:
    @pytest.mark.parametrize("replacement", ["lru", "plru", "random"])
    def test_snapshot_equals_dense_reference(self, replacement):
        config = CacheConfig(replacement=replacement, replacement_seed=5)
        lazy, dense = Cache(config), dense_cache(config)
        for cache in (lazy, dense):
            for addr in CONFLICT_STREAM:
                cache.access(addr)
            cache.prefetch(77 << 6)
            cache.flush_line(3 << 6)
        assert lazy.snapshot() == dense.snapshot()
        assert hash(lazy.snapshot()) == hash(dense.snapshot())
        assert lazy.resident_lines() == dense.resident_lines()
        assert (lazy.hits, lazy.misses) == (dense.hits, dense.misses)

    def test_snapshot_is_the_dense_tuple(self):
        cache = Cache()
        cache.access(5 * 64)
        cache.access(9 * 64 + (2 << 13))
        expected = [frozenset()] * 128
        expected[5] = frozenset({0})
        expected[9] = frozenset({2})
        snapshot = cache.snapshot()
        assert snapshot == CacheSnapshot(tuple(expected))
        assert hash(snapshot) == hash(CacheSnapshot(tuple(expected)))
        assert len(snapshot.tags_per_set) == 128

    def test_probes_of_untouched_sets_allocate_nothing(self):
        cache = Cache()
        assert not cache.contains(0x1000)
        cache.flush_line(0x2000)
        cache.evict_set_way(7)
        assert cache._sets == {}
        assert cache.snapshot() == Cache().snapshot()

    def test_flush_all_restarts_random_victim_stream(self):
        config = CacheConfig(replacement="random", replacement_seed=9)

        def victims(cache):
            seen = []
            for addr in CONFLICT_STREAM:
                cache.access(addr)
                seen.append(cache.resident_lines())
            return seen

        used = Cache(config)
        victims(used)
        used.flush_all()
        assert victims(used) == victims(Cache(config))

    def test_resident_lines_in_set_index_order(self):
        cache = Cache()
        cache.access(100 * 64)
        cache.access(3 * 64)
        cache.access(50 * 64)
        assert [index for index, _ in cache.resident_lines()] == [3, 50, 100]
