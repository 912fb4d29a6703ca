"""Set-associative data cache with configurable replacement.

Defaults model the Cortex-A53 L1D: 32 KiB, 4 ways, 64-byte lines, 128 sets,
LRU replacement.  The TrustZone-style platform inspects the cache via
:meth:`Cache.snapshot`, which records the set of resident tags per cache
set — the same information the paper's privileged debug reads provide.

Replacement is a microarchitecture-matrix axis (ROADMAP item 1): the same
observational model can be sound under deterministic LRU yet unsound under
tree-PLRU or pseudo-random victim selection, because the *residency* of a
line after a conflict depends on the policy.  Three policies are modelled:

* ``lru``    — true least-recently-used (the paper's A53 L1D approximation).
* ``plru``   — tree-PLRU: one bit per internal node of a binary tree over
  the ways, as implemented by most real L1 caches (the A53's I-cache, most
  Intel L1s).  Deterministic, but the victim depends on the *order* of hits
  since the last fill, not on recency rank.
* ``random`` — seeded pseudo-random victim selection (Cortex-A53's L1D
  documented policy is in fact pseudo-random).  Deterministic for a given
  ``CacheConfig.replacement_seed``: the victim way is derived by hashing
  ``(seed, set index, per-set fill counter)``, so two simulator processes
  — and two repetitions of one experiment — always agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import HardwareError

#: The recognised values of :attr:`CacheConfig.replacement`.
REPLACEMENT_POLICIES: Tuple[str, ...] = ("lru", "plru", "random")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and replacement policy of a set-associative cache."""

    sets: int = 128
    ways: int = 4
    line_size: int = 64
    #: Victim-selection policy: one of :data:`REPLACEMENT_POLICIES`.
    replacement: str = "lru"
    #: Seed of the ``random`` policy's deterministic victim stream; ignored
    #: by the deterministic policies.
    replacement_seed: int = 0

    def __post_init__(self):
        for field_name in ("sets", "ways", "line_size"):
            value = getattr(self, field_name)
            if value <= 0 or value & (value - 1):
                raise HardwareError(f"{field_name} must be a power of two, got {value}")
        if self.replacement not in REPLACEMENT_POLICIES:
            known = ", ".join(REPLACEMENT_POLICIES)
            raise HardwareError(
                f"unknown replacement policy {self.replacement!r} "
                f"(known: {known})"
            )

    @property
    def line_shift(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def set_mask(self) -> int:
        return self.sets - 1

    def set_index(self, addr: int) -> int:
        return (addr >> self.line_shift) & self.set_mask

    def tag(self, addr: int) -> int:
        return addr >> (self.line_shift + self.sets.bit_length() - 1)

    def line_of(self, addr: int) -> int:
        """The global line number (tag and set combined)."""
        return addr >> self.line_shift


@dataclass(frozen=True)
class CacheSnapshot:
    """Immutable view of cache contents: resident tags per set.

    Only *presence* is recorded (not replacement order), matching what a
    Flush+Reload or debug-read attacker can resolve.  ``restrict`` projects
    the snapshot onto an attacker-visible range of sets.
    """

    tags_per_set: Tuple[FrozenSet[int], ...]

    def restrict(self, set_indices: Iterable[int]) -> "CacheSnapshot":
        wanted = set(set_indices)
        return CacheSnapshot(
            tuple(
                tags if index in wanted else frozenset()
                for index, tags in enumerate(self.tags_per_set)
            )
        )

    def occupied_sets(self) -> Tuple[int, ...]:
        return tuple(
            index for index, tags in enumerate(self.tags_per_set) if tags
        )

    def __len__(self) -> int:
        return sum(len(tags) for tags in self.tags_per_set)


class _LruSet:
    """One set under true LRU: resident tags ordered most-recent last."""

    __slots__ = ("_tags", "_ways")

    def __init__(self, ways: int):
        self._ways = ways
        self._tags: List[int] = []

    def contains(self, tag: int) -> bool:
        return tag in self._tags

    def touch(self, tag: int) -> None:
        self._tags.remove(tag)
        self._tags.append(tag)

    def fill(self, tag: int) -> None:
        if len(self._tags) >= self._ways:
            self._tags.pop(0)  # evict LRU
        self._tags.append(tag)

    def remove(self, tag: int) -> None:
        if tag in self._tags:
            self._tags.remove(tag)

    def evict_position(self, position: int) -> None:
        if self._tags:
            self._tags.pop(position % len(self._tags))

    def tags(self) -> List[int]:
        return list(self._tags)


class _PlruSet:
    """One set under tree-PLRU.

    ``ways`` is a power of two (enforced by :class:`CacheConfig`); the
    ``ways - 1`` internal nodes of a complete binary tree each hold one
    bit pointing towards the *pseudo*-least-recently-used half.  An access
    to way ``w`` flips every node on the root-to-``w`` path to point away
    from ``w``; the victim is found by walking the pointed-to path.
    """

    __slots__ = ("_lines", "_bits", "_ways")

    def __init__(self, ways: int):
        self._ways = ways
        self._lines: List[Optional[int]] = [None] * ways
        self._bits: List[int] = [0] * max(ways - 1, 0)

    def contains(self, tag: int) -> bool:
        return tag in self._lines

    def _touch_way(self, way: int) -> None:
        # Walk from the root; at each node point the bit *away* from the
        # half containing ``way``.
        node = 0
        lo, hi = 0, self._ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # point right, away from the left half
                node = 2 * node + 1
                hi = mid
            else:
                self._bits[node] = 0  # point left
                node = 2 * node + 2
                lo = mid
        # ``node`` indexes past the bit array exactly when ways == 1.

    def _victim_way(self) -> int:
        node = 0
        lo, hi = 0, self._ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._bits[node] == 0:
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        return lo

    def touch(self, tag: int) -> None:
        self._touch_way(self._lines.index(tag))

    def fill(self, tag: int) -> None:
        for way, line in enumerate(self._lines):
            if line is None:
                self._lines[way] = tag
                self._touch_way(way)
                return
        victim = self._victim_way()
        self._lines[victim] = tag
        self._touch_way(victim)

    def remove(self, tag: int) -> None:
        for way, line in enumerate(self._lines):
            if line == tag:
                self._lines[way] = None
                return

    def evict_position(self, position: int) -> None:
        resident = [way for way, line in enumerate(self._lines) if line is not None]
        if resident:
            self._lines[resident[position % len(resident)]] = None

    def tags(self) -> List[int]:
        return [line for line in self._lines if line is not None]


class _RandomSet:
    """One set under seeded pseudo-random replacement.

    The victim way of the ``n``-th conflict fill in this set is
    ``blake2b(seed, set index, n) mod ways`` — a pure function of the
    configuration and the fill history, so replays and worker processes
    agree bit-for-bit.
    """

    __slots__ = ("_lines", "_ways", "_seed", "_set_index", "_fills")

    def __init__(self, ways: int, seed: int, set_index: int):
        self._ways = ways
        self._seed = seed
        self._set_index = set_index
        self._lines: List[Optional[int]] = [None] * ways
        self._fills = 0

    def contains(self, tag: int) -> bool:
        return tag in self._lines

    def touch(self, tag: int) -> None:
        pass  # random replacement keeps no recency state

    def _victim_way(self) -> int:
        key = f"{self._seed}:{self._set_index}:{self._fills}".encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self._ways

    def fill(self, tag: int) -> None:
        for way, line in enumerate(self._lines):
            if line is None:
                self._lines[way] = tag
                return
        self._fills += 1
        self._lines[self._victim_way()] = tag

    def remove(self, tag: int) -> None:
        for way, line in enumerate(self._lines):
            if line == tag:
                self._lines[way] = None
                return

    def evict_position(self, position: int) -> None:
        resident = [way for way, line in enumerate(self._lines) if line is not None]
        if resident:
            self._lines[resident[position % len(resident)]] = None

    def tags(self) -> List[int]:
        return [line for line in self._lines if line is not None]


#: The contents of every set a snapshot finds untouched.
_NO_TAGS: FrozenSet[int] = frozenset()


def _make_set(config: CacheConfig, set_index: int):
    if config.replacement == "lru":
        return _LruSet(config.ways)
    if config.replacement == "plru":
        return _PlruSet(config.ways)
    return _RandomSet(config.ways, config.replacement_seed, set_index)


class Cache:
    """A set-associative cache tracking presence and replacement state.

    Sets are created on first fill and dropped wholesale by
    :meth:`flush_all`, so a run costs what it touches rather than the
    number of sets.  A set's replacement state starts fresh either way
    (the ``random`` policy is seeded per set index), so the sparse layout
    is observationally equal to allocating every set up front.
    """

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        self._sets: Dict[int, object] = {}
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def _set_for_fill(self, set_index: int):
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = _make_set(self.config, set_index)
        return cache_set

    def contains(self, addr: int) -> bool:
        """Presence check with no side effect on replacement state."""
        cache_set = self._sets.get(self.config.set_index(addr))
        return cache_set is not None and cache_set.contains(self.config.tag(addr))

    def access(self, addr: int) -> bool:
        """Demand access: returns True on hit; fills the line on miss."""
        cache_set = self._set_for_fill(self.config.set_index(addr))
        tag = self.config.tag(addr)
        if cache_set.contains(tag):
            cache_set.touch(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set.fill(tag)
        return False

    def prefetch(self, addr: int) -> None:
        """Fill a line without touching hit/miss counters (prefetcher port)."""
        cache_set = self._set_for_fill(self.config.set_index(addr))
        tag = self.config.tag(addr)
        if cache_set.contains(tag):
            return
        cache_set.fill(tag)

    def flush_all(self) -> None:
        self._sets.clear()

    def flush_line(self, addr: int) -> None:
        cache_set = self._sets.get(self.config.set_index(addr))
        if cache_set is not None:
            cache_set.remove(self.config.tag(addr))

    def evict_set_way(self, set_index: int, position: int = 0) -> None:
        """Remove one resident line from a set (noise injection hook)."""
        cache_set = self._sets.get(set_index)
        if cache_set is not None:
            cache_set.evict_position(position)

    def insert_line(self, set_index: int, tag: int) -> None:
        """Force a line into a set (noise injection hook)."""
        cache_set = self._set_for_fill(set_index)
        if not cache_set.contains(tag):
            cache_set.fill(tag)

    def snapshot(self) -> CacheSnapshot:
        tags_per_set = [_NO_TAGS] * self.config.sets
        for index, cache_set in self._sets.items():
            tags_per_set[index] = frozenset(cache_set.tags())
        return CacheSnapshot(tuple(tags_per_set))

    def resident_lines(self) -> Tuple[Tuple[int, int], ...]:
        """All resident lines as ``(set_index, tag)`` pairs."""
        out = []
        for index in sorted(self._sets):
            out.extend((index, tag) for tag in self._sets[index].tags())
        return tuple(out)
