"""On-chip SRAM cache of the split key-value store (paper §3.2, Fig. 4).

The cache is a hash table of ``n`` buckets; each bucket holds up to
``m`` key-value slots managed by an eviction policy (LRU in the paper;
FIFO and random are provided for the ablation benches).  The paper's
three geometries (§4):

* *hash table* — ``m = 1``: any collision evicts;
* *fully associative* — ``n = 1``: one bucket spanning the whole cache,
  i.e. a true global LRU;
* *k-way set-associative* — e.g. ``m = 8``, "similar to many processor
  L1 caches".

Buckets are ``OrderedDict``s so hit, insert, and evict are all O(1);
a fully associative cache is then simply one big ordered dict, which
keeps even the 2²⁰-pair Fig. 5 sweep tractable in pure Python.

Hashing uses an explicit 64-bit mix (splitmix64) so results are
reproducible across processes and independent of ``PYTHONHASHSEED``.

The ``random`` ablation policy draws its victim from a *counter-based*
RNG (:func:`replay_victim`): the victim of a bucket's ``k``-th eviction
is a pure function of ``(seed, bucket, k)``.  Per-bucket draw sequences
are therefore independent of how accesses to *other* buckets interleave
— which is what lets the array-native engines replay the policy per set
(and in windowed chunks) while staying bit-identical to this per-access
reference.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, TypeVar

import numpy as np

from repro.core.errors import HardwareError
from repro.core.vector_exec import splitmix64_array

V = TypeVar("V")

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """Deterministic 64-bit mixer (public-domain splitmix64 finaliser)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def mix_key(key: Hashable, seed: int = 0) -> int:
    """Mix an aggregation key (int or tuple of ints) to 64 bits."""
    if isinstance(key, tuple):
        acc = seed & _MASK64
        for part in key:
            acc = splitmix64(acc ^ (int(part) & _MASK64))
        return acc
    return splitmix64((int(key) ^ seed) & _MASK64)


#: Odd 64-bit constants decorrelating the bucket and counter streams of
#: :func:`replay_victim` (golden-ratio and Pelle Evensen's moremur
#: increments).
_VICTIM_BUCKET_MULT = 0x9E3779B97F4A7C15
_VICTIM_COUNT_MULT = 0xD1B54A32D192ED03


#: Victim draws are precomputed in blocks of this many counter values
#: per bucket (the pre-modulo mix is independent of the bucket's
#: occupancy, so one block serves evictions at any ``size``).
_VICTIM_BLOCK = 64

#: Cap on cached victim-draw blocks (one per bucket).  Draws are pure
#: functions of ``(seed, bucket, count)``, so dropping the cache is
#: always safe — it only costs a recompute.
_VICTIM_CACHE_MAX = 4096


def replay_victim(seed: int, bucket: int, count: int, size: int) -> int:
    """Victim slot for the ``random`` policy's ``count``-th eviction in
    ``bucket``: a uniform draw over the bucket's ``size`` resident
    entries (in insertion order), from a counter-based RNG.

    Being a pure function of ``(seed, bucket, count)`` — rather than a
    position in one shared sequential draw stream — makes the policy
    decomposable per set: every execution strategy (per-access row
    loop, one-shot per-set ring replay, windowed replay with carried
    per-set counters) consumes exactly the same draws.
    :func:`repro.switch.kvstore.vector_cache.replay_victim_array` is
    the element-wise identical batch form.
    """
    mixed = (seed + bucket * _VICTIM_BUCKET_MULT
             + count * _VICTIM_COUNT_MULT) & _MASK64
    return splitmix64(mixed) % size


@dataclass(frozen=True)
class CacheGeometry:
    """``n`` buckets × ``m`` slots (Fig. 4).

    ``capacity = n * m`` key-value pairs.  Constructors cover the three
    geometries of §4.
    """

    n_buckets: int
    m_slots: int

    def __post_init__(self) -> None:
        if self.n_buckets < 1 or self.m_slots < 1:
            raise HardwareError(
                f"invalid geometry: n={self.n_buckets}, m={self.m_slots}"
            )

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.m_slots

    @classmethod
    def hash_table(cls, capacity: int) -> "CacheGeometry":
        """m=1: evict on any hash collision."""
        return cls(n_buckets=capacity, m_slots=1)

    @classmethod
    def fully_associative(cls, capacity: int) -> "CacheGeometry":
        """n=1: a full LRU over the whole cache."""
        return cls(n_buckets=1, m_slots=capacity)

    @classmethod
    def set_associative(cls, capacity: int, ways: int = 8) -> "CacheGeometry":
        """n=capacity/ways buckets of ``ways`` slots (paper's 8-way)."""
        if capacity % ways != 0:
            raise HardwareError(
                f"capacity {capacity} is not a multiple of ways {ways}"
            )
        return cls(n_buckets=capacity // ways, m_slots=ways)

    def describe(self) -> str:
        if self.m_slots == 1:
            return f"hash table ({self.n_buckets} buckets)"
        if self.n_buckets == 1:
            return f"fully associative ({self.m_slots} slots)"
        return f"{self.m_slots}-way associative ({self.n_buckets} sets)"


@dataclass
class CacheStats:
    """Counters maintained by the cache across its lifetime."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def eviction_fraction(self) -> float:
        """Evictions as a fraction of accesses — the y-axis of Fig. 5
        (left), '% Evictions' over total packets seen."""
        return self.evictions / self.accesses if self.accesses else 0.0


@dataclass
class Entry(Generic[V]):
    """One cached key-value pair."""

    key: Hashable
    value: V


class KeyValueCache(Generic[V]):
    """The on-chip cache: per-bucket eviction with pluggable policy.

    Args:
        geometry: Bucket layout.
        policy: ``"lru"`` (paper), ``"fifo"``, or ``"random"``.
        seed: Hash seed (and :func:`replay_victim` seed for the random
            policy).

    The central operation is :meth:`access`, which models the
    single-cycle lookup-update-or-initialise of §3.2: it returns the
    resident entry for ``key`` (creating it if absent) together with
    any entry that had to be evicted to make room.
    """

    POLICIES = ("lru", "fifo", "random")

    def __init__(self, geometry: CacheGeometry, policy: str = "lru", seed: int = 0):
        if policy not in self.POLICIES:
            raise HardwareError(f"unknown eviction policy {policy!r}")
        self.geometry = geometry
        self.policy = policy
        self.seed = seed
        self.stats = CacheStats()
        self._buckets: list[OrderedDict[Hashable, Entry[V]]] = [
            OrderedDict() for _ in range(geometry.n_buckets)
        ]
        #: Per-bucket eviction counters — the random policy's RNG state
        #: (victim of eviction ``k`` in bucket ``b`` is
        #: ``replay_victim(seed, b, k, m)``).
        self._evict_counts: dict[int, int] = {}
        #: bucket -> (base_count, pre-modulo uint64 draws for counts
        #: ``base_count .. base_count + _VICTIM_BLOCK - 1``), filled by
        #: the vectorized mixer so the per-eviction cost is one array
        #: index instead of a Python-bignum splitmix64 round.
        self._victim_blocks: dict[int, tuple[int, np.ndarray]] = {}

    # -- core operation ----------------------------------------------------

    def access(self, key: Hashable,
               make_value: Callable[[], V]) -> tuple[Entry[V], Entry[V] | None]:
        """Look up ``key``, inserting it if absent.

        Returns ``(entry, evicted)`` where ``evicted`` is the entry
        pushed out of the bucket (or ``None``).  On a hit the entry is
        refreshed per the policy (LRU moves it to the MRU position).
        """
        self.stats.accesses += 1
        index = self._bucket_index(key)
        bucket = self._buckets[index]
        entry = bucket.get(key)
        if entry is not None:
            self.stats.hits += 1
            if self.policy == "lru":
                bucket.move_to_end(key)
            return entry, None

        self.stats.misses += 1
        evicted: Entry[V] | None = None
        if len(bucket) >= self.geometry.m_slots:
            evicted = self._evict(bucket, index)
            self.stats.evictions += 1
        entry = Entry(key=key, value=make_value())
        bucket[key] = entry
        self.stats.insertions += 1
        return entry, evicted

    def _evict(self, bucket: OrderedDict[Hashable, Entry[V]],
               index: int) -> Entry[V]:
        if self.policy == "random":
            count = self._evict_counts.get(index, 0)
            self._evict_counts[index] = count + 1
            victim = self._victim_premod(index, count) % len(bucket)
            return bucket.pop(list(bucket)[victim])
        # LRU and FIFO both evict the oldest dict entry; they differ in
        # whether hits refresh recency (handled in access()).
        _, entry = bucket.popitem(last=False)
        return entry

    def _victim_premod(self, index: int, count: int) -> int:
        """Pre-modulo :func:`replay_victim` draw for eviction ``count``
        in bucket ``index``, served from a per-bucket block of
        vectorized draws (bit-identical: ``% size`` is applied by the
        caller on the very same 64-bit mix the scalar path computes)."""
        cached = self._victim_blocks.get(index)
        if cached is None or not cached[0] <= count < cached[0] + _VICTIM_BLOCK:
            if len(self._victim_blocks) >= _VICTIM_CACHE_MAX:
                self._victim_blocks.clear()
            base = count - count % _VICTIM_BLOCK
            counts = np.arange(base, base + _VICTIM_BLOCK, dtype=np.uint64)
            mixed = (np.uint64(
                (self.seed + index * _VICTIM_BUCKET_MULT) & _MASK64)
                + counts * np.uint64(_VICTIM_COUNT_MULT))
            cached = (base, splitmix64_array(mixed))
            self._victim_blocks[index] = cached
        return int(cached[1][count - cached[0]])

    # -- queries -----------------------------------------------------------------

    def _bucket_index(self, key: Hashable) -> int:
        if self.geometry.n_buckets == 1:
            return 0
        return mix_key(key, self.seed) % self.geometry.n_buckets

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)

    @property
    def occupancy(self) -> float:
        return len(self) / self.geometry.capacity

    def entries(self) -> Iterator[Entry[V]]:
        for bucket in self._buckets:
            yield from bucket.values()

    def flush(self) -> list[Entry[V]]:
        """Evict everything (end-of-run or periodic refresh, §3.2:
        "keys can be periodically evicted to ensure the backing store
        is fresh").  Flush evictions are *not* counted in
        ``stats.evictions`` — Fig. 5 counts only capacity evictions."""
        out: list[Entry[V]] = []
        for bucket in self._buckets:
            out.extend(bucket.values())
            bucket.clear()
        return out


#: Valid values of the ``engine`` knob (mirrors the query engine's).
ENGINES = ("auto", "vector", "row")


def simulate_eviction_count(keys: "Iterator[int] | list[int]",
                            geometry: CacheGeometry,
                            policy: str = "lru", seed: int = 0,
                            engine: str = "auto") -> CacheStats:
    """Value-free fast path: run only the cache-replacement process.

    Used by the Fig. 5 sweep, where millions of accesses are simulated
    across ~18 cache configurations and only the eviction counters
    matter.  Semantically identical to driving :class:`KeyValueCache`
    with unit values.

    ``engine`` selects the implementation: ``"row"`` is this
    per-access reference loop, which takes any iterable of hashable
    keys; ``"vector"`` (and ``"auto"``, the same engine) is the
    array-native simulator of :mod:`repro.switch.kvstore.vector_cache`
    (bit-identical counters, orders of magnitude faster on large
    streams), whose door
    (:func:`~repro.switch.kvstore.vector_cache.key_array`) takes an
    integer array or any iterable of integer keys or integer tuples,
    types an empty stream as int64, and rejects anything else with a
    :class:`HardwareError` that names ``engine="row"``.
    """
    if engine not in ENGINES:
        raise HardwareError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine != "row":
        from .vector_cache import VectorCacheSim

        return VectorCacheSim(keys, seed=seed).stats(geometry, policy=policy)
    if isinstance(keys, np.ndarray):
        # The row loop is fastest over native ints; tolist() also makes
        # hashing/equality trivially identical to historical list input.
        # 2-D arrays are tuple-key streams (one column per part).
        keys = [tuple(row) for row in keys.tolist()] if keys.ndim == 2 \
            else keys.tolist()
    cache: KeyValueCache[None] = KeyValueCache(geometry, policy=policy, seed=seed)
    make_none = lambda: None  # noqa: E731 - tight loop
    access = cache.access
    for key in keys:
        access(key, make_none)
    return cache.stats
