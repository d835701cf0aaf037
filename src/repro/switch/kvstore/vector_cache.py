"""Array-native cache-replacement simulator (the *vector* cache engine).

Bit-identical, batch-first replacement-policy simulation for the
split-store cache of §3.2/§4: given the whole key stream as a numpy
array, it reproduces the counters of :class:`~repro.switch.kvstore.cache.KeyValueCache`
/ :func:`~repro.switch.kvstore.cache.simulate_eviction_count` without a
per-packet Python loop.  It is what makes the Fig. 5 eviction sweep and
the Fig. 6 accuracy sweep interactive at multi-million-access scale
(``engine="vector"`` in :mod:`repro.analysis.eviction`,
:mod:`repro.analysis.accuracy`, and the sweep CLI).

Three execution paths, chosen per geometry/policy:

1. **Direct-mapped** (``m_slots == 1``, any policy — the policies are
   indistinguishable with one slot per bucket): sort the accesses by
   bucket (the key hash modulo the bucket count) and read
   hits/misses/evictions off adjacent in-bucket key comparisons.  No
   Python loop at all.

2. **Exact LRU** (``m_slots > 1``): per-set reuse *stack distances* —
   an access hits iff the number of distinct keys touched in its set
   since the previous access to the same key is ``< m_slots`` (the LRU
   inclusion property, exact, not a model).  Accesses are grouped into
   per-set segments (one composite ``(bucket, time)`` sort), runs of
   the same key are collapsed (guaranteed hits that do not move the LRU
   state), and every access whose set-local reuse window is shorter
   than ``m_slots`` hits outright.  For the rest, the stack distance is
   ``S(i) - 1 - inv(prev(i))`` where ``S`` is the set's residency
   profile (one linear interval sweep over occurrence intervals, with
   set-end sentinels so everything stays set-local) and ``inv`` counts
   earlier accesses whose next occurrence lies past the window — an
   offline, Fenwick-free previous-larger merge counter.  Only accesses
   whose occurrence interval spans more than ``m_slots`` positions can
   ever be counted (shorter intervals close before any qualifying
   window opens), so the counter runs on that small subset, chunked at
   set boundaries to stay cache-resident; the table built for ``G`` is
   exact for every ``m >= G`` and is cached, so a fully associative
   capacity sweep pays for it once.

3. **Per-set ring replay** for the FIFO/random ablation policies
   (:func:`_replay_segments`): accesses are grouped by set with one
   composite ``(bucket, time)`` sort and runs of the same key are
   collapsed; then one loop replays each set's accesses against its
   resident keys, oldest → newest, exactly as
   :class:`~repro.switch.kvstore.cache.KeyValueCache` does (FIFO evicts
   the oldest; random removes a drawn slot and appends).  Random
   victims come from the counter-based
   :func:`repro.switch.kvstore.cache.replay_victim` draw
   (:func:`replay_victim_array` here), drawn in bounded array blocks —
   a pure function of ``(seed, set, per-set eviction count)``, so the
   one-shot replay and the windowed store's carried replay consume
   exactly the reference loop's draws.  The paper's switch is LRU;
   these two policies serve the policy ablation, where exactness
   matters and speed does not.

Every path starts from the stream's key hash (:func:`mix_key_array`),
which also sorts the factorization of tuple and wide keys into dense
ids; a caller that hashed the stream already hands it in (``hashes=``).

:class:`CacheSchedule` is the one place that picks between them
(stack distances for LRU and direct-mapped geometries, the ring replay
for the rest) and the one owner of carried replacement state: the
windowed store feeds it window by window, and a
:class:`VectorCacheSim` run is a fresh schedule over the whole stream.
Use :class:`VectorCacheSim` directly when sweeping many geometries
over one stream (layouts and distances are shared), or the one-shot
:func:`simulate_eviction_count_vector` /
:func:`window_validity_vector` wrappers.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.core.errors import CheckpointError, HardwareError
from repro.core.vector_exec import factorize, mix_key_array, splitmix64_array
from .cache import (
    _VICTIM_BUCKET_MULT,
    _VICTIM_COUNT_MULT,
    CacheGeometry,
    CacheStats,
    KeyValueCache,
)

_U = np.uint64

#: Target chunk size for the kept-subset merge counter: chunks are cut
#: at set boundaries so each merge stays cache-resident.
_MERGE_CHUNK = 1 << 16

#: Most random-victim draws one set holds at a time, however long its
#: segment (a fully associative sweep is one segment).
_TAIL_DRAWS = 1 << 12

#: Empty ring-buffer slot: never equal to any key id.
_FILLER = np.iinfo(np.int64).min


def replay_victim_array(seed: int, buckets: np.ndarray, counts: np.ndarray,
                        size: int) -> np.ndarray:
    """Batch form of :func:`repro.switch.kvstore.cache.replay_victim`,
    element-wise identical: victim slots for evictions ``counts[i]`` in
    buckets ``buckets[i]`` (numpy's wrapping uint64 arithmetic is the
    scalar version's ``& MASK64``)."""
    mixed = (_U(seed & 0xFFFFFFFFFFFFFFFF)
             + np.asarray(buckets, dtype=np.int64).view(np.uint64)
             * _U(_VICTIM_BUCKET_MULT)
             + np.asarray(counts, dtype=np.uint64)
             * _U(_VICTIM_COUNT_MULT))
    return (splitmix64_array(mixed) % _U(size)).astype(np.int64)


def _replay_segments(kz: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                     rows: np.ndarray, set_ids: np.ndarray, m: int,
                     policy: str, seed: int, ring: np.ndarray,
                     count: np.ndarray, counters: np.ndarray,
                     ) -> tuple[np.ndarray, int]:
    """The FIFO/random replay: one window, set by set, access by access.

    ``kz`` holds the key ids in (set, time) layout order; segment ``s``
    (one cache set's accesses) is ``kz[starts[s]:starts[s] + lens[s]]``
    and replays on state row ``rows[s]``.  A state row is ``ring`` (the
    set's resident keys oldest → newest, :data:`_FILLER` past the
    occupancy), ``count`` (the occupancy), ``counters`` (random's
    eviction count, the RNG state) and ``set_ids`` (the bucket id that
    seeds its draws).  The rows are updated in place, so one call
    replays a stream from empty state and successive calls carry the
    state across windows.

    Each set does exactly what
    :class:`~repro.switch.kvstore.cache.KeyValueCache` does per access:
    a miss appends its key and, once the set is full, evicts the oldest
    key (FIFO) or the slot :func:`replay_victim_array` draws (random).
    The rows are read and written back once per call, and random
    victims for every row are drawn in one array call: a set evicts at
    most once per access past its free slots, and a row's block is
    refilled only when it runs out, capped at :data:`_TAIL_DRAWS`.
    Returns the miss flags over ``kz`` and the eviction count.
    """
    miss = np.zeros(len(kz), dtype=bool)
    if not len(rows):
        return miss, 0
    randomized = policy == "random"
    rings = ring[rows].tolist()
    occupancy = count[rows]
    if randomized:
        buckets = set_ids[rows]
        drawn0 = counters[rows]
        n_draw = np.clip(lens - (m - occupancy), 0, _TAIL_DRAWS)
        first = np.cumsum(n_draw) - n_draw
        step = np.arange(int(n_draw.sum()), dtype=np.uint64) - \
            np.repeat(first, n_draw).astype(np.uint64)
        draws = replay_victim_array(
            seed, np.repeat(buckets, n_draw),
            np.repeat(drawn0, n_draw) + step, m).tolist()
        buckets, drawn0 = buckets.tolist(), drawn0.tolist()
        first, n_draw = first.tolist(), n_draw.tolist()
        drawn_out: list[int] = []
    evictions = 0
    misses: list[int] = []
    kept: list[int] = []
    sizes: list[int] = []
    for i, (a, b, held) in enumerate(zip(starts.tolist(),
                                         (starts + lens).tolist(),
                                         occupancy.tolist())):
        resident = rings[i][:held]
        seen = set(resident)
        front = 0
        if randomized:
            drawn = start = drawn0[i]
            victims = draws[first[i]:first[i] + n_draw[i]]
            k = 0
            for pos, key in enumerate(kz[a:b].tolist(), a):
                if key in seen:
                    continue
                misses.append(pos)
                if len(resident) == m:
                    if k == len(victims):
                        victims = replay_victim_array(
                            seed, buckets[i], np.arange(
                                drawn, drawn + min(b - pos, _TAIL_DRAWS),
                                dtype=np.uint64), m).tolist()
                        k = 0
                    seen.discard(resident.pop(victims[k]))
                    k += 1
                    drawn += 1
                resident.append(key)
                seen.add(key)
            drawn_out.append(drawn)
            evictions += drawn - start
        else:
            # FIFO evicts by advancing ``front`` through the insertion-
            # ordered list.
            for pos, key in enumerate(kz[a:b].tolist(), a):
                if key in seen:
                    continue
                misses.append(pos)
                if len(resident) - front == m:
                    seen.discard(resident[front])
                    front += 1
                resident.append(key)
                seen.add(key)
            evictions += front
        kept.extend(resident[front:])
        sizes.append(len(resident) - front)
    size = np.asarray(sizes, dtype=np.int64)
    out = np.full((len(rows), m), _FILLER, dtype=np.int64)
    out[np.arange(m) < size[:, None]] = kept
    ring[rows] = out
    count[rows] = size
    if randomized:
        counters[rows] = drawn_out
    miss[misses] = True
    return miss, evictions


def _collapse_runs(kz: np.ndarray, segstart: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drop the repeats of a key's previous access inside a set segment
    (guaranteed hits that leave FIFO/random state untouched).  ``kz``
    holds the key ids in (set, time) layout order and ``segstart``
    marks each set's first access.  Returns ``(kept positions, kept key
    ids, segment starts, segment lengths)``, the last three in kept
    space."""
    keep = segstart.copy()
    keep[1:] |= kz[1:] != kz[:-1]
    keep_idx = np.flatnonzero(keep)
    kz2 = kz[keep_idx]
    starts = np.flatnonzero(segstart[keep_idx])
    return keep_idx, kz2, starts, np.diff(np.append(starts, len(kz2)))


def _count_prev_greater(values: np.ndarray) -> np.ndarray:
    """For each ``i``: ``#{j < i : values[j] > values[i]}``.

    Offline bottom-up merge sort with vectorized cross-block counting:
    blocks are kept sorted; at each level the sorted halves of every
    pair are merged with one global ``searchsorted`` (rows made
    disjoint by a per-block offset) and the left-greater-than-right
    pairs are tallied.  Values must be non-negative (< 2**32).
    """
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    base = 64
    p = 1 << max(base.bit_length() - 1, (n - 1).bit_length())
    arr = np.full(p, -1, dtype=np.int64)          # pad below all real values
    arr[:n] = values
    orig = np.arange(p, dtype=np.int64)
    big = np.int64(max(int(arr.max()), p)) + 2    # per-block offset stride

    # Bootstrap: exact counts inside blocks of ``base`` by brute
    # broadcast (cheaper than 6 merge levels), then sort each block.
    nb = p // base
    blocks = arr.reshape(nb, base)
    lt = np.tri(base, base, -1, dtype=bool).T     # lt[j, i] = j < i
    step = max(1, (1 << 22) // (base * base))     # bound temp memory
    for lo in range(0, nb, step):
        c = blocks[lo:lo + step]
        cnt = ((c[:, :, None] > c[:, None, :]) & lt[None]).sum(axis=1)
        sl = slice(lo * base, lo * base + cnt.size)
        counts_pad = cnt.ravel()
        seg = np.arange(sl.start, sl.stop)
        real = seg < n
        counts[seg[real]] += counts_pad[real]
    perm = np.argsort(blocks, axis=1, kind="stable")
    arr = np.take_along_axis(blocks, perm, axis=1).ravel()
    orig = np.take_along_axis(orig.reshape(nb, base), perm, axis=1).ravel()

    half = np.arange(p // 2, dtype=np.int64)
    width = base
    while width < p:
        nblocks = p // (2 * width)
        a2 = arr.reshape(nblocks, 2, width)
        o2 = orig.reshape(nblocks, 2, width)
        left = a2[:, 0, :].ravel()
        right = a2[:, 1, :].ravel()
        lorig = o2[:, 0, :].ravel()
        rorig = o2[:, 1, :].ravel()
        blk = half[:nblocks * width] // width
        boff = blk * big
        le = np.searchsorted(left + 1 + boff, right + 1 + boff,
                             side="right") - blk * width
        cnt = width - le
        real = rorig < n
        counts[rorig[real]] += cnt[real]
        if 2 * width >= p:
            break                                  # top level: count only
        # stable merge: rights go after the lefts that are <= them,
        # lefts fill the remaining slots in order.
        rslot = blk * (2 * width) + half[:nblocks * width] % width + le
        taken = np.zeros(p, dtype=bool)
        taken[rslot] = True
        lslot = np.flatnonzero(~taken)
        merged = np.empty_like(arr)
        morig = np.empty_like(orig)
        merged[rslot] = right
        morig[rslot] = rorig
        merged[lslot] = left
        morig[lslot] = lorig
        arr, orig = merged, morig
        width *= 2
    return counts


class _Layout:
    """Accesses grouped by bucket: segment space for one bucketing."""

    __slots__ = ("kz", "segstart", "order", "segbuckets")

    def __init__(self, kz: np.ndarray, segstart: np.ndarray,
                 order: np.ndarray | None, segbuckets: np.ndarray):
        self.kz = kz                # keys in (bucket, time) order
        self.segstart = segstart    # True at each bucket boundary
        self.order = order          # argsort permutation (None for n=1)
        self.segbuckets = segbuckets  # bucket id per segment


class _LruChains:
    """Compressed per-set occurrence chains (m-independent LRU data)."""

    __slots__ = ("n2", "kz2", "segstarts2", "prev", "nxtval", "gap",
                 "has_prev", "keep_idx", "resident", "inv_cache")

    def __init__(self, n2, kz2, segstarts2, prev, nxtval, gap, has_prev,
                 keep_idx):
        self.n2 = n2
        self.kz2 = kz2
        self.segstarts2 = segstarts2
        self.prev = prev
        self.nxtval = nxtval        # next same-key position; set end if none
        self.gap = gap              # set-local window length i - prev - 1
        self.has_prev = has_prev
        self.keep_idx = keep_idx    # layout positions of the kept accesses
        self.resident = None        # lazily: #same-set keys resident at i
        self.inv_cache = None       # (G, kept_rank, inv) — see _kept_inv


class VectorCacheSim:
    """Exact replacement-policy simulation over one key stream.

    Layouts (per-bucketing access orderings) and LRU stack distances
    are memoized, so sweeping many geometries over the same stream —
    the Fig. 5 grid — shares the expensive work.  All counters are
    bit-identical to :class:`KeyValueCache`.

    Args:
        keys: 1-D integer array (scalar keys) or 2-D ``(n, k)`` array
            (tuple keys, one column per part), or any iterable
            :func:`key_array` turns into one.
        seed: Hash seed (and RNG seed for the random policy).
        key_ids: Optional precomputed key ids (equal key ⇔ equal id,
            values in ``[0, 2^31)``) — callers that already factorized
            the stream (:class:`CacheSchedule`) skip the internal
            factorization.
        hashes: Optional precomputed :func:`mix_key_array` of ``keys``
            under ``seed`` (the windowed store's one row hash).
    """

    def __init__(self, keys: np.ndarray, seed: int = 0,
                 key_ids: np.ndarray | None = None,
                 hashes: np.ndarray | None = None):
        keys = key_array(keys)
        self.seed = seed
        self._raw = keys
        self._hashes = hashes       # lazy otherwise: one-set paths never hash
        self._ids = None if key_ids is None \
            else key_ids.astype(np.int32, copy=False)   # lazy otherwise
        if len(keys) >= 1 << 31:
            raise HardwareError("vector cache engine caps streams at 2^31")
        self.n = len(keys)
        self._layouts: dict[int, _Layout] = {}
        self._chains: dict[int, _LruChains] = {}

    # -- shared structure ----------------------------------------------------

    def _hash(self) -> np.ndarray:
        if self._hashes is None:
            self._hashes = mix_key_array(self._raw, self.seed)
        return self._hashes

    def _key_ids(self) -> np.ndarray:
        """Keys as int32 ids (equal key, equal id): cheaper to sort,
        gather, and compare than raw 64-bit key values.  Streams whose
        values already fit int32 are just cast; anything wider, and
        every tuple stream, is factorized over the stream's hash."""
        if self._ids is None:
            raw = self._raw
            if raw.ndim == 1 and (
                    raw.dtype.itemsize <= 4 and raw.dtype.kind != "u" or (
                        len(raw) and raw.dtype.kind in "iu"
                        and int(raw.min()) >= np.iinfo(np.int32).min
                        and int(raw.max()) <= np.iinfo(np.int32).max)):
                self._ids = raw.astype(np.int32, copy=False)
            else:
                cols = [raw] if raw.ndim == 1 else list(raw.T)
                self._ids = factorize(cols, self._hash())[0] \
                    .astype(np.int32)
        return self._ids

    def _layout(self, n_buckets: int) -> _Layout:
        layout = self._layouts.get(n_buckets)
        if layout is not None:
            return layout
        if n_buckets == 1:
            segstart = np.zeros(self.n, dtype=bool)
            if self.n:
                segstart[0] = True
            layout = _Layout(self._key_ids(), segstart, None,
                             np.zeros(1 if self.n else 0, dtype=np.int64))
        else:
            # One quicksort of (bucket << 32 | time) replaces a stable
            # argsort and the bucket gather — much cheaper in practice.
            b = self._hash() % _U(n_buckets)
            if n_buckets <= 1 << 31:
                comp = (b.astype(np.int64) << np.int64(32)) | \
                    np.arange(self.n, dtype=np.int64)
                comp.sort()
                order = comp & np.int64(0xFFFFFFFF)
                bz = comp >> np.int64(32)
            else:                      # degenerate: more buckets than 2^31
                b = b.astype(np.int64)
                order = np.argsort(b, kind="stable")
                bz = b[order]
            segstart = np.empty(self.n, dtype=bool)
            if self.n:
                segstart[0] = True
                np.not_equal(bz[1:], bz[:-1], out=segstart[1:])
            layout = _Layout(self._key_ids()[order], segstart, order,
                             np.asarray(bz, dtype=np.int64)[segstart])
        self._layouts[n_buckets] = layout
        return layout

    def _lru_chains(self, n_buckets: int) -> _LruChains:
        chains = self._chains.get(n_buckets)
        if chains is not None:
            return chains
        layout = self._layout(n_buckets)
        kz, segstart = layout.kz, layout.segstart
        n = self.n
        # Collapse runs of the same key inside a set: every non-first
        # access of a run is a hit that leaves the LRU state unchanged,
        # and distances for the kept accesses are unaffected.
        dup = np.zeros(n, dtype=bool)
        if n:
            dup[1:] = (~segstart[1:]) & (kz[1:] == kz[:-1])
        keep = ~dup
        keep_idx = np.flatnonzero(keep)
        kz2 = kz[keep]
        segstarts2 = np.flatnonzero(segstart[keep])
        n2 = len(kz2)
        comp = (kz2.astype(np.int64) << np.int64(32)) | \
            np.arange(n2, dtype=np.int64)
        comp.sort()
        korder = comp & np.int64(0xFFFFFFFF)
        kk = comp >> np.int64(32)
        same = kk[1:] == kk[:-1]
        prev = np.full(n2, -1, dtype=np.int32)
        # Last occurrences stay "resident" until their set's end: the
        # sentinel is the segment end, which keeps every quantity below
        # strictly set-local (no cross-set terms to cancel).
        bounds = np.append(segstarts2, n2)
        nxtval = np.repeat(bounds[1:].astype(np.int32), np.diff(bounds))
        ko32 = korder.astype(np.int32)
        prev[ko32[1:][same]] = ko32[:-1][same]
        nxtval[ko32[:-1][same]] = ko32[1:][same]
        has_prev = prev >= 0
        gap = np.arange(n2, dtype=np.int32) - prev - 1
        chains = _LruChains(n2, kz2, segstarts2, prev, nxtval, gap, has_prev,
                            keep_idx)
        self._chains[n_buckets] = chains
        return chains

    def _resident(self, chains: _LruChains) -> np.ndarray:
        """``S[i]``: number of keys of ``i``'s set whose latest access
        precedes ``i`` and whose next (or set end) is at/after ``i`` —
        the set's residency profile, via one interval sweep."""
        if chains.resident is None:
            n2 = chains.n2
            delta = np.zeros(n2 + 2, dtype=np.int64)
            delta[1:n2 + 1] = 1
            # set-end sentinels repeat, so tally expiries via bincount
            delta -= np.bincount(chains.nxtval + 1, minlength=n2 + 2)
            chains.resident = np.cumsum(delta)[:n2]
        return chains.resident

    def _lru_miss_mask(self, n_buckets: int,
                       m: int) -> tuple[_LruChains, np.ndarray]:
        """Per-kept-access miss mask for an LRU geometry.

        An access with fewer than ``m`` same-set accesses since its
        previous occurrence hits outright.  For the rest, the stack
        distance is ``S[i] - 1 - inv(prev(i))`` where ``inv(p)`` counts
        earlier accesses whose next occurrence is past ``i``.  Only
        accesses whose occurrence interval spans more than ``m``
        positions can contribute to any such ``inv`` (shorter intervals
        close before the window even starts), so the merge counter runs
        on that small subset, in cache-sized per-set chunks.
        """
        chains = self._lru_chains(n_buckets)
        miss = ~chains.has_prev         # first touches always miss
        queries = chains.has_prev & (chains.gap >= m)
        q_idx = np.flatnonzero(queries)
        if len(q_idx) == 0:
            return chains, miss
        s = self._resident(chains)
        kept_rank, inv = self._kept_inv(chains, m)
        p = chains.prev[q_idx]
        dist = s[q_idx] - 1 - inv[kept_rank[p]]
        miss[q_idx] = dist >= m
        return chains, miss

    def _kept_inv(self, chains: _LruChains,
                  m: int) -> tuple[np.ndarray, np.ndarray]:
        """Previous-larger counts of the next-occurrence array over the
        accesses whose occurrence interval spans more than ``G``
        positions.

        An interval spanning ``<= G`` closes before any window of
        ``>= G`` accesses opens, so it can never be counted for such a
        query — which makes a table built at ``G0`` exact for every
        ``m >= G0``.  The table is cached and rebuilt only when a
        smaller ``m`` arrives (capacity sweeps ask ascending ``m``, so
        they pay for one build).
        """
        if chains.inv_cache is not None and chains.inv_cache[0] <= m:
            return chains.inv_cache[1], chains.inv_cache[2]
        span = chains.nxtval - np.arange(chains.n2, dtype=np.int32)
        keep = span > m
        kept_idx = np.flatnonzero(keep)
        vals = chains.nxtval[kept_idx]
        inv = np.empty(len(vals), dtype=np.int64)
        for a, b in self._merge_chunks(chains, kept_idx):
            inv[a:b] = _count_prev_greater(vals[a:b].astype(np.int64))
        kept_rank = np.cumsum(keep, dtype=np.int64) - 1
        chains.inv_cache = (m, kept_rank, inv)
        return kept_rank, inv

    @staticmethod
    def _merge_chunks(chains: _LruChains,
                      kept_idx: np.ndarray) -> Iterable[tuple[int, int]]:
        """Chunk boundaries (in kept-rank space) aligned to set
        boundaries, each chunk ~``_MERGE_CHUNK`` kept accesses."""
        nk = len(kept_idx)
        seg_rank = np.searchsorted(kept_idx, chains.segstarts2)
        targets = np.arange(_MERGE_CHUNK, nk, _MERGE_CHUNK)
        pos = np.searchsorted(seg_rank, targets, side="right") - 1
        cuts = np.unique(seg_rank[pos[pos >= 0]])
        cuts = np.concatenate(([0], cuts[cuts > 0], [nk]))
        return zip(cuts[:-1], cuts[1:])

    # -- the schedule ----------------------------------------------------------

    def _run(self, geometry: CacheGeometry, policy: str,
             carry: CacheSchedule | None = None) -> _Run:
        """The schedule of the whole stream under ``(geometry, policy)``,
        on the algorithm :class:`CacheSchedule` picks — from ``carry``'s
        replacement state, or from empty."""
        sched = carry if carry is not None \
            else CacheSchedule(geometry, policy, self.seed)
        if self.n == 0:
            empty = np.zeros(0, dtype=np.int32)
            return _Run(None, None, empty, np.zeros(0, dtype=bool), 0)
        if not sched.stacked:
            return self._replay(sched)
        if geometry.m_slots == 1:
            return self._direct(geometry)
        return self._lru(geometry)

    def _direct(self, geometry: CacheGeometry) -> _Run:
        """m == 1: the resident key of a bucket is its previous access."""
        layout = self._layout(geometry.n_buckets)
        kz, segstart = layout.kz, layout.segstart
        miss = np.ones(self.n, dtype=bool)
        miss[1:] = segstart[1:] | (kz[1:] != kz[:-1])
        # A miss evicts unless it starts a bucket's occupancy, i.e.
        # unless it is the first access of its bucket.
        evictions = int(np.count_nonzero(miss)) - \
            int(np.count_nonzero(segstart))
        return _Run(layout, None, kz, miss, evictions)

    def _lru(self, geometry: CacheGeometry) -> _Run:
        n, m = geometry.n_buckets, geometry.m_slots
        chains, miss = self._lru_miss_mask(n, m)
        cs = np.cumsum(miss, dtype=np.int64)
        starts = chains.segstarts2
        ends = np.append(starts[1:], chains.n2)
        seg_misses = cs[ends - 1] - cs[starts] + miss[starts]
        evictions = int(np.maximum(0, seg_misses - m).sum())
        return _Run(self._layout(n), chains.keep_idx, chains.kz2, miss,
                    evictions)

    def _replay(self, sched: CacheSchedule) -> _Run:
        """Exact replay of the FIFO/random ablation policies: the per-set
        ring replay of ``sched``.  Runs of the same key inside a set are
        collapsed (guaranteed hits that leave FIFO/random state
        untouched), like the LRU path."""
        layout = self._layout(sched.geometry.n_buckets)
        keep_idx, kz2, starts, lens = _collapse_runs(layout.kz,
                                                     layout.segstart)
        miss, evictions = sched._replay(kz2, starts, lens, layout.segbuckets)
        return _Run(layout, keep_idx, kz2, miss, evictions)

    def _stats(self, run: _Run) -> CacheStats:
        misses = int(np.count_nonzero(run.miss))
        return CacheStats(accesses=self.n, hits=self.n - misses,
                          misses=misses, insertions=misses,
                          evictions=run.evictions)

    # -- public API ------------------------------------------------------------

    def stats(self, geometry: CacheGeometry, policy: str = "lru") -> CacheStats:
        """Counters of a full run, bit-identical to the row engine."""
        return self._stats(self._run(geometry, policy))

    def miss_schedule(self, geometry: CacheGeometry,
                      policy: str = "lru") -> np.ndarray:
        """Per-access miss flags, in stream order — the schedule the
        vectorized split store executes.

        ``out[i]`` is True when access ``i`` misses (inserts a fresh
        value, possibly evicting); False when it hits the resident
        entry.  Exactly the hit/miss decisions
        :meth:`KeyValueCache.access` would make, access by access:
        collapsed duplicate accesses (a key's repeats inside its set)
        are guaranteed hits, and every kept access's flag is scattered
        back through the layout permutation.
        """
        return self.stats_and_schedule(geometry, policy)[1]

    def stats_and_schedule(self, geometry: CacheGeometry,
                           policy: str = "lru",
                           carry: CacheSchedule | None = None,
                           ) -> tuple[CacheStats, np.ndarray]:
        """Counters and per-access miss flags (stream order) of one run.
        ``carry`` continues a :class:`CacheSchedule`'s replacement state
        (the stream's key ids must then be the schedule's)."""
        run = self._run(geometry, policy, carry)
        # Scatter only the miss positions back to stream order.
        pos = np.flatnonzero(run.miss)
        if run.keep_idx is not None:
            pos = run.keep_idx[pos]
        if run.layout is not None and run.layout.order is not None:
            pos = run.layout.order[pos]
        miss = np.zeros(self.n, dtype=bool)
        miss[pos] = True
        return self._stats(run), miss

    def validity(self, geometry: CacheGeometry,
                 policy: str = "lru") -> tuple[int, int]:
        """(valid, total) keys under a non-mergeable fold (Fig. 6).

        A key's backing-store segment count equals its miss count (each
        insertion starts a residency that ends in one push — eviction
        or final flush), so a key is *valid* iff it missed exactly
        once.  Matches ``repro.analysis.accuracy._window_validity``.
        """
        run = self._run(geometry, policy)
        return _single_miss_validity(run.kz[run.miss])


class _Run(NamedTuple):
    """One schedule over a stream, in layout space: the kept accesses'
    key ids and miss flags (``keep_idx``: their layout positions,
    ``None`` when every access is kept) and the eviction count."""

    layout: _Layout | None
    keep_idx: np.ndarray | None
    kz: np.ndarray
    miss: np.ndarray
    evictions: int


class CacheSchedule:
    """The replacement state of one cache ``(geometry, policy, seed)``,
    carried across the windows of a key stream.

    :meth:`schedule` returns a window's miss flags and evictions from
    the carried state and advances it — bit-identical to
    :class:`KeyValueCache` for every window partitioning.  It is the one
    place that picks the algorithm:

    * a direct-mapped geometry (``m_slots == 1``: one slot per bucket
      makes the policies indistinguishable) or LRU runs on stack
      distances.  By the LRU inclusion property the resident keys of a
      set are its ``m`` most recently accessed distinct keys; prepending
      them to the next window as one *phantom access* each (per set,
      oldest → newest) reconstructs the replacement state exactly, and
      the phantoms fill at most ``m`` slots per set and never evict.
    * every other geometry and policy runs the per-set ring replay
      (:func:`_replay_segments`), whose state — each set's resident
      keys oldest → newest, its occupancy and the random policy's
      eviction counter (the RNG state) — lives in arrays whose rows a
      registry of touched sets assigns.

    :class:`VectorCacheSim` runs a fresh schedule over its whole stream.
    """

    def __init__(self, geometry: CacheGeometry, policy: str = "lru",
                 seed: int = 0):
        if policy not in KeyValueCache.POLICIES:
            raise HardwareError(f"unknown eviction policy {policy!r}")
        self.geometry = geometry
        self.policy = policy
        self.seed = seed
        self.stacked = geometry.m_slots == 1 or policy == "lru"
        # Stack distances: the resident keys (ids, hashes), per set
        # oldest → newest.
        self._res_gids = np.zeros(0, dtype=np.int64)
        self._res_hashes = np.zeros(0, dtype=np.uint64)
        # Ring replay: state rows of the touched sets.
        self._known_ids = np.zeros(0, dtype=np.int64)    # sorted bucket ids
        self._known_rows = np.zeros(0, dtype=np.int64)   # their state rows
        self._set_of_row = np.zeros(0, dtype=np.int64)   # inverse mapping
        self._n_sets = 0
        self._ring = np.full((0, geometry.m_slots), _FILLER, dtype=np.int64)
        self._count = np.zeros(0, dtype=np.int64)
        self._counters = np.zeros(0, dtype=np.uint64)

    def schedule(self, gids: np.ndarray, hashes: np.ndarray,
                 final: bool = False) -> tuple[np.ndarray, int]:
        """Miss flags (stream order) and eviction count of the next
        window: ``gids`` holds its key ids (equal key ⇔ equal id, the
        same id in every window, ``< 2^31``) and ``hashes`` the keys'
        :func:`mix_key_array` under the schedule's seed — all the
        simulation reads of a key.  ``final`` marks the last window,
        whose residency nothing reads: the stack-distance path then
        skips extracting it."""
        if not len(gids):
            return np.zeros(0, dtype=bool), 0
        r = len(self._res_gids)
        ids = gids
        if r:
            ids = np.concatenate([self._res_gids, gids])
            hashes = np.concatenate([self._res_hashes, hashes])
        sim = VectorCacheSim(ids, seed=self.seed, key_ids=ids, hashes=hashes)
        stats, miss = sim.stats_and_schedule(self.geometry, self.policy,
                                             carry=self)
        if self.stacked and not final:
            self._keep_residency(sim)
        return miss[r:], stats.evictions

    def resident(self, gids: np.ndarray) -> np.ndarray:
        """Whether each key id is cached after the last (non-final)
        window."""
        if self.stacked:
            return np.isin(gids, self._res_gids)
        held = self._ring[:self._n_sets]
        return np.isin(gids, held[held != _FILLER])

    def _keep_residency(self, sim: VectorCacheSim) -> None:
        """Read each set's resident keys, oldest → newest, off the
        simulator's memoized layout: a set's last access for ``m == 1``,
        otherwise the last ``m`` of the kept accesses whose next
        occurrence is their set's end (each key's last access)."""
        n_buckets, m = self.geometry.n_buckets, self.geometry.m_slots
        layout = sim._layout(n_buckets)
        if m == 1:
            pos = np.flatnonzero(np.append(layout.segstart[1:], True))
            ids = layout.kz[pos]
        else:
            chains = sim._lru_chains(n_buckets)
            bounds = np.append(chains.segstarts2, chains.n2)
            is_last = chains.nxtval == np.repeat(bounds[1:], np.diff(bounds))
            last = np.flatnonzero(is_last)
            counts = np.add.reduceat(is_last, chains.segstarts2,
                                     dtype=np.int64)
            ends = np.repeat(np.cumsum(counts), counts)
            kept = last[ends - np.arange(len(last)) <= m]
            ids = chains.kz2[kept]
            pos = chains.keep_idx[kept]
        if layout.order is not None:
            pos = layout.order[pos]
        self._res_gids = ids.astype(np.int64)
        self._res_hashes = sim._hash()[pos]

    def _replay(self, kz: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                seg_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Ring replay of one laid-out, run-collapsed window from the
        carried state: segment ``s`` is set ``seg_ids[s]``'s key ids
        ``kz[starts[s]:starts[s] + lens[s]]``.  Returns the kept
        accesses' miss flags and the eviction count."""
        return _replay_segments(
            kz, starts, lens, self._rows_for(seg_ids), self._set_of_row,
            self.geometry.m_slots, self.policy, self.seed, self._ring,
            self._count, self._counters)

    def _rows_for(self, seg_ids: np.ndarray) -> np.ndarray:
        """State rows for a window's (sorted, unique) bucket ids,
        registering unseen sets with empty state."""
        rows = np.empty(len(seg_ids), dtype=np.int64)
        if self._n_sets == 0:
            fresh = np.ones(len(seg_ids), dtype=bool)
        else:
            pos = np.searchsorted(self._known_ids, seg_ids)
            found = pos < len(self._known_ids)
            safe = np.where(found, pos, 0)
            found &= self._known_ids[safe] == seg_ids
            rows[found] = self._known_rows[safe[found]]
            fresh = ~found
        n_new = int(np.count_nonzero(fresh))
        if n_new:
            start = self._n_sets
            new_rows = start + np.arange(n_new)
            rows[fresh] = new_rows
            self._grow(start + n_new)
            self._n_sets = start + n_new
            new_ids = seg_ids[fresh]
            self._set_of_row[new_rows] = new_ids
            ins = np.searchsorted(self._known_ids, new_ids)
            self._known_ids = np.insert(self._known_ids, ins, new_ids)
            self._known_rows = np.insert(self._known_rows, ins, new_rows)
        return rows

    def _grow(self, n: int) -> None:
        cap = len(self._count)
        if cap >= n:
            return
        # One capacity for every state array (the rows of _ring must
        # stay aligned with the 1-D arrays and the set registry), and
        # never more rows than the geometry has sets: a few-set
        # geometry's rows are long (a fully associative cache is one
        # row holding every slot).
        new_cap = min(max(n, 2 * cap, 1024), self.geometry.n_buckets)
        ring = np.full((new_cap, self.geometry.m_slots), _FILLER,
                       dtype=np.int64)
        ring[:cap] = self._ring
        self._ring = ring
        for name in ("_count", "_counters", "_set_of_row"):
            old = getattr(self, name)
            new = np.zeros(new_cap, dtype=old.dtype)
            new[:cap] = old
            setattr(self, name, new)

    # -- durable checkpoints -------------------------------------------------

    def checkpoint_state(self) -> dict:
        if self.stacked:
            return {
                "kind": "lru",
                "res_gids": self._res_gids.copy(),
                "res_hashes": self._res_hashes.copy(),
            }
        n = self._n_sets
        return {
            "kind": "ring",
            "known_ids": self._known_ids.copy(),
            "known_rows": self._known_rows.copy(),
            "set_of_row": self._set_of_row[:n].copy(),
            "n_sets": n,
            "ring": self._ring[:n].copy(),
            "count": self._count[:n].copy(),
            "counters": self._counters[:n].copy(),
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload (taking ownership of
        its arrays)."""
        kind = "lru" if self.stacked else "ring"
        if state.get("kind") != kind:
            raise CheckpointError(
                f"scheduler state mismatch: snapshot carries "
                f"{state.get('kind')!r}, store expects {kind!r}")
        if self.stacked:
            self._res_gids = state["res_gids"]
            self._res_hashes = state["res_hashes"]
            return
        self._known_ids = state["known_ids"]
        self._known_rows = state["known_rows"]
        self._set_of_row = state["set_of_row"]
        self._n_sets = state["n_sets"]
        self._ring = state["ring"]
        self._count = state["count"]
        self._counters = state["counters"]


def _single_miss_validity(miss_keys: np.ndarray) -> tuple[int, int]:
    """(valid, total) from the keys of all miss accesses: every key
    misses at least once, and is valid iff it missed exactly once."""
    if len(miss_keys) == 0:
        return 0, 0
    _, counts = np.unique(miss_keys, return_counts=True)
    return int(np.count_nonzero(counts == 1)), len(counts)


def key_array(keys) -> np.ndarray:
    """The vector cache engine's door: ``keys`` — an integer array, or
    any iterable of integer keys or equal-length integer tuples — as a
    1-D (scalar keys) or 2-D (tuple keys, one column per part) integer
    array.  An empty stream is int64 whatever it came as.  Any other
    stream raises :class:`HardwareError`: arbitrary hashable keys run
    on ``engine="row"``."""
    if not isinstance(keys, np.ndarray):
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        try:
            keys = np.asarray(keys)
        except (TypeError, ValueError, OverflowError) as exc:
            raise HardwareError(
                f"vector cache engine needs integer keys ({exc}); pass "
                'engine="row" for arbitrary hashable keys') from None
    if keys.size == 0:
        keys = keys.astype(np.int64)
    if keys.ndim not in (1, 2) or keys.dtype.kind not in "iub":
        raise HardwareError(
            f"vector cache engine needs 1-D or 2-D integer keys, got a "
            f"{keys.ndim}-D {keys.dtype} stream; pass "
            'engine="row" for arbitrary hashable keys')
    return keys


def simulate_eviction_count_vector(keys, geometry: CacheGeometry,
                                   policy: str = "lru",
                                   seed: int = 0) -> CacheStats:
    """One-shot vector-engine counterpart of
    :func:`repro.switch.kvstore.cache.simulate_eviction_count`."""
    return VectorCacheSim(keys, seed=seed).stats(geometry, policy=policy)


def window_validity_vector(keys, geometry: CacheGeometry,
                           seed: int = 0,
                           policy: str = "lru") -> tuple[int, int]:
    """(valid, total) keys for one window — the vector engine behind
    ``repro.analysis.accuracy._window_validity``."""
    return VectorCacheSim(keys, seed=seed).validity(geometry, policy=policy)
