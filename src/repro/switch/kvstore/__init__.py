"""The programmable key-value store: split cache/backing design (§3.2).

:mod:`.cache` — n×m bucketed LRU SRAM cache (Fig. 4);
:mod:`.vector_cache` — array-native replacement-policy simulator
(the vector engine behind the Fig. 5/6 sweeps);
:mod:`.backing` — DRAM store with merge / value-list semantics;
:mod:`.split` — the combined engine for one ``GROUPBY`` stage (Fig. 3);
:mod:`.vector_store` — the per-epoch fold kernel of the schedule-driven
batch counterpart of :mod:`.split` (bit-identical, array-native);
:mod:`.windowed_store` — that counterpart itself, executing window by
window with carried state (one window when unbounded).
"""

from .backing import BackingStore, KeyEntry
from .sketch import CountMinSketch, SketchGeometry
from .cache import (
    CacheGeometry,
    CacheStats,
    Entry,
    KeyValueCache,
    mix_key,
    simulate_eviction_count,
    splitmix64,
)
from .split import CacheValue, SplitKeyValueStore
from .vector_cache import (
    VectorCacheSim,
    mix_key_array,
    simulate_eviction_count_vector,
    splitmix64_array,
    window_validity_vector,
)
from .vector_store import VectorSplitStore
from .windowed_store import WindowedVectorStore

__all__ = [
    "BackingStore",
    "CacheGeometry",
    "CacheStats",
    "CacheValue",
    "CountMinSketch",
    "SketchGeometry",
    "Entry",
    "KeyEntry",
    "KeyValueCache",
    "SplitKeyValueStore",
    "VectorCacheSim",
    "VectorSplitStore",
    "WindowedVectorStore",
    "mix_key",
    "mix_key_array",
    "simulate_eviction_count",
    "simulate_eviction_count_vector",
    "splitmix64",
    "splitmix64_array",
    "window_validity_vector",
]
