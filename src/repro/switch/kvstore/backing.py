"""Off-chip backing store of the split key-value store (paper §3.2).

The backing store is the large, slower key-value store (switch-CPU
DRAM, or a scale-out store such as Redis/Memcached) that absorbs cache
evictions.  Its behaviour depends on each fold's merge spec:

* **mergeable folds** (linear in state): the evicted value is merged
  with the stored value via the synthesised merge function; the store
  always holds one value per key, and — for folds with packet-pure
  coefficients — that value is exact;
* **non-mergeable folds**: the store appends the evicted value to a
  per-key *list of segments*, "each item ... tracks the key's value
  between two evictions"; a key with more than one segment is marked
  **invalid** because a single correct value cannot be inferred,
  though each segment remains correct over its own interval (§3.2).

The store counts absorbed evictions (``writes``) so the telemetry layer
can report the write rate the backing store must sustain — the Fig. 5
right-hand axis — and offers an optional op/s budget check against the
quoted capability of scale-out stores (~100s of K ops/s per core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping

from repro.core.eval_expr import Numeric
from repro.core.merge_synthesis import AuxState, MergeSpec, State, merge_values
from repro.core.plan import FoldConfig


@dataclass
class KeyEntry:
    """Backing-store record for one key."""

    merged: dict[str, State] = field(default_factory=dict)       # fold -> state
    segments: dict[str, list[State]] = field(default_factory=dict)  # fold -> epochs
    epochs: int = 0

    def segment_count(self, fold: str) -> int:
        return len(self.segments.get(fold, ()))


class BackingStore:
    """Absorbs evictions for one ``GROUPBY`` stage.

    Args:
        folds: The stage's fold configurations (merge specs + inits).
        params: Query-parameter bindings (used by exact-history replay).
    """

    def __init__(self, folds: tuple[FoldConfig, ...],
                 params: Mapping[str, Numeric] | None = None):
        self.folds = folds
        self.params = dict(params or {})
        self.specs: dict[str, MergeSpec] = {f.column: f.merge for f in folds}
        self.inits: dict[str, State] = {
            f.column: f.instance.initial_state() for f in folds
        }
        self.data: dict[Hashable, KeyEntry] = {}
        self.writes = 0

    # -- absorption --------------------------------------------------------

    def absorb(self, key: Hashable, value: Mapping[str, State],
               aux: Mapping[str, AuxState]) -> None:
        """Absorb one evicted cache entry (one backing-store write)."""
        self.writes += 1
        entry = self.data.get(key)
        if entry is None:
            entry = KeyEntry()
            self.data[key] = entry
        entry.epochs += 1
        for fold in self.folds:
            column = fold.column
            spec = self.specs[column]
            evicted_state = dict(value[column])
            if spec.mergeable:
                entry.merged[column] = merge_values(
                    spec,
                    evicted=evicted_state,
                    aux=aux[column],
                    backing=entry.merged.get(column),
                    init_state=self.inits[column],
                    params=self.params,
                )
            else:
                entry.segments.setdefault(column, []).append(evicted_state)

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def keys(self) -> Iterator[Hashable]:
        return iter(self.data)

    def is_valid(self, key: Hashable) -> bool:
        """Per §3.2: a key is invalid when any non-mergeable fold has
        accumulated more than one segment for it."""
        entry = self.data[key]
        for fold in self.folds:
            if not self.specs[fold.column].mergeable:
                if entry.segment_count(fold.column) > 1:
                    return False
        return True

    def value_of(self, key: Hashable, column: str) -> State | None:
        """Best available state for ``(key, fold)``.

        Mergeable folds return the merged state.  Non-mergeable folds
        return their single segment when the key is valid and ``None``
        otherwise (a single correct value cannot be inferred).
        """
        entry = self.data.get(key)
        if entry is None:
            return None
        spec = self.specs[column]
        if spec.mergeable:
            return entry.merged.get(column)
        segments = entry.segments.get(column, [])
        if len(segments) == 1:
            return segments[0]
        return None

    def segments_of(self, key: Hashable, column: str) -> list[State]:
        """All per-epoch segments for a non-mergeable fold — "each value
        in the list is correct over a specific time interval" (§3.2)."""
        entry = self.data.get(key)
        if entry is None:
            return []
        return list(entry.segments.get(column, ()))

    # -- accuracy accounting (Fig. 6) -------------------------------------------

    def validity_stats(self) -> tuple[int, int]:
        """``(valid_keys, total_keys)`` for the Fig. 6 accuracy metric.

        Only non-mergeable folds can invalidate a key (§3.2), so a
        stage whose folds are all linear-in-state skips the per-key
        scan outright.
        """
        if all(spec.mergeable for spec in self.specs.values()):
            return len(self.data), len(self.data)
        valid = sum(1 for key in self.data if self.is_valid(key))
        return valid, len(self.data)

    @property
    def accuracy(self) -> float:
        """Percent of valid keys (1.0 when the store is empty)."""
        valid, total = self.validity_stats()
        return valid / total if total else 1.0
