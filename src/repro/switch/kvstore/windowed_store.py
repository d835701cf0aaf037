"""The vector split store: schedule-driven execution, window by window.

:class:`WindowedVectorStore` is the one vector split store the runtime
instantiates.  It executes the schedule-driven machinery of
:mod:`~repro.switch.kvstore.vector_store` **window by window** with
carried state — every ``window`` accesses, or, with ``window=None``
(unbounded), once over everything buffered when an observable is read
(``finalize()``, ``snapshot()``, ``stats``).  A bounded window bounds
peak memory by the window (plus per-key results); either way every
observable stays **bit-identical** to the per-packet row store, for
*any* window partitioning:

1. **Carried residency.** The cache's replacement state at a window
   boundary lives in one
   :class:`~repro.switch.kvstore.vector_cache.CacheSchedule`, which
   schedules each window from it and advances it: a phantom prefix of
   each set's resident keys for LRU and direct-mapped geometries, the
   per-set ring replay's carried rings (resident keys, oldest →
   newest), occupancy and random-policy RNG counters otherwise.  A key it reports
   non-resident at a boundary can only miss on its next access.

2. **Carried open epochs.** A key's current cache-residency epoch can
   span windows.  Its partial fold state (and merge registers) is
   carried in per-key *arrays*, for every merge class, and injected as
   the initial per-epoch state of the next window's segmented fold
   evaluation (``init_override`` in :mod:`repro.core.vector_exec`; the
   sequential classes — full-matrix, exact-history scale — resume
   their scalar replay from the same arrays as dicts); accumulations
   and round updates then perform the same scalar operations in the
   same order as an uncut epoch, so results are bit-identical.  An
   exact-history epoch's packet log, post-prefix snapshot and ``seen``
   count continue by per-epoch offsets from the carried ``seen`` (see
   ``VectorSplitStore._eval_additive``) — no replay.  An epoch
   closes — and is absorbed, in per-key chronological order — when its
   key misses again, when a periodic-refresh boundary passes (global
   positions), or when the key is found non-resident at a window
   boundary (its next access, if any, must miss, so the epoch is
   provably complete).  Open-epoch state is therefore bounded by the
   cache capacity.

3. **Carried merges, one merged form for every merge class.** The
   absorption target is one set of per-key arrays over persistent
   global key ids: each key's absorbed-epoch count, each mergeable
   fold's merged state (written by the merge kernel,
   :func:`~repro.switch.kvstore.vector_store.absorb_epochs`, which
   mirrors ``merge_values`` element for element), and each ``list``
   fold's segment log (state values key-major; a key's segment count
   is its epoch count).  No per-epoch Python dict is built: the row
   engine's :class:`BackingStore` is the oracle, and is materialised
   here only on demand for the ``.backing`` API.  Each window's key
   rows are hashed once (:func:`~repro.core.vector_exec.mix_key_array`
   under the store's seed): that one hash sorts the window's
   factorization, picks every access's cache set, and orders the
   index of known keys.  Window keys map to global ids with one
   ``searchsorted`` of their hash over that index, each match verified
   against the full key row — no per-access Python; only rows whose
   hash collides are resolved one by one.  The index is built on the
   first lookup (a run that is one window never builds it) and merged
   incrementally after that.  A shard worker registers each batch's
   keys as it arrives (:meth:`WindowedVectorStore.key_ids`, in stream
   order, so the ids are the ones its windows would assign) to index
   its keys' first-access positions by key id.  The merged result is read through one
   plain-data :class:`MergedState`:
   :meth:`WindowedVectorStore.merged_state` builds it — views of the
   final arrays once finalized, copies with every carried open epoch
   absorbed mid-stream — and ``result_table``, ``backing``,
   ``backing_writes``, ``accuracy`` and ``snapshot`` all read it.  A
   shard worker ships the same form, and the shard combine
   (:mod:`~repro.switch.kvstore.sharded`) concatenates its copies.

Differential tests (``tests/test_session.py``,
``tests/test_vector_store.py``) assert bit-identical tables, counters,
accuracy, writes, and refresh counts against the row store across the
query catalog, multiple window sizes (unbounded included), and refresh
intervals that cut mid-window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.core.errors import CheckpointError, HardwareError
from repro.core.eval_expr import EvalContext, Numeric, evaluate
from repro.core.interpreter import ResultTable
from repro.core.merge_synthesis import AuxState, State
from repro.core.plan import FoldConfig, GroupByStage
from repro.core.vector_exec import (
    ArrayContext,
    GroupLayout,
    VectorizationError,
    as_column,
    eval_array,
    factorize,
)

from .backing import BackingStore, KeyEntry
from .cache import CacheGeometry, CacheStats
from .vector_cache import CacheSchedule, mix_key_array
from .split import StoreSnapshot
from .vector_store import VectorSplitStore, absorb_epochs, \
    aux_from_registers, exact_array, scatter_promote


@dataclass(eq=False)
class MergedState:
    """One stage's merged per-key results, in first-access key order —
    what the store holds as if the stream ended now, what a shard
    worker ships back, and what the shard combine concatenates.  Plain
    data (it crosses the shard pipe): observables take the stage and
    params as arguments.

    ``keys`` holds the key rows (2-D int64) and ``epochs`` each key's
    absorbed epochs — also its segment count in every ``list`` fold.
    ``merged`` maps each mergeable fold to its per-key state arrays
    (fold -> variable -> array); ``segments`` maps each ``list`` fold
    to its segment log (fold -> variable -> values key-major, each
    key's segments chronological).
    """

    keys: np.ndarray
    writes: int
    epochs: np.ndarray
    merged: dict[str, dict[str, np.ndarray]]
    segments: dict[str, dict[str, np.ndarray]]
    _backing: BackingStore | None = field(default=None, init=False,
                                          repr=False)

    def key_tuples(self) -> list[tuple]:
        """The keys as tuples of Python ints, in row order."""
        return _row_tuples(self.keys)

    def valid(self) -> np.ndarray | None:
        """Per-key validity (§3.2: a key is invalid once a ``list`` fold
        holds more than one segment for it); ``None`` when the stage has
        no ``list`` fold."""
        if not self.segments:
            return None
        return self.epochs <= 1

    def table(self, stage: GroupByStage, params: Mapping[str, Numeric],
              include_invalid: bool = False) -> ResultTable:
        """The stage's result table, built as columns.  A ``list`` fold
        reads each key's last segment — its one segment when the key is
        valid; an invalid key's row is dropped, or with
        ``include_invalid`` kept without its derived cells over a
        ``list`` fold (the row store's table)."""
        n = len(self.keys)
        states = dict(self.merged)
        if self.segments:
            last = np.cumsum(self.epochs) - 1
            for col, values in self.segments.items():
                states[col] = {var: vals[last]
                               for var, vals in values.items()}
        out: dict[str, np.ndarray] = {
            name: self.keys[:, j] for j, name in enumerate(stage.key.fields)
        }
        for col in stage.output.columns:
            if col.kind == "agg":
                out[col.name] = states[col.fold][col.state_var]
            elif col.kind == "derived":
                out[col.name] = _derived(col.read_expr, states[col.fold],
                                         params, n)
        valid = self.valid()
        if valid is None or valid.all():
            return ResultTable.from_columns(stage.output, out)
        if not include_invalid:
            keep = np.flatnonzero(valid)
            return ResultTable.from_columns(
                stage.output, {name: col[keep] for name, col in out.items()})
        table = ResultTable.from_columns(stage.output, out)
        blank = [col.name for col in stage.output.columns
                 if col.kind == "derived" and col.fold in self.segments]
        if blank:
            rows = table.rows
            for i in np.flatnonzero(~valid).tolist():
                for name in blank:
                    del rows[i][name]
        return table

    def backing(self, stage: GroupByStage,
                params: Mapping[str, Numeric]) -> BackingStore:
        """A real per-key :class:`BackingStore` over this state,
        materialised once, on demand (the ``.backing`` API)."""
        if self._backing is None:
            backing = BackingStore(stage.folds, params=params)
            backing.writes = self.writes
            merged = [(col, [(var, arr.tolist()) for var, arr in per.items()])
                      for col, per in self.merged.items()]
            segments = [(col, [(var, arr.tolist())
                               for var, arr in per.items()])
                        for col, per in self.segments.items()]
            start = 0
            for g, (key, count) in enumerate(zip(self.key_tuples(),
                                                 self.epochs.tolist())):
                end = start + count
                backing.data[key] = KeyEntry(
                    merged={col: {var: vals[g] for var, vals in items}
                            for col, items in merged},
                    segments={col: [{var: vals[s] for var, vals in items}
                                    for s in range(start, end)]
                              for col, items in segments},
                    epochs=count,
                )
                start = end
            self._backing = backing
        return self._backing

    def accuracy(self) -> float:
        """Fig. 6 accuracy: the valid fraction of keys (1.0 with no
        ``list`` fold, or no key)."""
        valid = self.valid()
        if valid is None or not len(valid):
            return 1.0
        return int(np.count_nonzero(valid)) / len(valid)


def _derived(expr, state: Mapping[str, np.ndarray],
             params: Mapping[str, Numeric], n: int) -> np.ndarray:
    """A derived column over per-key states: one array evaluation, or
    the scalar evaluator per key where the array evaluator cannot
    express the expression."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return as_column(
                eval_array(expr, ArrayContext({}, params, n, state=state)), n)
    except VectorizationError:
        lists = {var: arr.tolist() for var, arr in state.items()}
        return exact_array([
            evaluate(expr, EvalContext(
                state={var: vals[i] for var, vals in lists.items()},
                params=params))
            for i in range(n)])


class _SegmentLog:
    """One ``list`` fold's absorbed segments (§3.2): state values
    key-major, each key's segments chronological, with each segment's
    global key id (a key's count is its epoch count).  Absorbed chunks
    wait in arrival order and merge in on the next :meth:`read`; the
    arrays are replaced, never mutated, so a read stays valid."""

    __slots__ = ("gids", "values", "_pending")

    def __init__(self, gids: np.ndarray, values: dict[str, np.ndarray]):
        self.gids = gids
        self.values = values
        self._pending: list[tuple[np.ndarray, Mapping[str, np.ndarray]]] = []

    def append(self, gids: np.ndarray,
               values: Mapping[str, np.ndarray]) -> None:
        self._pending.append((gids, values))

    def read(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        if self._pending:
            gids = np.concatenate([g for g, _ in self._pending])
            order = np.argsort(gids, kind="stable")
            new = {var: np.concatenate([v[var] for _, v in self._pending])
                   [order] for var in self._pending[0][1]}
            self.gids, self.values = _insert_segments(
                self.gids, self.values, gids[order], new)
            self._pending.clear()
        return self.gids, self.values


def _insert_segments(gids: np.ndarray, values: Mapping[str, np.ndarray],
                     new_gids: np.ndarray,
                     new_values: Mapping[str, np.ndarray],
                     ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A key-major segment log with new segments (``new_gids``
    ascending, each key's chronological) placed after each key's
    existing ones — new arrays, one linear merge."""
    pos = np.searchsorted(gids, new_gids, side="right")
    out = {}
    for var, vals in new_values.items():
        old = values.get(var)
        if old is None:
            old = vals[:0]
        dtype = np.result_type(old.dtype, vals.dtype)
        out[var] = np.insert(old.astype(dtype, copy=False), pos, vals)
    return np.insert(gids, pos, new_gids), out


class _ArrayCont:
    """Epoch continuation over the carried open-epoch arrays: epochs of
    the current window that resume a carried open epoch (``eids``, ids
    in the window's layout; ``gids``, their keys), read through
    ``override``/``register`` on the vectorized fold paths and as
    per-epoch dicts (:meth:`dicts`) on the replay."""

    __slots__ = ("eids", "gids", "_spec", "_state", "_regs")

    def __init__(self, eids: np.ndarray, gids: np.ndarray, spec,
                 state: dict[str, np.ndarray],
                 regs: dict[tuple, np.ndarray]):
        self.eids = eids
        self.gids = gids
        self._spec = spec
        self._state = state
        self._regs = regs

    def register(self, key: tuple) -> np.ndarray:
        """The carried merge register ``key`` (see
        :func:`~repro.switch.kvstore.vector_store.register_keys`),
        aligned with ``eids``."""
        return self._regs[key][self.gids]

    def override(self, fold: FoldConfig, n_groups: int,
                 variables) -> dict[str, np.ndarray]:
        """Per-group initial-value arrays for ``variables``: the fold's
        scalar init everywhere, the carried value at continuing epochs
        (dtype-promoted so carried floats are not truncated)."""
        out: dict[str, np.ndarray] = {}
        for var in variables:
            init = fold.instance.inits.get(var, 0)
            arr = np.full(n_groups, init,
                          dtype=np.float64 if isinstance(init, float)
                          else np.int64)
            vals = self._state[var][self.gids]
            dtype = np.result_type(arr.dtype, vals.dtype)
            if dtype != arr.dtype:
                arr = arr.astype(dtype)
            arr[self.eids] = vals
            out[var] = arr
        return out

    def dicts(self) -> tuple[list[State], list[AuxState]]:
        """The carried epochs as fresh per-epoch state and
        :data:`AuxState` dicts (the replay's form)."""
        return _carried_dicts(self._spec, self._state, self._regs,
                              self.gids)


class WindowedVectorStore(VectorSplitStore):
    """The vector split store: executes the schedule-driven machinery
    of :class:`VectorSplitStore` once per ``window`` accesses with
    carried residency/epoch state (see the module docstring), so
    unbounded streams run in bounded memory.  ``window=None`` buffers
    until an observable is read and then runs everything buffered as
    one window — the fastest schedule for a bounded trace.  Results do
    not depend on where windows cut, so every observable, mid-stream
    :meth:`snapshot` reads included, is the same either way.
    """

    def __init__(
        self,
        stage: GroupByStage,
        geometry: CacheGeometry,
        params: Mapping[str, Numeric] | None = None,
        policy: str = "lru",
        seed: int = 0,
        refresh_interval: int | None = None,
        window: int | None = None,
    ):
        super().__init__(stage, geometry, params=params, policy=policy,
                         seed=seed, refresh_interval=refresh_interval)
        if window is not None and window <= 0:
            raise HardwareError("window must be positive")
        self.window = window
        self._key_chunks: list[np.ndarray] = []
        self._col_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in self.needed_fields
        }
        self._buffered = 0
        self._total = 0
        # Persistent key table: unique key rows in first-seen
        # (= first-access) order, with a hash-sorted index (built on
        # first lookup, see key_ids) for vectorized window-key ->
        # global-id matching.
        self._nkeys = 0
        self._all_keys = np.zeros((0, len(stage.key.fields)),
                                  dtype=np.int64)
        self._index_hash: np.ndarray | None = None
        self._index_gid: np.ndarray | None = None
        # Open epochs, bounded by cache capacity: a per-key flag/last-
        # position pair, per-key state and merge-register arrays.
        self._open_mask = np.zeros(0, dtype=bool)
        self._open_pos = np.zeros(0, dtype=np.int64)
        self._open_state: dict[str, dict[str, np.ndarray]] = {
            fold.column: {} for fold in stage.folds}
        self._open_aux: dict[str, dict[tuple, np.ndarray]] = {
            fold.column: {} for fold in stage.folds}
        self._sched = CacheSchedule(geometry, policy, seed)
        # Absorption target (module docstring, item 3): per-key epoch
        # counts, merged arrays per mergeable fold, a segment log per
        # list fold.
        self._epochs = np.zeros(0, dtype=np.int64)
        self._merged: dict[str, dict[str, np.ndarray]] = {
            fold.column: {} for fold in stage.folds if fold.merge.mergeable}
        self._segments = {
            fold.column: _SegmentLog(np.zeros(0, dtype=np.int64), {})
            for fold in stage.folds if not fold.merge.mergeable}
        self._writes = 0
        self._final_state: MergedState | None = None

    # -- ingestion -----------------------------------------------------------

    def add_batch(self, keys: np.ndarray,
                  columns: Mapping[str, np.ndarray]) -> None:
        if self._finalized:
            raise HardwareError("store already finalized")
        if keys.ndim != 2 or keys.dtype.kind not in "iub":
            raise HardwareError("vector store needs a 2-D integer key array")
        self._key_chunks.append(keys)
        for name in self.needed_fields:
            try:
                self._col_chunks[name].append(columns[name])
            except KeyError:
                raise HardwareError(f"missing fold input column {name!r}") \
                    from None
        self._buffered += len(keys)
        if self.window is not None and self._buffered >= self.window:
            self._drain()

    def _drain(self, final: bool = False) -> None:
        """Execute everything buffered as one window (``final``: the
        last one — the store is finalized right after)."""
        if self._buffered == 0:
            return
        keys2d = np.ascontiguousarray(np.concatenate(self._key_chunks))
        if keys2d.dtype != np.int64:
            keys2d = keys2d.astype(np.int64)
        columns = {
            name: np.concatenate(chunks)
            for name, chunks in self._col_chunks.items()
        }
        self._key_chunks.clear()
        for chunks in self._col_chunks.values():
            chunks.clear()
        self._buffered = 0
        self._run_window(keys2d, columns, final)

    # -- global key ids ------------------------------------------------------

    @property
    def n_keys(self) -> int:
        """Keys registered so far; their ids are ``0 .. n_keys - 1``."""
        return self._nkeys

    def key_ids(self, keys2d: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Persistent global ids of key rows ``keys2d`` (row hash
        ``h``; a window's, or a shard worker's batch), registering
        unseen keys in first-occurrence order:
        the rows are factorized over ``h``, and the unique rows are
        looked up with one ``searchsorted`` of their hashes against the
        hash-sorted index of the known keys, each match verified against
        the full key row.  The first window knows no keys and needs no
        index; the index is built on the first lookup and merged
        incrementally after that."""
        lgid, unique_cols, n_unique = factorize(list(keys2d.T), h)
        hashes = np.empty(n_unique, dtype=np.uint64)
        hashes[lgid] = h
        rows = np.column_stack(unique_cols)
        start = self._nkeys
        if start == 0:
            l2g = np.arange(len(rows), dtype=np.int64)
            new_rows = rows
        else:
            # Search in hash order: sorted probes walk the index
            # monotonically, several times faster than random ones.
            order = np.argsort(hashes, kind="stable")
            hashes = hashes[order]
            index_hash, index_gid = self._key_index()
            lo = np.searchsorted(index_hash, hashes, side="left")
            hi = np.searchsorted(index_hash, hashes, side="right")
            found = self._verify(rows[order], lo, hi)
            unseen = np.flatnonzero(found < 0)          # hash order
            fresh = np.zeros(len(rows), dtype=bool)
            fresh[order[unseen]] = True
            new_rows = rows[fresh]
            l2g = np.empty(len(rows), dtype=np.int64)
            l2g[order] = found
            l2g[fresh] = start + np.arange(len(new_rows))
            if len(new_rows):
                # Merge the new keys into the index at their search
                # positions — O(new + K), no re-sort.  Equal hashes
                # may repeat: lookups verify rows.
                self._index_hash = np.insert(index_hash, lo[unseen],
                                             hashes[unseen])
                self._index_gid = np.insert(index_gid, lo[unseen],
                                            l2g[order[unseen]])
        if len(new_rows):
            self._grow_keys(start + len(new_rows))
            self._all_keys[start:start + len(new_rows)] = new_rows
            self._nkeys = start + len(new_rows)
        return l2g[lgid]

    def _verify(self, rows: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
        """Global ids of ``rows`` given their equal-hash index ranges
        ``[lo, hi)`` (-1 for unseen rows): every candidate is checked
        against the stored key row.  A range wider than one is a hash
        collision, resolved candidate by candidate — a loop over the
        colliding rows only."""
        index_gid = self._index_gid
        width = hi - lo
        ids = np.full(len(rows), -1, dtype=np.int64)
        single = np.flatnonzero(width == 1)
        cand = index_gid[lo[single]]
        match = (self._all_keys[cand] == rows[single]).all(axis=1)
        ids[single[match]] = cand[match]
        for i in np.flatnonzero(width > 1).tolist():
            cands = index_gid[lo[i]:hi[i]]
            hit = np.flatnonzero(
                (self._all_keys[cands] == rows[i]).all(axis=1))
            if len(hit):
                ids[i] = cands[hit[0]]
        return ids

    def _key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted key hashes, global ids in that order)`` over every
        known key, built here on first use."""
        if self._index_hash is None:
            hashes = mix_key_array(self._all_keys[:self._nkeys], self.seed)
            perm = np.argsort(hashes, kind="stable")
            self._index_hash = hashes[perm]
            self._index_gid = perm.astype(np.int64, copy=False)
        return self._index_hash, self._index_gid

    def _grow_keys(self, n: int) -> None:
        """Grow every per-key array to capacity >= n (doubling)."""
        if len(self._open_mask) >= n:
            return
        cap = max(n, 2 * len(self._open_mask), 1024)
        grown = np.zeros((cap, self._all_keys.shape[1]), dtype=np.int64)
        grown[:self._nkeys] = self._all_keys[:self._nkeys]
        self._all_keys = grown
        self._open_mask = _grown(self._open_mask, cap)
        self._open_pos = _grown(self._open_pos, cap)
        self._epochs = _grown(self._epochs, cap)
        for group in (self._merged, self._open_state, self._open_aux):
            for per_fold in group.values():
                for var, arr in per_fold.items():
                    per_fold[var] = _grown(arr, cap)

    # -- one window ----------------------------------------------------------

    def _run_window(self, keys2d: np.ndarray,
                    columns: dict[str, np.ndarray], final: bool) -> None:
        n = len(keys2d)
        offset = self._total
        # One row hash: it sorts the factorization, indexes new keys
        # and picks their cache sets.
        h = mix_key_array(keys2d, self.seed)
        gid = self.key_ids(keys2d, h)

        # Replacement schedule with carried residency.
        miss, evictions = self._sched.schedule(gid, h, final)
        stats = self._stats
        misses = int(np.count_nonzero(miss))
        stats.accesses += n
        stats.hits += n - misses
        stats.misses += misses
        stats.insertions += misses
        stats.evictions += evictions

        # Epoch segmentation (see vector_store, item 2), with refresh
        # boundaries at *global* stream positions.
        comp = (gid << np.int64(32)) | np.arange(n, dtype=np.int64)
        comp.sort()
        sorted_idx = comp & np.int64(0xFFFFFFFF)
        gid_sorted = comp >> np.int64(32)
        new_epoch = np.empty(n, dtype=bool)
        new_epoch[0] = True
        same_key = gid_sorted[1:] == gid_sorted[:-1]
        new_epoch[1:] = ~same_key | miss[sorted_idx[1:]]
        refresh = self.refresh_interval
        if refresh is not None:
            boundaries = (sorted_idx + offset) // refresh
            new_epoch[1:] |= same_key & (boundaries[1:] > boundaries[:-1])
        eid_sorted = np.cumsum(new_epoch) - 1
        n_epochs = int(eid_sorted[-1]) + 1
        eid = np.empty(n, dtype=np.int64)
        eid[sorted_idx] = eid_sorted
        epoch_key = gid_sorted[new_epoch]
        layout = GroupLayout.from_sorted_order(eid, n_epochs, sorted_idx)

        # Per-key window extent (sorted space is key-major).
        key_start = np.empty(n, dtype=bool)
        key_start[0] = True
        key_start[1:] = ~same_key
        start_pos = np.flatnonzero(key_start)
        end_pos = np.append(start_pos[1:], n) - 1
        win_keys = gid_sorted[start_pos]          # distinct ids, ascending
        first_idx = sorted_idx[start_pos]
        last_eid = eid_sorted[end_pos]

        # Carried open epochs: continue into this window's first epoch
        # of their key (first access hits, no refresh boundary passed),
        # or close now — *before* the window's own epochs of that key.
        open_w = self._open_mask[win_keys]
        cont_mask = open_w & ~miss[first_idx]
        if refresh is not None:
            cont_mask &= (self._open_pos[win_keys] // refresh ==
                          (first_idx + offset) // refresh)
        self._absorb_open(win_keys[open_w & ~cont_mask])
        cont_keys = win_keys[cont_mask]
        cont_eids = eid_sorted[start_pos][cont_mask]
        self._open_mask[cont_keys] = False

        # Per-epoch fold values, with continuation injection.
        ctx = ArrayContext(columns, self.params, n)
        fold_epochs = {}
        for fold in self.stage.folds:
            col = fold.column
            cont = _ArrayCont(cont_eids, cont_keys, fold.merge,
                              self._open_state[col], self._open_aux[col]) \
                if len(cont_keys) else None
            fold_epochs[col] = self._eval_fold(fold, ctx, layout, cont)

        # Absorb every epoch that provably closed inside the window
        # (all but each key's last; epoch ids are key-major, so each
        # key's closed epochs are a chronological run), then stash the
        # still-open ones.
        is_open = np.zeros(n_epochs, dtype=bool)
        is_open[last_eid] = True
        closed = np.flatnonzero(~is_open)
        if len(closed):
            self._absorb(
                epoch_key[closed],
                {col: {var: arr[closed] for var, arr in fe.arrays.items()}
                 for col, fe in fold_epochs.items()},
                {col: fe.registers(closed)
                 for col, fe in fold_epochs.items()})
        self._stash_open(win_keys, last_eid,
                         offset + sorted_idx[end_pos], fold_epochs)

        # Window boundary: a key that is no longer resident can only
        # miss on its next access, so its open epoch is complete (after
        # the final window, finalize() absorbs every open epoch).
        if not final:
            open_gids = np.flatnonzero(self._open_mask[:self._nkeys])
            self._absorb_open(open_gids[~self._sched.resident(open_gids)])

        self._total += n
        if refresh is not None:
            self.refreshes = self._total // refresh

    # -- open-epoch carry ----------------------------------------------------

    def _stash_open(self, win_keys: np.ndarray, last_eid: np.ndarray,
                    last_pos: np.ndarray, fold_epochs) -> None:
        """Record each window key's still-open last epoch in the carry
        arrays."""
        self._open_mask[win_keys] = True
        self._open_pos[win_keys] = last_pos
        size = len(self._open_mask)
        for col, fe in fold_epochs.items():
            for var, vals in fe.arrays.items():
                scatter_promote(self._open_state[col], var, win_keys,
                                vals[last_eid], size)
            for key, vals in fe.registers(last_eid).items():
                scatter_promote(self._open_aux[col], key, win_keys, vals,
                                size)

    def _open_payload(self, gids: np.ndarray) -> tuple[
            dict[str, dict[str, np.ndarray]],
            dict[str, dict[tuple, np.ndarray]]]:
        """The carried open epochs of ``gids`` as the merge kernel's
        per-fold state and register arrays."""
        return ({col: {var: arr[gids] for var, arr in per.items()}
                 for col, per in self._open_state.items()},
                {col: {key: arr[gids] for key, arr in per.items()}
                 for col, per in self._open_aux.items()})

    # -- absorption ----------------------------------------------------------

    def _absorb(self, gids: np.ndarray,
                values: Mapping[str, Mapping[str, np.ndarray]],
                regs: Mapping[str, Mapping[tuple, np.ndarray]]) -> None:
        """Absorb closed epochs (each key's a contiguous chronological
        run in ``gids``) into the merged arrays and the segment logs."""
        absorb_epochs(self.stage.folds, self.params, self._merged,
                      self._epochs, gids, values, regs)
        for col, log in self._segments.items():
            log.append(gids, values[col])
        np.add.at(self._epochs, gids, 1)
        self._writes += len(gids)

    def _absorb_open(self, gids: np.ndarray) -> None:
        """Close and absorb the carried open epochs of ``gids``
        (ascending)."""
        if len(gids) == 0:
            return
        self._absorb(gids, *self._open_payload(gids))
        self._open_mask[gids] = False

    # -- end of run / observables --------------------------------------------

    def finalize(self) -> None:
        """Process the remaining partial window and absorb every open
        epoch (idempotent)."""
        if self._finalized:
            return
        self._drain(final=True)
        self._finalized = True
        self._absorb_open(np.flatnonzero(self._open_mask[:self._nkeys]))

    def merged_state(self) -> MergedState:
        """The merged per-key results as if the stream ended now.

        After :meth:`finalize` it wraps views of the final arrays and is
        cached.  Mid-stream, pending input runs first (results are
        partition-independent, so this is observation-neutral) and
        every carried open epoch is absorbed into *copies*; streaming
        continues untouched."""
        if self._final_state is not None:
            return self._final_state
        final = self._finalized
        if not final:
            self._drain()
        nk = self._nkeys
        epochs = self._epochs[:nk] if final else self._epochs[:nk].copy()
        merged = {col: {var: arr[:nk] if final else arr[:nk].copy()
                        for var, arr in per.items()}
                  for col, per in self._merged.items()}
        segments = {col: dict(log.read()[1])
                    for col, log in self._segments.items()}
        writes = self._writes
        open_gids = np.flatnonzero(self._open_mask[:nk])   # none once final
        if len(open_gids):
            values, regs = self._open_payload(open_gids)
            absorb_epochs(self.stage.folds, self.params, merged, epochs,
                          open_gids, values, regs)
            for col, log in self._segments.items():
                segments[col] = _insert_segments(
                    log.gids, segments[col], open_gids, values[col])[1]
            epochs[open_gids] += 1
            writes += len(open_gids)
        for fold in self.stage.folds:       # a store that absorbed nothing
            per = merged[fold.column] if fold.merge.mergeable \
                else segments[fold.column]
            for var in fold.instance.state_vars:
                if var not in per:
                    per[var] = np.full(0, fold.instance.inits.get(var, 0))
        state = MergedState(self._all_keys[:nk], writes, epochs, merged,
                            segments)
        if final:
            self._final_state = state
        return state

    @property
    def backing(self) -> BackingStore:
        """The end-of-run backing store, materialised from the merged
        arrays and segment logs on first access."""
        self.finalize()
        return self.merged_state().backing(self.stage, self.params)

    def result_table(self, include_invalid: bool = False) -> ResultTable:
        self.finalize()
        return self.merged_state().table(self.stage, self.params,
                                         include_invalid=include_invalid)

    @property
    def backing_writes(self) -> int:
        self.finalize()
        return self.merged_state().writes

    def accuracy(self) -> float:
        self.finalize()
        return self.merged_state().accuracy()

    def snapshot(self, include_invalid: bool = False) -> StoreSnapshot:
        """Observable state as if the stream ended now, without ending
        it (see :meth:`merged_state`)."""
        state = self.merged_state()
        return StoreSnapshot(
            table=state.table(self.stage, self.params,
                              include_invalid=include_invalid),
            stats=replace(self._stats),
            backing_writes=state.writes,
            accuracy=state.accuracy(),
        )

    @property
    def stats(self) -> CacheStats:
        """Counters over everything ingested so far (end-of-run values
        once the store is finalized; open-epoch absorption never moves
        the counters, so draining pending input suffices)."""
        if not self._finalized:
            self._drain()
        return self._stats

    # -- durable checkpoints -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Plain-data snapshot of *everything* the continuation needs:
        pending (undrained) input, the persistent key table, carried
        residency (scheduler state incl. RNG counters), carried open
        epochs, and the absorption target (per-key epoch counts and
        merged arrays, and the key-major segment logs — their per-key
        counts are the epoch counts).  Pending input
        is serialized as-is — not drained — so a restored store runs
        the byte-for-byte same window schedule as an uninterrupted one.
        """
        if self._finalized:
            raise CheckpointError("cannot checkpoint a finalized store")
        nk = self._nkeys
        state = {
            "kind": "windowed",
            "window": self.window,
            "buffered": self._buffered,
            "pending_keys": np.concatenate(self._key_chunks)
            if self._key_chunks else None,
            "pending_cols": {
                name: np.concatenate(chunks) if chunks else None
                for name, chunks in self._col_chunks.items()
            },
            "total": self._total,
            "nkeys": nk,
            "keys": self._all_keys[:nk].copy(),
            "open_mask": self._open_mask[:nk].copy(),
            "open_pos": self._open_pos[:nk].copy(),
            "open_state": {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._open_state.items()
            },
            "open_aux": {
                col: {key: arr[:nk].copy() for key, arr in per.items()}
                for col, per in self._open_aux.items()
            },
            "stats": replace(self._stats),
            "refreshes": self.refreshes,
            "sched": self._sched.checkpoint_state(),
            "epochs": self._epochs[:nk].copy(),
            "merged": {
                col: {var: arr[:nk].copy() for var, arr in per.items()}
                for col, per in self._merged.items()
            },
            # Log arrays are replaced, never mutated: no copy needed.
            "segments": {col: log.read()[1]
                         for col, log in self._segments.items()},
            "writes": self._writes,
        }
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload into this (freshly
        constructed) store.  The store takes ownership of the payload's
        arrays and containers."""
        if state.get("kind") != "windowed":
            raise CheckpointError(
                f"store state mismatch: snapshot carries "
                f"{state.get('kind')!r}, expected 'windowed'")
        if self._finalized or self._total or self._nkeys or self._buffered:
            raise CheckpointError("restore target store must be fresh")
        if state["window"] != self.window:
            raise CheckpointError(
                "store configuration mismatch: snapshot was taken with "
                f"window={state['window']}, store has window={self.window}")
        self._buffered = state["buffered"]
        if state["pending_keys"] is not None:
            self._key_chunks = [state["pending_keys"]]
            for name, pending in state["pending_cols"].items():
                self._col_chunks[name] = [pending]
        self._total = state["total"]
        nk = self._nkeys = state["nkeys"]
        if nk:
            # Every per-key array shares one capacity (the _grow_keys
            # invariant) — restore them all at exactly nk.  The key
            # index and tuples are rebuilt when first needed.
            self._all_keys = np.ascontiguousarray(state["keys"])
            self._open_mask = state["open_mask"]
            self._open_pos = state["open_pos"]
        self._open_state = {col: dict(per)
                            for col, per in state["open_state"].items()}
        self._open_aux = {col: dict(per)
                          for col, per in state["open_aux"].items()}
        self._stats = state["stats"]
        self.refreshes = state["refreshes"]
        self._sched.restore_state(state["sched"])
        self._epochs = state["epochs"]
        self._writes = state["writes"]
        self._merged = {col: dict(per) for col, per in state["merged"].items()}
        owner = np.repeat(np.arange(nk, dtype=np.int64), self._epochs[:nk])
        self._segments = {col: _SegmentLog(owner, dict(values))
                          for col, values in state["segments"].items()}


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """Capacity-doubling resize, preserving contents."""
    if len(arr) >= n:
        return arr
    new = np.zeros(max(n, 2 * len(arr), 1024), dtype=arr.dtype)
    new[:len(arr)] = arr
    return new


def _carried_dicts(spec, state: Mapping[str, np.ndarray],
                   regs: Mapping[tuple, np.ndarray], gids: np.ndarray,
                   ) -> tuple[list[State], list[AuxState]]:
    """The carried open epochs of ``gids`` as the row store's per-epoch
    state and :data:`AuxState` dicts, with native Python scalars."""
    n = len(gids)
    states = {var: arr[gids].tolist() for var, arr in state.items()}
    lists = {key: arr[gids].tolist() for key, arr in regs.items()}
    return ([{var: vals[i] for var, vals in states.items()}
             for i in range(n)],
            [aux_from_registers(spec, lists, i) for i in range(n)])


def _row_tuples(rows: np.ndarray) -> list[tuple]:
    """Key rows as tuples of Python ints (the backing store's keys)."""
    return list(zip(*(rows[:, j].tolist() for j in range(rows.shape[1]))))
