"""The row reference: one compiled program run one-shot, packet by
packet, on the software model of the switch's split store.

``QueryEngine(..., engine="row")`` runs here — the oracle the vector
engine is held to.  Each ``GROUPBY`` stage's WHERE mask and key
columns are computed once over the whole table; every matching packet
then runs through
:meth:`~repro.switch.kvstore.split.SplitKeyValueStore.process_keyed`
(cache lookup, eviction, backing-store merge, periodic refresh), and
the software stages run on the reference interpreter.  There is no
session: windows, shards, checkpoints and mid-stream results run on
the vector engine only (``RPR-E001``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.vector_exec import ArrayContext, eval_mask
from repro.network.records import ColumnRowView, ObservationTable
from repro.switch.kvstore.split import SplitKeyValueStore
from repro.switch.pipeline import (
    SessionConfig,
    _SelectRunner,
    bind_params,
    geometry_for,
)

if TYPE_CHECKING:                                  # pragma: no cover
    from repro.telemetry.runtime import QueryEngine, RunReport


def run_reference(engine: "QueryEngine", table: ObservationTable,
                  config: SessionConfig,
                  include_invalid: bool = False) -> "RunReport":
    """``engine``'s program over ``table`` on the per-packet store with
    ``config``'s geometry, policy, seed and refresh interval; the same
    :class:`~repro.telemetry.runtime.RunReport` a session's ``close()``
    returns."""
    from repro.telemetry.runtime import RunReport

    program = engine.compiled
    params = bind_params(program, engine.params)
    columns = table.columns()
    n = len(table)
    ctx = ArrayContext(columns, params, n)
    tables = {}
    for stage in program.select_stages:
        select = _SelectRunner(stage, params)
        select.process_batch(ctx)
        tables[stage.query_name] = select.result_table()
    # The per-packet update functions read the fields the program
    # parses (§3.1) as Python scalars, converted once.
    fields = tuple(program.parse_fields) or tuple(columns)
    row_lists = {name: columns[name].tolist() for name in fields}
    stats, writes, accuracy = {}, {}, {}
    for stage in program.groupby_stages:
        name = stage.query_name
        store = SplitKeyValueStore(
            stage, geometry_for(name, config.geometry), params=params,
            policy=config.policy, seed=config.seed,
            refresh_interval=config.refresh_interval)
        mask = eval_mask(stage.where, ctx)
        keys = list(zip(*(columns[f].tolist() for f in stage.key.fields)))
        indices = range(n) if mask is None else np.flatnonzero(mask).tolist()
        for i in indices:
            store.process_keyed(keys[i], ColumnRowView(row_lists, i))
        tables[name] = store.result_table(include_invalid=include_invalid)
        stats[name] = store.stats
        writes[name] = store.backing_writes
        accuracy[name] = store.accuracy()
    interpreter = engine._row_engine()
    for software in program.software_stages:
        # Software stages read upstream tables only, as in a session.
        tables[software.query.name] = interpreter.evaluate_stage(
            software.query.name, [], tables)
    return RunReport(tables=tables, result_name=program.result,
                     cache_stats=stats, backing_writes=writes,
                     accuracy=accuracy)
