"""repro — reproduction of *Hardware-Software Co-Design for Network
Performance Measurement* (Narayana et al., HotNets-XV 2016).

The package implements both halves of the paper's co-design:

* :mod:`repro.core` — the declarative performance query language
  (parser, semantic analysis, the linear-in-state analysis, merge
  synthesis, a query compiler, and a reference interpreter);
* :mod:`repro.switch` — the switch hardware model (programmable
  parser, match-action pipeline, the split SRAM/DRAM key-value store,
  and the §3.3/§4 area model);

plus the substrates the evaluation needs:

* :mod:`repro.network` — an event-driven queueing simulator producing
  the paper's packet-observation table;
* :mod:`repro.traffic` — CAIDA-like, datacenter, and incast workload
  generators with TCP anomaly injection;
* :mod:`repro.queries` — the Fig. 2 query catalog;
* :mod:`repro.telemetry` — the end-to-end runtime (compile → install →
  stream → collect);
* :mod:`repro.analysis` — the Fig. 5 / Fig. 6 experiment drivers.

Quickstart::

    from repro import QueryEngine, CacheGeometry
    from repro.traffic.datacenter import DatacenterWorkload

    table = DatacenterWorkload().observation_table()   # columnar
    engine = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
                         geometry=CacheGeometry.set_associative(4096, ways=8))
    report = engine.run(table)
    for row in report.result.rows[:5]:
        print(row)

Columnar fast path
------------------

:class:`ObservationTable` stores one numpy array per schema field; the
trace generators emit columns directly and ``ObservationTable.from_arrays``
adopts externally produced columns without per-record work::

    import numpy as np
    from repro import ObservationTable, QueryEngine

    table = ObservationTable.from_arrays({
        "srcip": srcip_array, "dstip": dstip_array,
        "pkt_len": lengths, "tin": tin_ns, "tout": tout_ns,
    })
    engine = QueryEngine("SELECT COUNT GROUPBY srcip, dstip")
    exact = engine.run_exact(table)     # the session, never evicting

Columnar tables take the batch execution path end to end: ``WHERE``
predicates become boolean masks, linear-in-state ``GROUPBY`` folds
(§3.2) become segmented reductions, and the switch pipeline extracts
key arrays per chunk instead of per packet.  Every session runs this
vector engine.  ``QueryEngine(..., engine="row")`` is the one-shot
reference (:mod:`repro.reference`): ``run``, ``run_exact`` and
``plan_cache`` on the per-packet split store and the row-at-a-time
interpreter, bit-identical to the vector engine and the oracle the
tests hold it to; ``open``/``resume``/``serve`` on it raise
``[RPR-E001]``.  The end-to-end throughput is measured by
``benchmarks/e2e``.
"""

from .core.analyze import ProgramAnalysis, TraceBounds, analyze_program
from .core.compiler import CompileOptions, compile_program
from .core.interpreter import Interpreter, ResultTable, run_query
from .core.linearity import analyze_fold
from .core.parser import parse_program, parse_query
from .core.semantics import resolve_program
from .core.vector_exec import VectorExecutor, run_query_vectorized
from .network.records import ObservationTable, PacketRecord
from .switch.kvstore.cache import CacheGeometry
from .switch.pipeline import SwitchPipeline
from .telemetry.diagnostics import Diagnostic, DiagnosticsReport, diagnostic_code
from .telemetry.runtime import QueryEngine, RunReport, run

__version__ = "0.2.0"

__all__ = [
    "CacheGeometry",
    "CompileOptions",
    "Diagnostic",
    "DiagnosticsReport",
    "Interpreter",
    "ObservationTable",
    "PacketRecord",
    "ProgramAnalysis",
    "QueryEngine",
    "ResultTable",
    "RunReport",
    "SwitchPipeline",
    "TraceBounds",
    "VectorExecutor",
    "analyze_fold",
    "analyze_program",
    "compile_program",
    "diagnostic_code",
    "parse_program",
    "parse_query",
    "resolve_program",
    "run",
    "run_query",
    "run_query_vectorized",
    "__version__",
]
