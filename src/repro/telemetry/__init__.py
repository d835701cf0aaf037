"""End-to-end telemetry runtime and result comparison utilities."""

from .client import ClientError, IngestClient, stream_file
from .deploy import NetworkDeployment, NetworkRunReport, NetworkSession
from .diagnostics import Diagnostic, DiagnosticsReport, diagnostic_code
from .results import TableDiff, compare_tables
from .runtime import QueryEngine, QueryInfo, RunReport, run
from .serve import IngestServer, TraceTailer
from .session import TelemetrySession

__all__ = [
    "ClientError",
    "Diagnostic",
    "DiagnosticsReport",
    "diagnostic_code",
    "IngestClient",
    "IngestServer",
    "NetworkDeployment",
    "NetworkRunReport",
    "NetworkSession",
    "QueryEngine",
    "QueryInfo",
    "RunReport",
    "TableDiff",
    "TelemetrySession",
    "TraceTailer",
    "compare_tables",
    "run",
    "stream_file",
]
