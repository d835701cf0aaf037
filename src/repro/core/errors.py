"""Exception hierarchy for the performance-query language toolchain.

Every error raised by the lexer, parser, semantic analyser, linearity
analysis, compiler, or interpreter derives from :class:`QueryError`, so
callers can catch one type to handle "the query is bad" uniformly while
still being able to discriminate the phase that rejected it.
"""

from __future__ import annotations


class QueryError(Exception):
    """Base class for all errors produced by the query toolchain."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", col {self.column}"
            return f"{loc}: {self.message}"
        return self.message


class LexError(QueryError):
    """Raised when the source text contains characters or tokens that the
    lexer cannot form into a token stream."""


class ParseError(QueryError):
    """Raised when the token stream does not match the Fig. 1 grammar."""


class SemanticError(QueryError):
    """Raised when a syntactically valid query violates a static rule:
    unknown fields, arity mismatches in fold functions, joins whose key
    does not uniquely identify records, cyclic query references, etc."""


class CompileError(QueryError):
    """Raised when a semantically valid query cannot be lowered onto the
    switch hardware model (e.g. value layout exceeds configured width)."""


class LinearityError(QueryError):
    """Raised when the linearity analysis is asked to synthesise a merge
    function for a fold that is not linear in state."""


class InterpreterError(QueryError):
    """Raised on runtime evaluation failures in the reference interpreter
    (e.g. a query parameter without a binding)."""


class HardwareError(Exception):
    """Base class for errors in the switch hardware model (not query bugs):
    invalid cache geometry, value wider than the configured slot, etc."""


class SessionConfigError(ValueError, HardwareError):
    """Raised when a :class:`~repro.switch.pipeline.SessionConfig` breaks
    a session rule (``RPR-E002``-``E005``), or when a ``QueryEngine``
    refuses its ``engine`` knob (``RPR-E008``) or a session on the
    one-shot row reference (``RPR-E001``).  Both a
    ``ValueError`` (a bad knob value) and a :class:`HardwareError` (a
    configuration the hardware model cannot run), so callers catching
    either keep working."""


class SessionError(Exception):
    """Base class for telemetry-session misuse: operations that the
    session's state cannot honour (e.g. any call on a session poisoned
    by a failed ingest)."""


class SessionClosedError(SessionError):
    """Raised when a closed :class:`~repro.telemetry.session.TelemetrySession`
    is asked to ingest more observations (or to close again)."""


class CheckpointError(SessionError):
    """Raised when a session snapshot cannot be produced or restored:
    truncated/corrupted/wrong-version checkpoint bytes, or a resume
    against an engine whose configuration does not match the one that
    produced the snapshot."""
