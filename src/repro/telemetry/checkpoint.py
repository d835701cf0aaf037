"""Versioned, checksummed wire format for session checkpoints.

A checkpoint is a self-describing byte string::

    MAGIC (8)  | version (u16 LE) | payload length (u64 LE)
    crc32 (u32 LE, over the payload) | payload (pickled state dict)

The payload is a plain data dict (numpy arrays, dicts, dataclasses of
builtins) — never compiled closures or store objects — produced by
``TelemetrySession._checkpoint_payload`` and friends.  Restoring
rebuilds the engine-side structure from the engine's own configuration
and loads only this data into it, which is what makes mid-stream
checkpoint/restore bit-identical to an uninterrupted run.

Every framing defect (short read, bad magic, unknown version, length
mismatch, checksum mismatch, undecodable payload) raises
:class:`~repro.core.errors.CheckpointError` with a message naming the
defect, rather than deserializing garbage.
"""

from __future__ import annotations

import pickle
import struct
import zlib

from repro.core.errors import CheckpointError

MAGIC = b"RPROCKPT"
#: Payload layout version.  9: a shard worker's role state carries
#: each stage's key first-access positions as one int64 array indexed
#: by the store's key id (``"first_pos"``); version 8 carried
#: ``{key tuple: position}`` dicts (``"firsts"``).  8: a network
#: payload carries one state per switch session (``"sessions"``) and nothing else; version 7 could
#: carry a sharded deployment's worker states (``"sharded"`` /
#: ``"workers"``).  7: the LRU cache schedule carries its
#: resident keys' ids and hashes (``res_gids`` / ``res_hashes``, no key
#: rows), and an integer scale/matrix merge product ``P`` keeps its
#: integer dtype.  6: every store state is the vector
#: store's (no ``"row"`` store kind, no per-stage ``modes`` list);
#: version 5 could carry the row store's Python-object buckets.
#: Version 5 also moved the FIFO/random cache schedule to its rings
#: oldest → newest (kind ``"ring"``); version 4 carried a FIFO
#: ring head, per-key residency flags and a skip width (kind
#: ``"packed"``), version 3 could carry an exact-mode session's buffered
#: input (``exact`` / ``buffered``), and version 2 a pickled backing
#: store (``backing_data``).  Older payloads are refused.
VERSION = 9

_HEADER = struct.Struct("<8sHQI")  # magic, version, payload len, crc32


def pack_checkpoint(payload: dict) -> bytes:
    """Serialize a state payload into framed checkpoint bytes."""
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pragma: no cover - payloads are plain data
        raise CheckpointError(f"checkpoint payload is not serializable: {exc}") from exc
    header = _HEADER.pack(MAGIC, VERSION, len(body), zlib.crc32(body))
    return header + body


def unpack_checkpoint(data: bytes) -> dict:
    """Validate framing and return the deserialized state payload."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CheckpointError(
            f"checkpoint must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    magic, version, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError("not a session checkpoint (bad magic bytes)")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(this build reads version {VERSION})")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise CheckpointError(
            f"truncated checkpoint: header promises {length} payload bytes, "
            f"found {len(body)}")
    if zlib.crc32(body) != crc:
        raise CheckpointError("corrupted checkpoint: payload checksum mismatch")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(
            f"corrupted checkpoint: payload does not decode ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"corrupted checkpoint: payload is {type(payload).__name__}, "
            "expected a state dict")
    return payload


def describe_checkpoint(data: bytes) -> dict:
    """Header + payload metadata for the CLI ``checkpoint`` subcommand."""
    payload = unpack_checkpoint(data)
    info = {
        "version": VERSION,
        "bytes": len(data),
        "kind": payload.get("kind"),
        "window": payload.get("window"),
        "shards": payload.get("shards"),
        "packets_ingested": payload.get("packets_ingested"),
    }
    config = payload.get("config")
    if isinstance(config, dict):
        info["result"] = config.get("result")
        info["policy"] = config.get("policy")
        info["seed"] = config.get("seed")
    if payload.get("kind") == "network":
        info["switches"] = payload.get("switches")
    return info
