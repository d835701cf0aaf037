"""Live ingest service tests: wire format, served differential
bit-identity, backpressure, load shedding, admission control, idle
timeouts, connection faults, the trace tailer, and SIGTERM drain.

The differential acceptance criterion: ingest through the socket
front end (:class:`IngestServer` + :class:`IngestClient`) and through
the trace tailer must be **bit-identical** to :meth:`QueryEngine.run`
— for every eviction policy × window partitioning × shards {1, 2},
under hypothesis-driven injected connection faults (mid-frame
disconnects, corrupt frames), and under forced backpressure (tiny
watermarks + a slow consumer).  Load shedding is the documented
exception: it *loses* batches, but with exact accounting — the
dropped-batch/record counters on both ends must agree and explain the
entire shortfall.  Plus: admission control rejects with a reason, an
idle connection is reaped without killing its session, the tailer
survives truncation and rotation, and a SIGTERM'd serving process
drains gracefully (checkpoints, exits cleanly, no stranded /dev/shm,
resume completes to the uninterrupted result).
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.records import ObservationTable
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry import wire
from repro.telemetry.client import ClientError, IngestClient, stream_file
from repro.telemetry.faults import FaultInjector, FaultPlan
from repro.telemetry.runtime import QueryEngine
from repro.telemetry.serve import IngestServer, TraceTailer
from repro.telemetry.wire import FrameError
from repro.traffic.trace_io import write_csv

from tests.conftest import synthetic_trace
from tests.test_session import chunked, observables

GEOM = CacheGeometry.set_associative(64, ways=4)
QUERY = "SELECT COUNT, SUM(pkt_len) GROUPBY srcip"


def make_engine(policy="lru"):
    return QueryEngine(QUERY, geometry=GEOM, policy=policy)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(600, seed=31)


@pytest.fixture(scope="module")
def expected(trace):
    """Per-policy uninterrupted ``run()`` observables."""
    return {policy: observables(make_engine(policy).run(trace))
            for policy in ("lru", "fifo", "random")}


@contextmanager
def serving(engine, **kwargs):
    server = engine.serve(**kwargs)
    address = server.start()
    try:
        yield server, address
    finally:
        server.stop()


def stream(address, table, chunk, session="s", **kwargs):
    """Feed the trace through a client; returns (close payload, client)."""
    client = IngestClient(address, session, retry_seed=7, **kwargs)
    client.connect()
    try:
        for batch in chunked(table, chunk):
            client.send(batch)
        return client.close_session(), client
    finally:
        client.disconnect()


# -- wire format --------------------------------------------------------------


def test_frame_roundtrip():
    frame = wire.pack_frame(wire.T_BATCH, {"seq": 3, "columns": {}})
    ftype, length, crc = wire.parse_header(frame[:wire.HEADER.size])
    assert ftype == wire.T_BATCH
    payload = wire.decode_payload(frame[wire.HEADER.size:], crc)
    assert payload == {"seq": 3, "columns": {}}


def test_frame_rejects_bad_magic():
    with pytest.raises(FrameError, match="magic"):
        wire.parse_header(b"XXXX" + bytes(wire.HEADER.size - 4))


def test_frame_rejects_oversized_length():
    header = wire.HEADER.pack(wire.MAGIC, wire.T_BATCH,
                              wire.MAX_PAYLOAD + 1, 0)
    with pytest.raises(FrameError, match="exceeds"):
        wire.parse_header(header)


def test_frame_rejects_corrupt_payload():
    frame = bytearray(wire.pack_frame(wire.T_OK, {"seq": 1}))
    frame[wire.HEADER.size] ^= 0xFF
    ftype, length, crc = wire.parse_header(bytes(frame[:wire.HEADER.size]))
    with pytest.raises(FrameError, match="checksum"):
        wire.decode_payload(bytes(frame[wire.HEADER.size:]), crc)


# -- differential: served ingest == run() -------------------------------------


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
@pytest.mark.parametrize("window,chunk", [(7, 97), (64, 211), (1000, 460)])
def test_served_matches_run(trace, expected, policy, window, chunk):
    """Socket ingest is bit-identical to run() across policies and
    window partitionings."""
    with serving(make_engine(policy), window=window) as (server, address):
        final, client = stream(address, trace, chunk)
    assert observables(final["report"]) == expected[policy]
    assert final["serve"]["records_in"] == len(trace)
    assert final["serve"]["shed_batches"] == 0


@pytest.mark.parametrize("policy", ["lru", "random"])
def test_served_matches_run_sharded(trace, expected, policy):
    """Socket ingest into a 2-shard served session is bit-identical to
    the single-process run()."""
    with serving(make_engine(policy), window=64, shards=2) as (_, address):
        final, _ = stream(address, trace, 211)
    assert observables(final["report"]) == expected[policy]


def test_served_unix_socket(tmp_path, trace, expected):
    with serving(make_engine(), window=64,
                 unix_path=tmp_path / "ingest.sock") as (server, address):
        assert isinstance(address, str)
        final, _ = stream(address, trace, 97)
    assert observables(final["report"]) == expected["lru"]


def test_unix_socket_unlinked_on_stop(tmp_path, trace, expected):
    """stop() removes the socket file the server bound, so no file is
    left and a second server binds the same path — but a path that
    another server has taken over meanwhile is left alone."""
    path = tmp_path / "ingest.sock"
    with serving(make_engine(), window=64, unix_path=path):
        assert path.exists()
    assert not path.exists()
    first = make_engine().serve(window=64, unix_path=path)
    first.start()
    os.unlink(path)
    with serving(make_engine(), window=64,
                 unix_path=path) as (second, address):
        first.stop()
        assert path.exists()
        final, _ = stream(address, trace, 97)
    assert observables(final["report"]) == expected["lru"]
    assert not path.exists()


def test_served_midstream_results_and_checkpoint(trace, expected):
    """RESULTS mid-stream snapshots and CHECKPOINT resume are served
    consistently: the snapshot matches a direct session at the same
    cut, and the checkpoint resumes to the uninterrupted result."""
    engine = make_engine()
    cut = 388                      # 4 batches of 97
    with serving(engine, window=64) as (server, address):
        client = IngestClient(address, "mid", retry_seed=7)
        client.connect()
        batches = list(chunked(trace, 97))
        for batch in batches[:4]:
            client.send(batch)
        snapshot = client.checkpoint()["checkpoint"]
        mid = client.results()
        for batch in batches[4:]:
            client.send(batch)
        final = client.close_session()
        client.disconnect()
    direct = engine.open(window=64)
    for batch in batches[:4]:
        direct.ingest(batch)
    assert observables(mid["report"]) == \
        observables(direct.results(include_invalid=True))
    direct.close()
    resumed = engine.resume(snapshot)
    assert resumed.packets_ingested == cut
    columns = trace.columns()
    resumed.ingest(ObservationTable.from_arrays(
        {name: col[cut:] for name, col in columns.items()}))
    assert observables(resumed.close(include_invalid=True)) == \
        expected["lru"]
    assert observables(final["report"]) == expected["lru"]


# -- connection faults --------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(chunk=st.integers(min_value=50, max_value=300),
       disconnects=st.sets(st.integers(min_value=1, max_value=8),
                           max_size=2),
       corrupts=st.sets(st.integers(min_value=1, max_value=8), max_size=2))
def test_served_differential_under_faults(chunk, disconnects, corrupts):
    """Mid-frame disconnects and corrupt frames anywhere in the stream
    leave served results bit-identical to run(): the sequence resync
    redelivers each batch exactly once."""
    table = synthetic_trace(400, seed=13)
    engine = make_engine()
    want = observables(engine.run(table))
    injector = FaultInjector(FaultPlan(disconnect_sends=set(disconnects),
                                       corrupt_sends=set(corrupts)))
    with serving(engine, window=64) as (server, address):
        final, client = stream(address, table, chunk, faults=injector,
                               backoff_base=0.01)
    assert observables(final["report"]) == want
    assert final["serve"]["records_in"] == len(table)
    # every scheduled fault that fit in the stream actually fired
    fired = {kind for kind, _ in injector.events}
    sends = injector._sends
    if any(n <= sends for n in disconnects):
        assert "disconnect_send" in fired
    if any(n <= sends for n in corrupts):
        assert "corrupt_send" in fired


def test_client_retries_connect_until_server_up(trace, expected):
    """A client started before the server tolerates the race: connect
    retries with backoff until the listener appears."""
    engine = make_engine()
    server = engine.serve(window=64, port=0)
    results = {}

    def late_start():
        time.sleep(0.3)
        results["address"] = server.start()

    thread = threading.Thread(target=late_start)
    # Find the port the server will get: bind/release one ourselves.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    server._port = port
    thread.start()
    try:
        final, client = stream(("127.0.0.1", port), trace, 97,
                               backoff_base=0.05, max_retries=12)
        assert observables(final["report"]) == expected["lru"]
    finally:
        thread.join()
        server.stop()


# -- backpressure -------------------------------------------------------------


def test_backpressure_busy_ready_and_differential(trace, expected):
    """A fast client over a slow consumer sees explicit BUSY/READY
    credit frames, and the result is still bit-identical — no batch is
    lost to the watermark."""
    with serving(make_engine(), window=64, queue_high_bytes=20_000,
                 queue_low_bytes=5_000,
                 ingest_delay=0.02) as (server, address):
        final, client = stream(address, trace, 97)
    assert client.busy_events > 0
    assert client.ready_events >= client.busy_events
    assert final["serve"]["busy_events"] == client.busy_events
    assert observables(final["report"]) == expected["lru"]


def test_watermark_validation():
    with pytest.raises(ValueError, match="watermark"):
        IngestServer(make_engine(), queue_high_bytes=100,
                     queue_low_bytes=200)


# -- load shedding ------------------------------------------------------------


def test_shed_mode_exact_accounting(trace):
    """Shedding drops whole batches only, and both ends agree on the
    exact count: records_in + shed_records == records sent, and the
    session saw exactly records_in accesses."""
    with serving(make_engine(), window=64, shed=True,
                 queue_high_bytes=20_000,
                 ingest_delay=0.02) as (server, address):
        final, client = stream(address, trace, 97)
    meta = final["serve"]
    assert meta["shed_batches"] > 0, "watermark never tripped"
    assert meta["shed_batches"] == client.shed_batches
    assert meta["shed_records"] == client.shed_records
    assert meta["records_in"] + meta["shed_records"] == len(trace)
    assert meta["batches_in"] + meta["shed_batches"] == \
        len(list(chunked(trace, 97)))
    # the session really ingested exactly the non-shed records
    stats = next(iter(final["report"].cache_stats.values()))
    assert stats.accesses == meta["records_in"]
    assert client.busy_events == 0      # shed mode never backpressures


# -- admission control --------------------------------------------------------


def test_admission_rejects_over_session_limit(trace):
    with serving(make_engine(), window=64, max_sessions=1) as (_, address):
        first = IngestClient(address, "a")
        first.connect()
        second = IngestClient(address, "b", max_retries=0)
        with pytest.raises(ClientError, match="session limit"):
            second.connect()
        # reattaching to the existing session is still admitted
        again = IngestClient(address, "a")
        assert again.connect()["session"] == "a"
        first.disconnect()
        again.disconnect()


def test_admission_rejects_when_overloaded(trace):
    """HELLO is refused with an explicit reason while queued bytes
    exceed the global in-flight budget."""
    with serving(make_engine(), window=64, max_inflight_bytes=10_000,
                 queue_high_bytes=1 << 20,
                 ingest_delay=0.4) as (server, address):
        refusals = []

        def try_second():
            time.sleep(0.15)
            late = IngestClient(address, "b", max_retries=0)
            try:
                late.connect()
            except ClientError as exc:
                refusals.append(str(exc))

        probe = threading.Thread(target=try_second)
        probe.start()
        first = IngestClient(address, "a")
        first.connect()
        batch = next(chunked(trace, 97))       # ~12 KB > the 10 KB budget
        first.send(batch)                      # blocks on the global BUSY
        probe.join()
        first.close_session()
        first.disconnect()
    assert refusals and "overloaded" in refusals[0]


# -- idle timeout -------------------------------------------------------------


def test_idle_timeout_reaps_connection_not_session(trace, expected):
    """A stalled client is disconnected (dead-client reaping), but the
    session survives and the reconnecting client completes the stream
    bit-identically."""
    injector = FaultInjector(FaultPlan(stall_sends={3}, stall_seconds=0.8))
    with serving(make_engine(), window=64,
                 idle_timeout=0.25) as (server, address):
        final, client = stream(address, trace, 97, faults=injector,
                               backoff_base=0.01)
        report = server.stop()
    assert ("stall_send", 3) in injector.events
    assert client.reconnects >= 1
    assert report["idle_closed"] >= 1
    assert observables(final["report"]) == expected["lru"]


# -- protocol robustness ------------------------------------------------------


def test_garbage_connection_gets_error_frame(trace):
    """A peer that is not speaking the protocol gets an explicit ERROR
    frame and a clean close — and sessions are unaffected."""
    with serving(make_engine(), window=64) as (server, address):
        raw = socket.create_connection(address, timeout=5)
        raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + bytes(64))
        reply = raw.recv(1 << 16)
        raw.close()
        ftype, length, crc = wire.parse_header(reply[:wire.HEADER.size])
        assert ftype == wire.T_ERROR
        payload = wire.decode_payload(
            reply[wire.HEADER.size:wire.HEADER.size + length], crc)
        assert "magic" in payload["reason"]
        # service still serves after the garbage connection
        final, _ = stream(address, synthetic_trace(100, seed=5), 50)
        assert final["serve"]["records_in"] == 100


def test_batch_before_hello_is_fatal():
    with serving(make_engine(), window=64) as (server, address):
        raw = socket.create_connection(address, timeout=5)
        raw.sendall(wire.pack_frame(wire.T_BATCH, {"seq": 0, "columns": {}}))
        reply = raw.recv(1 << 16)
        raw.close()
        ftype, length, crc = wire.parse_header(reply[:wire.HEADER.size])
        payload = wire.decode_payload(
            reply[wire.HEADER.size:wire.HEADER.size + length], crc)
        assert ftype == wire.T_ERROR and payload["fatal"]
        assert "HELLO" in payload["reason"]


def test_close_is_idempotent_across_reconnects(trace, expected):
    """The final report survives the close reply being lost: a second
    CLOSE (fresh connection) re-fetches the stored report."""
    with serving(make_engine(), window=64) as (server, address):
        final, _ = stream(address, trace, 97, session="c")
        again = IngestClient(address, "c")
        again.connect()
        replay = again.close_session()
        again.disconnect()
    assert observables(replay["report"]) == observables(final["report"])


def test_zero_ingest_served_results(trace):
    """results() on a served session that never ingested: an empty
    report with zeroed serve metadata, not an error."""
    with serving(make_engine(), window=64) as (server, address):
        client = IngestClient(address, "empty")
        client.connect()
        snap = client.results()
        final = client.close_session()
        client.disconnect()
    assert len(snap["report"].result) == 0
    assert snap["serve"]["records_in"] == 0
    assert snap["serve"]["bytes_in"] == 0
    assert len(final["report"].result) == 0


# -- trace tailer -------------------------------------------------------------


def wait_for(condition, timeout, what):
    """Poll ``condition`` until it holds; fail the test on expiry."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.02)


def _tail_collect(tailer, expected_rows, timeout=15.0):
    """Drive a tailer on a thread, collecting yielded tables; returns
    (stop_event, thread, out list)."""
    out: list[ObservationTable] = []
    stop = threading.Event()

    def consume():
        for table in tailer.batches(stop=stop):
            out.append(table)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    wait_for(lambda: _rows_of(out) >= expected_rows, timeout,
             f"{expected_rows} tailed rows")
    return stop, thread, out


def _rows_of(tables):
    return sum(len(t) for t in tables)


def _concat(tables):
    names = tables[0].columns().keys()
    return {name: np.concatenate([t.columns()[name] for t in tables])
            for name in names}


def test_tailer_incremental_append(tmp_path, trace):
    """Batches appear as the file grows; a final catch-up on stop
    delivers the partial tail; content matches the offline read."""
    path = tmp_path / "grow.csv"
    write_csv(trace[:250], path)
    tailer = TraceTailer(path, batch_size=50, poll_interval=0.01)
    stop, thread, out = _tail_collect(tailer, 250)
    assert _rows_of(out) == 250
    with open(path, "a") as fh:                 # append rows, no header
        tmp = tmp_path / "rest.csv"
        write_csv(trace[250:], tmp)
        fh.write(tmp.read_text().split("\n", 1)[1])
    wait_for(lambda: _rows_of(out) >= 600, 15.0, "600 tailed rows")
    stop.set()
    thread.join(timeout=15)
    assert _rows_of(out) == len(trace)
    got = _concat(out)
    for name, col in trace.columns().items():
        np.testing.assert_array_equal(got[name], col)


def test_tailer_survives_truncation(tmp_path, trace):
    """Truncating the file (writer restarted it with new, shorter
    content) reopens from the new start; everything already delivered
    stays delivered and the new content follows."""
    path = tmp_path / "trunc.csv"
    write_csv(trace[:100], path)
    tailer = TraceTailer(path, batch_size=50, poll_interval=0.01)
    stop, thread, out = _tail_collect(tailer, 100)
    assert _rows_of(out) == 100
    # In-place rewrite with fewer rows: size shrinks below the read
    # position, the signature of a restarted writer.
    write_csv(trace[100:150], path)
    wait_for(lambda: _rows_of(out) >= 150, 15.0, "150 tailed rows")
    stop.set()
    thread.join(timeout=15)
    assert tailer.truncations >= 1
    assert _rows_of(out) == 150
    got = _concat(out)
    for name, col in trace[:150].columns().items():
        np.testing.assert_array_equal(got[name], col)


def test_tailer_survives_rotation(tmp_path, trace):
    """Rotating the file (rename + new file at the path) drains the
    old file to EOF, then follows the new one from its header."""
    path = tmp_path / "rot.csv"
    write_csv(trace[:200], path)
    tailer = TraceTailer(path, batch_size=50, poll_interval=0.01)
    stop, thread, out = _tail_collect(tailer, 200)
    assert _rows_of(out) == 200
    os.rename(path, tmp_path / "rot.csv.1")
    write_csv(trace[200:500], path)
    wait_for(lambda: _rows_of(out) >= 500, 15.0, "500 tailed rows")
    stop.set()
    thread.join(timeout=15)
    assert tailer.rotations >= 1
    assert _rows_of(out) == 500
    got = _concat(out)
    for name, col in trace[:500].columns().items():
        np.testing.assert_array_equal(got[name], col)


def test_tailer_waits_for_missing_file(tmp_path, trace):
    path = tmp_path / "late.csv"
    tailer = TraceTailer(path, batch_size=50, poll_interval=0.01)
    stop, thread, out = _tail_collect(tailer, 0, timeout=0.2)
    assert _rows_of(out) == 0
    write_csv(trace[:150], path)
    wait_for(lambda: _rows_of(out) >= 150, 15.0, "150 tailed rows")
    stop.set()
    thread.join(timeout=15)
    assert _rows_of(out) == 150


def test_tailed_server_differential_with_drain_checkpoint(
        tmp_path, trace, expected):
    """End to end through the server: tail a growing file into a served
    session, drain on stop, and the drain checkpoint resumes to the
    uninterrupted run() result."""
    path = tmp_path / "feed.csv"
    ckpt_dir = tmp_path / "ckpt"
    write_csv(trace[:300], path)
    engine = make_engine()
    server = engine.serve(window=64, checkpoint_dir=ckpt_dir)
    server.attach_tailer(path, session="tail", batch_size=64,
                         poll_interval=0.01)
    server.start()
    # Before stop, the tailer yields full batches only: the first 300
    # rows arrive as four batches of 64, the 44-row tail on stop.

    def tailed():
        served = server._sessions.get("tail")
        return served is not None and served.records_in >= 4 * 64

    wait_for(tailed, 15.0, "four full tailed batches")
    with open(path, "a") as fh:
        tmp = tmp_path / "rest.csv"
        write_csv(trace[300:], tmp)
        fh.write(tmp.read_text().split("\n", 1)[1])
    report = server.stop()
    info = report["sessions"]["tail"]
    assert info["records_in"] == len(trace)
    assert "checkpoint" in info
    # the drain checkpoint captured the fully-ingested session
    resumed = engine.resume(Path(info["checkpoint"]).read_bytes())
    assert resumed.packets_ingested == len(trace)
    assert observables(resumed.close(include_invalid=True)) == \
        expected["lru"]


def test_stream_file_convenience(tmp_path, trace, expected):
    path = tmp_path / "whole.csv"
    write_csv(trace, path)
    with serving(make_engine(), window=64) as (server, address):
        final = stream_file(address, path, "csv", batch_size=128)
    assert observables(final["report"]) == expected["lru"]


# -- auto-checkpointing -------------------------------------------------------


def test_periodic_auto_checkpoint(tmp_path, trace, expected):
    """Every N ingested batches the server rewrites the session's
    checkpoint file atomically; the last one resumes correctly."""
    ckpt_dir = tmp_path / "auto"
    engine = make_engine()
    with serving(engine, window=64, checkpoint_dir=ckpt_dir,
                 checkpoint_every_batches=2) as (server, address):
        final, _ = stream(address, trace, 97, session="ak")
    meta = final["serve"]
    assert meta["checkpoints_written"] == meta["batches_in"] // 2
    snapshot = (ckpt_dir / "ak.ckpt").read_bytes()
    resumed = engine.resume(snapshot)
    assert resumed.packets_ingested > 0
    columns = trace.columns()
    skip = resumed.packets_ingested
    resumed.ingest(ObservationTable.from_arrays(
        {name: col[skip:] for name, col in columns.items()}))
    assert observables(resumed.close(include_invalid=True)) == \
        expected["lru"]
    assert not list(ckpt_dir.glob("*.tmp")), "torn checkpoint left behind"


def test_checkpoint_every_requires_dir():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        IngestServer(make_engine(), checkpoint_every_batches=4)


# -- SIGTERM drain ------------------------------------------------------------


_SERVE_CHILD = """
import sys, threading
from repro.switch.kvstore.cache import CacheGeometry
from repro.telemetry.runtime import QueryEngine

engine = QueryEngine("SELECT COUNT, SUM(pkt_len) GROUPBY srcip",
                     geometry=CacheGeometry.set_associative(64, ways=4))
server = engine.serve(window=64, shards=2, checkpoint_dir=sys.argv[1])

def announce():
    server._ready.wait()
    print(server.address[1], flush=True)

threading.Thread(target=announce, daemon=True).start()
report = server.run_forever()
info = report["sessions"].get("sig", {})
print("DRAINED", info.get("records_in"), flush=True)
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
def test_sigterm_drain_checkpoints_and_resumes(tmp_path, trace, expected):
    """Kill a serving process (2-shard session) mid-stream with
    SIGTERM: it finishes queued windows, checkpoints, exits cleanly
    with no stranded /dev/shm segments, and the checkpoint resumes to
    the uninterrupted result."""
    before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(root / "src"), env.get("PYTHONPATH")] if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE_CHILD, str(tmp_path)],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        port = int(proc.stdout.readline())
        client = IngestClient(("127.0.0.1", port), "sig", retry_seed=7)
        client.connect()
        batches = list(chunked(trace, 97))
        for batch in batches[:4]:
            client.send(batch)
        client.flush()                    # every sent batch is queued
        proc.send_signal(signal.SIGTERM)
        line = proc.stdout.readline().split()
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert line[0] == "DRAINED" and int(line[1]) == 4 * 97
    # no stranded shared memory from the shard workers
    wait_for(lambda: not ({n for n in os.listdir("/dev/shm")
                           if n.startswith("psm_")} - before),
             5.0, "shard workers to release their /dev/shm segments")
    # the drain checkpoint resumes to the uninterrupted result
    engine = make_engine()
    resumed = engine.resume((tmp_path / "sig.ckpt").read_bytes())
    assert resumed.packets_ingested == 4 * 97
    columns = trace.columns()
    resumed.ingest(ObservationTable.from_arrays(
        {name: col[4 * 97:] for name, col in columns.items()}))
    assert observables(resumed.close(include_invalid=True)) == \
        expected["lru"]


# -- poisoned served session --------------------------------------------------


def test_served_session_poisoning_surfaces_cause(trace):
    """An ingest failure inside a served session poisons it: later
    calls get a fatal ERROR naming the failure, and the original
    exception rides the drain report."""
    from repro.telemetry.faults import FaultPlan as FP

    injector = FaultInjector(FP(abort_ingests={2}))
    with serving(make_engine(), window=64,
                 faults=injector) as (server, address):
        client = IngestClient(address, "poison", max_retries=0)
        client.connect()
        # The fault fires asynchronously on the worker thread, so the
        # poisoning may surface on a later send (enqueue refused) or
        # at the results() call — either way it names the real cause.
        with pytest.raises(ClientError, match="InjectedFault"):
            for batch in list(chunked(trace, 97))[:3]:
                client.send(batch)
            client.results()
        client.disconnect()
        report = server.stop()
    info = report["sessions"]["poison"]
    assert "InjectedFault" in info["error"]
