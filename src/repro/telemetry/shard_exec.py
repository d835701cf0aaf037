"""Reusable multi-process worker pool for sharded session execution.

The Fig. 5/6 sweeps (:mod:`repro.analysis.sweep_exec`) already fan
independent cells across processes over one ``multiprocessing.shared_memory``
segment.  This module generalises that plumbing into a long-lived pool
that sharded *sessions* can stream through:

* **Batch framing.** :meth:`ShardWorkerPool.post` ships a dict of numpy
  arrays to one worker by packing them into a single shared-memory
  segment (one copy in, one copy out — no pickling of the bulk data);
  scalar metadata rides the control pipe.  Each segment lives until the
  worker acknowledges the copy-out, then the parent unlinks it, so the
  ``/dev/shm`` footprint is bounded by :data:`MAX_PENDING` segments per
  worker regardless of stream length.
* **Worker lifecycle.** Workers are forked (role objects are inherited
  by memory, never pickled — compiled programs and closures ship for
  free), run a recv/handle loop, and stop on a sentinel;
  :meth:`ShardWorkerPool.close` joins them with a terminate fallback
  and a ``weakref.finalize`` backstop for abandoned pools, releasing
  any still-pending segments either way.  Live pools are additionally
  registered for ``atexit``/SIGTERM teardown, so a killed parent drains
  in-flight batches and unlinks its ``/dev/shm`` segments instead of
  leaving strays behind.
* **Crash propagation and recovery.** A worker exception travels back
  as a formatted traceback and re-raises in the parent as
  :class:`ShardError` — handler failures are deterministic and are
  never retried.  A *dead* worker (EOF/broken pipe/killed process) is
  different: when the pool was built with ``checkpoint_every``, the
  parent keeps each role's pristine pre-fork copy, takes a synchronous
  role checkpoint every ``checkpoint_every`` journaled posts (the FIFO
  pipe guarantees the checkpoint reflects every prior post), and
  journals the posts since.  On worker death it respawns the worker
  from the pristine role, restores the last checkpoint, and replays
  only the journaled batches — with exponential backoff and a bounded
  restart budget per worker; exhausting the budget raises a terminal
  :class:`ShardError` that says so.  Without ``checkpoint_every`` a
  dead worker is terminal immediately (the previous behaviour).
* **Fault injection.** A :class:`~repro.telemetry.faults.FaultInjector`
  passed as ``faults`` is consulted before every public send (it may
  kill the target worker first) and on every ack (it may drop or
  duplicate the release) — a deterministic, seeded way to exercise the
  recovery machinery in tests.

The pool is transport only — all sharding semantics (key partitioning,
merge combining) live with the roles, see
:mod:`repro.switch.kvstore.sharded` and
:class:`repro.telemetry.deploy.NetworkSession`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import signal
import sys
import threading
import time
import traceback
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import CheckpointError, HardwareError

#: Cap on unacknowledged in-flight batches per worker: bounds both the
#: transient /dev/shm footprint (a segment lives until its worker
#: copies it out) and how far the parent can run ahead of a slow shard.
MAX_PENDING = 8

#: Default restart budget per worker when crash recovery is enabled.
DEFAULT_MAX_RESTARTS = 3

#: Base of the exponential restart backoff (seconds): restart ``k``
#: sleeps ``U(0, backoff * 2**(k-1))`` — *full jitter*, so workers
#: restarting off the same failure don't synchronize into a storm.
DEFAULT_RESTART_BACKOFF = 0.05


class ShardError(HardwareError):
    """A shard worker failed: raised in its handler, died beyond
    recovery, or the pool was asked to operate after such a failure
    poisoned it."""


class _WorkerDied(Exception):
    """Internal: the worker's pipe broke during a non-journaled
    (direct) interaction — checkpoint, restore, or replay.  Carries the
    reason; callers decide whether another restart attempt remains."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def release_shared_memory(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one shared-memory segment, tolerating partial
    or repeated teardown: a ``close()`` failure (e.g. a live buffer
    export) must not leak the ``/dev/shm`` segment, and releasing twice
    is a no-op.  Shared by this pool and the sweep pool's ``_fan``."""
    try:
        shm.close()
    except BufferError:
        # A numpy view still references the buffer; the mapping stays
        # until the view dies, but the segment must still be unlinked.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _pack_frames(arrays: Mapping[str, np.ndarray] | None) -> tuple[
        shared_memory.SharedMemory | None, tuple]:
    """Pack named arrays into one fresh segment; returns the segment
    (``None`` when there is nothing to ship) and the per-array specs
    ``(name, offset, dtype, shape)`` the receiver rebuilds from."""
    if not arrays:
        return None, ()
    packed = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.hasobject:
            raise ShardError(
                f"cannot ship object-dtype column {name!r} through "
                f"shared memory")
        packed.append((name, offset, arr))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    try:
        specs = []
        for name, off, arr in packed:
            if arr.nbytes:
                view = np.ndarray(arr.shape, dtype=arr.dtype,
                                  buffer=shm.buf, offset=off)
                view[...] = arr
                del view   # drop the buffer export before any close()
            specs.append((name, off, arr.dtype.str, arr.shape))
        return shm, tuple(specs)
    except BaseException:
        # the segment has no owner until it lands in w.pending; a
        # failed view write must not leak it in /dev/shm
        release_shared_memory(shm)
        raise


def _unpack_frames(shm_name: str | None,
                   specs: tuple) -> dict[str, np.ndarray]:
    """Copy the framed arrays out of the named segment (receiver side);
    the segment is closed before returning — the parent unlinks it on
    the acknowledgement this copy-out enables."""
    if shm_name is None:
        return {}
    # Attaching registers the segment a second time — but the pool
    # starts the resource tracker *before* forking, so every worker
    # shares the parent's tracker and the re-register is an idempotent
    # set-add; the parent's unlink performs the single unregister.
    # (Unregistering here instead would strip the parent's entry and
    # make that unlink trip the tracker's bookkeeping.)
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        out = {}
        for name, offset, dtype, shape in specs:
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=shm.buf, offset=offset)
            out[name] = view.copy()
            del view
    finally:
        try:
            shm.close()
        except BufferError:      # pragma: no cover - views are deleted
            pass
    return out


def _worker_main(role, conn) -> None:
    """Worker loop: receive, ack the segment, dispatch to the role.

    ``__checkpoint__``/``__restore__`` are pool-internal ops served by
    the role's ``checkpoint()``/``restore(state)`` methods — the basis
    of both composite session checkpoints and crash recovery."""
    try:
        # The parent's SIGTERM drain handler must not run in workers
        # (they hold the parent's pool registry from the fork).
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):        # pragma: no cover - non-main thread
        pass
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg[0] == "stop":
                return
            _, token, op, meta, reply, shm_name, specs = msg
            try:
                arrays = _unpack_frames(shm_name, specs)
            except Exception:
                conn.send(("error", token, traceback.format_exc()))
                continue
            conn.send(("ack", token))
            try:
                if op == "__checkpoint__":
                    result = role.checkpoint()
                elif op == "__restore__":
                    result = role.restore(meta)
                else:
                    result = role.handle(op, meta, arrays)
            except Exception:
                conn.send(("error", token, traceback.format_exc()))
                continue
            if reply:
                conn.send(("result", token, result))
    except (BrokenPipeError, OSError):   # parent went away mid-send
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    __slots__ = ("proc", "conn", "index", "pending", "results", "failed",
                 "journal", "since_ckpt", "last_ckpt", "restarts",
                 "awaiting")

    def __init__(self, proc, conn, index: int):
        self.proc = proc
        self.conn = conn
        self.index = index
        #: token -> SharedMemory segments awaiting the worker's ack.
        self.pending: dict[int, shared_memory.SharedMemory] = {}
        #: token -> payload for completed calls not yet collected.
        self.results: dict[int, Any] = {}
        self.failed: str | None = None
        #: Journaled (token, op, meta, arrays, reply) since the last
        #: role checkpoint — the replay set after a crash.  Only kept
        #: when recovery is enabled, and bounded by checkpoint_every.
        self.journal: list[tuple] = []
        self.since_ckpt = 0
        #: Last role checkpoint payload (None until the first one).
        self.last_ckpt: Any = None
        self.restarts = 0
        #: Reply tokens not yet received — the set a replay re-requests.
        self.awaiting: set[int] = set()


#: Pools whose workers/segments must be torn down at interpreter exit
#: or on SIGTERM (the weakref backstop only fires on GC, which a killed
#: parent never reaches).
_LIVE_POOLS: "weakref.WeakSet[ShardWorkerPool]" = weakref.WeakSet()
_EXIT_HOOKS_INSTALLED = False


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception as exc:         # pragma: no cover - best effort
            # teardown must still visit every remaining pool, but a
            # failed close (undrained worker, leaked segment) is what
            # the operator needs to hear about at exit
            sys.stderr.write(
                f"repro: shard pool teardown failed: {exc!r}\n")


def _sigterm_handler(signum, frame):     # pragma: no cover - exercised
    _close_live_pools()                  # in a subprocess test
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_exit_hooks() -> None:
    """Once per process: atexit teardown always; a SIGTERM handler only
    when none is installed (we chain to the default after draining, and
    never stomp a user handler)."""
    global _EXIT_HOOKS_INSTALLED
    if _EXIT_HOOKS_INSTALLED:
        return
    _EXIT_HOOKS_INSTALLED = True
    atexit.register(_close_live_pools)
    if threading.current_thread() is threading.main_thread():
        try:
            if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
                signal.signal(signal.SIGTERM, _sigterm_handler)
        except (ValueError, OSError):    # pragma: no cover - non-main
            pass


def _shutdown(workers: list[_Worker], drain_timeout: float = 1.0) -> None:
    """Stop every worker, *drain* in-flight acks (so segments are
    released by handshake, not force-unlinked mid-copy), then release
    whatever is left; used by :meth:`ShardWorkerPool.close`, the GC
    backstop, and the atexit/SIGTERM hooks."""
    for w in workers:
        try:
            w.conn.send(("stop",))
        except (OSError, ValueError):
            pass
    deadline = time.monotonic() + drain_timeout
    for w in workers:
        # The worker acks each queued batch before it sees the stop
        # sentinel (FIFO), so waiting here lets it finish copying out.
        while w.pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                if not w.conn.poll(min(remaining, 0.05)):
                    continue
                msg = w.conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "ack":
                shm = w.pending.pop(msg[1], None)
                if shm is not None:
                    release_shared_memory(shm)
            # results/errors arriving during shutdown are dropped
    for w in workers:
        try:
            w.conn.close()
        except OSError:
            pass
        for shm in w.pending.values():
            release_shared_memory(shm)
        w.pending.clear()
    for w in workers:
        w.proc.join(timeout=5.0)
        if w.proc.is_alive():          # pragma: no cover - stuck worker
            w.proc.terminate()
            w.proc.join(timeout=1.0)


class ShardWorkerPool:
    """One forked worker process per role, with shared-memory batch
    shipping, bounded run-ahead, and crash propagation.

    ``post`` is fire-and-forget (ordering per worker is the pipe's
    FIFO, so a later ``call`` observes every earlier post — what makes
    mid-stream snapshots consistent); ``submit``/``result`` split a
    call so finalization can run on all shards concurrently
    (:meth:`call_all`).

    Args:
        roles: One role object per worker (forked, never pickled).
        name: Process-name prefix.
        checkpoint_every: When set, enables crash *recovery*: every
            ``checkpoint_every`` journaled posts per worker the pool
            takes a synchronous role checkpoint, and a worker that dies
            is respawned from its pristine role, restored from the last
            checkpoint, and fed only the journaled batches since.
            Roles must implement ``checkpoint()``/``restore(state)``.
        max_restarts: Per-worker restart budget before a dead worker
            becomes a terminal :class:`ShardError`.
        restart_backoff: Cap base of the jittered exponential backoff
            slept before each restart attempt: restart ``k`` sleeps
            ``U(0, restart_backoff * 2**(k-1))``.
        restart_jitter: Seed for the backoff jitter RNG (reproducible
            restart timing in tests); ``None`` seeds from the OS.
        ack_timeout: Seconds a synchronous wait on a worker reply may
            block before the pool gives up on the worker.  A crashed
            worker breaks its pipe and is detected immediately, but a
            *wedged-but-alive* worker (deadlocked handler, stuck
            syscall) would otherwise hang the parent forever; the
            timeout turns it into a :class:`ShardError` naming the
            worker.  ``None`` (the default) waits indefinitely.
        faults: Optional
            :class:`~repro.telemetry.faults.FaultInjector` consulted on
            public sends and acks (deterministic fault injection).
    """

    def __init__(self, roles: Sequence[object], name: str = "shard",
                 checkpoint_every: int | None = None,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 restart_backoff: float = DEFAULT_RESTART_BACKOFF,
                 restart_jitter: int | None = None,
                 ack_timeout: float | None = None,
                 faults=None):
        if not roles:
            raise ShardError("worker pool needs at least one role")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ShardError(
                f"checkpoint_every must be a positive post count, got "
                f"{checkpoint_every!r}")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:             # pragma: no cover - non-POSIX
            raise ShardError(
                "sharded execution requires the fork start method "
                "(POSIX); this platform does not provide it") from None
        self._recovery = checkpoint_every is not None
        if self._recovery:
            for i, role in enumerate(roles):
                if not (hasattr(role, "checkpoint")
                        and hasattr(role, "restore")):
                    raise ShardError(
                        f"crash recovery (checkpoint_every=) needs roles "
                        f"with checkpoint()/restore(); role {i} "
                        f"({type(role).__name__}) has neither")
        self._ctx = ctx
        self._name = name
        #: Pristine pre-fork role copies — the respawn template.  The
        #: parent never mutates them; each worker mutates its own
        #: forked copy.
        self._roles = list(roles)
        self._checkpoint_every = checkpoint_every
        self._max_restarts = max_restarts
        self._restart_backoff = restart_backoff
        self._restart_rng = random.Random(restart_jitter)
        if ack_timeout is not None and ack_timeout <= 0:
            raise ShardError(
                f"ack_timeout must be a positive number of seconds "
                f"(or None to wait forever), got {ack_timeout!r}")
        self._ack_timeout = ack_timeout
        self._faults = faults
        self._workers: list[_Worker] = []
        self._token = 0
        self._closed = False
        # Start the shared-memory resource tracker *before* forking so
        # every worker (including later respawns) inherits it: attach-
        # time registrations in workers then collapse into the parent's
        # own entries instead of fighting a per-child tracker.
        resource_tracker.ensure_running()
        for i in range(len(roles)):
            proc, conn = self._spawn(i)
            self._workers.append(_Worker(proc, conn, i))
        self._finalizer = weakref.finalize(
            self, _shutdown, list(self._workers))
        _install_exit_hooks()
        _LIVE_POOLS.add(self)

    def _spawn(self, index: int):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(self._roles[index], child_conn),
            name=f"{self._name}-{index}", daemon=True)
        proc.start()
        child_conn.close()
        return proc, parent_conn

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- sending -------------------------------------------------------------

    def post(self, worker: int, op: str, meta: Any = None,
             arrays: Mapping[str, np.ndarray] | None = None) -> None:
        """Fire-and-forget: ship ``arrays``/``meta`` to one worker.  A
        handler failure surfaces as :class:`ShardError` on a later
        interaction with that worker."""
        self._send(worker, op, meta, arrays, reply=False)

    def submit(self, worker: int, op: str, meta: Any = None,
               arrays: Mapping[str, np.ndarray] | None = None,
               ) -> tuple[int, int]:
        """Start a call; pass the returned handle to :meth:`result`."""
        return self._send(worker, op, meta, arrays, reply=True)

    def call(self, worker: int, op: str, meta: Any = None,
             arrays: Mapping[str, np.ndarray] | None = None) -> Any:
        """Synchronous round trip to one worker."""
        return self.result(self.submit(worker, op, meta, arrays))

    def call_all(self, op: str, meta: Any = None) -> list[Any]:
        """Run ``op`` on every worker *concurrently* (all requests are
        in flight before the first result is awaited) and return the
        payloads in worker order."""
        handles = [self.submit(i, op, meta)
                   for i in range(len(self._workers))]
        return [self.result(h) for h in handles]

    def result(self, handle: tuple[int, int]) -> Any:
        """Collect one submitted call's payload (blocking).  If the
        worker dies while we wait and recovery is enabled, the replay
        re-requests the reply and this call keeps waiting for it."""
        index, token = handle
        w = self._workers[index]
        self._check(w)
        while token not in w.results:
            msg = self._recv(w)
            if msg is not None:
                self._handle_msg(w, msg)
        w.awaiting.discard(token)
        return w.results.pop(token)

    # -- durable checkpoints / recovery ---------------------------------------

    def checkpoint_workers(self) -> list[Any]:
        """Synchronously checkpoint every role and return the states in
        worker order.  Doubles as a recovery baseline: each worker's
        journal is truncated (the FIFO round trip proves every prior
        post is reflected in the state)."""
        if self._closed:
            raise ShardError("worker pool is closed")
        return [self._checkpoint_worker(w) for w in self._workers]

    def restore_workers(self, states: Sequence[Any]) -> None:
        """Restore every role from ``states`` (one per worker, as
        returned by :meth:`checkpoint_workers`)."""
        if len(states) != len(self._workers):
            raise CheckpointError(
                f"snapshot carries {len(states)} shard states, pool has "
                f"{len(self._workers)} workers — resume with the same "
                f"shard count")
        for w, state in zip(self._workers, states):
            self._check(w)
            w.last_ckpt = state
            w.journal.clear()
            w.since_ckpt = 0
            while True:
                try:
                    token = self._send_direct(w, "__restore__", state,
                                              reply=True)
                    self._await_direct(w, token)
                    break
                except _WorkerDied as exc:
                    self._respawn(w, exc.reason)
                    # _respawn already restored last_ckpt (= state) and
                    # replayed the (empty) journal on success.
                    break

    def _checkpoint_worker(self, w: _Worker) -> Any:
        while True:
            try:
                token = self._send_direct(w, "__checkpoint__", None,
                                          reply=True)
                state = self._await_direct(w, token)
            except _WorkerDied as exc:
                # Recover (restore previous checkpoint + replay the
                # journal — it is still intact) and retry; the restart
                # budget in _respawn bounds this loop.
                self._respawn(w, exc.reason)
                continue
            w.last_ckpt = state
            w.journal.clear()
            w.since_ckpt = 0
            return state

    def _respawn(self, w: _Worker, reason: str) -> None:
        """Replace a dead worker: fresh fork from the pristine role,
        restore the last checkpoint, replay the journal.  Raises the
        terminal :class:`ShardError` when recovery is disabled or the
        restart budget is exhausted."""
        if not self._recovery:
            w.failed = reason
            raise ShardError(f"shard worker {w.index} {reason}")
        while True:
            w.restarts += 1
            if w.restarts > self._max_restarts:
                w.failed = (f"{reason}; restart budget "
                            f"({self._max_restarts}) exhausted")
                raise ShardError(
                    f"shard worker {w.index} cannot be recovered: "
                    f"{reason} after {self._max_restarts} restart "
                    f"attempt(s) — giving up")
            # Full jitter: U(0, backoff * 2**k) rather than the bare
            # exponential — deterministic backoff would march every
            # worker felled by the same cause through identical restart
            # instants (a restart storm); the seeded RNG keeps tests
            # reproducible.
            time.sleep(self._restart_rng.uniform(
                0.0, self._restart_backoff * (2 ** (w.restarts - 1))))
            try:
                w.conn.close()
            except OSError:
                pass
            for shm in w.pending.values():
                release_shared_memory(shm)
            w.pending.clear()
            if w.proc.is_alive():
                w.proc.terminate()
            w.proc.join(timeout=5.0)
            w.proc, w.conn = self._spawn(w.index)
            try:
                if w.last_ckpt is not None:
                    token = self._send_direct(w, "__restore__",
                                              w.last_ckpt, reply=True)
                    self._await_direct(w, token)
                self._replay(w)
            except _WorkerDied as exc:
                reason = exc.reason
                continue
            return

    def _replay(self, w: _Worker) -> None:
        """Re-send every journaled batch to a freshly restored worker,
        re-requesting replies only for tokens still awaited."""
        for token, op, meta, arrays, reply in w.journal:
            want = reply and token in w.awaiting
            shm, specs = _pack_frames(arrays)
            if shm is not None:
                w.pending[token] = shm
            try:
                w.conn.send(("op", token, op, meta, want,
                             None if shm is None else shm.name, specs))
            except (OSError, ValueError) as exc:
                if shm is not None:
                    shm = w.pending.pop(token, None)
                    if shm is not None:
                        release_shared_memory(shm)
                raise _WorkerDied(f"send failed during replay: {exc}")
            while len(w.pending) >= MAX_PENDING:
                self._handle_msg(w, self._recv_direct(w))

    # -- internals -----------------------------------------------------------

    def _send(self, index: int, op: str, meta: Any,
              arrays: Mapping[str, np.ndarray] | None,
              reply: bool) -> tuple[int, int]:
        w = self._workers[index]
        self._check(w)
        if self._faults is not None:
            if self._faults.on_post(index, op) == "kill":
                # Simulated crash: the worker dies *before* this batch
                # reaches it; delivery happens via recovery replay.
                w.proc.kill()
                w.proc.join(timeout=5.0)
        # Opportunistically drain acks, then block while over the cap.
        while w.conn.poll(0):
            msg = self._recv(w)
            if msg is not None:
                self._handle_msg(w, msg)
        while len(w.pending) >= MAX_PENDING:
            msg = self._recv(w)
            if msg is not None:
                self._handle_msg(w, msg)
        self._token += 1
        token = self._token
        if self._recovery:
            self.journal_append(w, token, op, meta, arrays, reply)
        if reply:
            w.awaiting.add(token)
        shm, specs = _pack_frames(arrays)
        if shm is not None:
            w.pending[token] = shm
        try:
            w.conn.send(("op", token, op, meta, reply,
                         None if shm is None else shm.name, specs))
        except (OSError, ValueError) as exc:
            if shm is not None:
                release_shared_memory(w.pending.pop(token))
            if self._recovery:
                # The batch is journaled: recovery replays it, so the
                # logical send has happened once the respawn succeeds.
                self._respawn(w, f"send failed: {exc}")
                self._maybe_checkpoint(w)
                return index, token
            w.failed = f"send failed: {exc}"
            raise ShardError(
                f"shard worker {w.index} is gone "
                f"(exitcode {w.proc.exitcode}): {exc}") from exc
        self._maybe_checkpoint(w)
        return index, token

    def journal_append(self, w: _Worker, token: int, op: str, meta: Any,
                       arrays: Mapping[str, np.ndarray] | None,
                       reply: bool) -> None:
        w.journal.append(
            (token, op, meta, None if arrays is None else dict(arrays),
             reply))
        w.since_ckpt += 1

    def _maybe_checkpoint(self, w: _Worker) -> None:
        if (self._recovery
                and w.since_ckpt >= self._checkpoint_every):
            self._checkpoint_worker(w)

    def _send_direct(self, w: _Worker, op: str, meta: Any,
                     reply: bool) -> int:
        """Non-journaled send for pool-internal ops (checkpoint,
        restore); raises :class:`_WorkerDied` instead of recovering."""
        self._token += 1
        token = self._token
        try:
            w.conn.send(("op", token, op, meta, reply, None, ()))
        except (OSError, ValueError) as exc:
            raise _WorkerDied(f"send failed: {exc}")
        return token

    def _await_direct(self, w: _Worker, token: int) -> Any:
        while token not in w.results:
            self._handle_msg(w, self._recv_direct(w))
        return w.results.pop(token)

    def _await_readable(self, w: _Worker) -> None:
        """Ack-timeout guard: a dead worker breaks the pipe, but a
        wedged-but-alive one never writes — without a timeout the
        parent inherits the wedge.  Raises :class:`ShardError` naming
        the worker when ``ack_timeout`` elapses with no reply."""
        if self._ack_timeout is None:
            return
        if not w.conn.poll(self._ack_timeout):
            w.failed = (f"no reply within ack_timeout="
                        f"{self._ack_timeout}s (worker alive but wedged)")
            raise ShardError(
                f"shard worker {w.index} (pid {w.proc.pid}) sent no "
                f"reply within {self._ack_timeout}s — the process is "
                f"still alive but wedged; the pool has given up on it")

    def _recv_direct(self, w: _Worker):
        self._await_readable(w)
        try:
            return w.conn.recv()
        except (EOFError, OSError):
            for shm in w.pending.values():
                release_shared_memory(shm)
            w.pending.clear()
            raise _WorkerDied(
                f"worker died (exitcode {w.proc.exitcode})")

    def _recv(self, w: _Worker):
        """Receive one message, or recover a dead worker and return
        ``None`` (the caller re-checks its wait condition)."""
        self._await_readable(w)
        try:
            return w.conn.recv()
        except (EOFError, OSError) as exc:
            reason = f"worker died (exitcode {w.proc.exitcode})"
            for shm in w.pending.values():
                release_shared_memory(shm)
            w.pending.clear()
            if self._recovery:
                self._respawn(w, reason)     # terminal ShardError inside
                return None                  # when the budget runs out
            w.failed = reason
            raise ShardError(
                f"shard worker {w.index} died "
                f"(exitcode {w.proc.exitcode})") from exc

    def _handle_msg(self, w: _Worker, msg) -> None:
        kind = msg[0]
        if kind == "ack":
            if self._faults is not None:
                action = self._faults.on_ack(w.index)
                if action == "drop":
                    # Segment stays pending; released at close (the
                    # teardown paths are idempotent by design).
                    return
                if action == "dup":
                    shm = w.pending.pop(msg[1], None)
                    if shm is not None:
                        release_shared_memory(shm)
                    # fall through: process the same ack again —
                    # exercises release idempotency
            shm = w.pending.pop(msg[1], None)
            if shm is not None:
                release_shared_memory(shm)
        elif kind == "result":
            w.results[msg[1]] = msg[2]
            w.awaiting.discard(msg[1])
        else:                                    # ("error", token, tb)
            w.failed = msg[2]
            raise ShardError(
                f"shard worker {w.index} raised:\n{msg[2]}")

    def _check(self, w: _Worker) -> None:
        if self._closed:
            raise ShardError("worker pool is closed")
        if w.failed is not None:
            raise ShardError(
                f"shard worker {w.index} already failed:\n{w.failed}")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release pending segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()          # runs _shutdown exactly once

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
