"""Training workers: pooled clients play their rounds in forked processes,
one core each.

A pooled client is a `WorkerClient` here and, in a persistent worker, the
same `protocol.Client` that plays in process. The server's message goes in
as wire bytes through the worker's shared area; the worker's client decodes
it, trains, and writes the round's `delta` over it as float64, which this
side encodes (`protocol.encode_update`), so the uplink codec runs where the
server runs. A session is bound with its first message, so `join` makes the
ack here and the worker's client books it; the shutdown's answer brings the
client's ledger home and ends the session.

A lane (a federation, or central's or a local client) also scores its
rounds there: round t's global model goes into the worker's second slot
(`hand`), and a `score` job follows the last client's next job, its round
t+1 or its shutdown, while the driving thread folds or works out the final
BLEU; `score` reads the perplexity. Every job gets exactly one reply.

The pool is forked once per process, by the first federation of two or more
clients that can use it: W = min(K, C) workers for K clients on C usable
cores, only while the caller runs no other thread, and none with W < 2,
without `os.fork` or after a failed fork. Each worker makes itself a
SCHED_BATCH task where it can, so a job that wakes it does not preempt the
thread that sends the round's other jobs. Each idle worker is lent to one
run at a time: a federation borrows up to W, and client i plays on the
(i mod n)-th of the n it got; a lone client borrows one; a run that borrows
none plays in process. A worker runs one job at a time; a client's job
queued behind another client's is sent once that one is answered, a score
job at once. A run that succeeds has read every reply and returns its
workers as they are; a run that fails in any way, a KeyboardInterrupt
included, kills its workers at once and discards them, so no reply is ever
left behind for the next run, and the next federation forks anew. A worker
that dies, or spends a whole channel timeout without answering or using any
CPU time (then it is killed), fails its run. A busy worker is waited for as
long as it computes. Jobs are pickled with their arrays out of band, so a
shard is copied once.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import mmap
import os
import pickle
import re
import signal
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from multiprocessing import Pipe

import numpy as np

from .errors import DeltaFedError
from .model import perplexity_of
from .params import ParameterSet
from .protocol import Client, ClientTask, encode_update, join_ack
from .transport import DEFAULT_TIMEOUT
from .wire import HEADER_LEN, KIND_SHUTDOWN, parse_header

REAP_SECONDS = 1.0  # how long to wait for a worker to end before killing it


def pool_size(clients: int, cpus: int) -> int:
    """Workers for a federation of `clients` on `cpus` usable cores."""
    return min(clients, cpus)


def planned_workers(clients: int) -> int:
    """Workers a federation of `clients` would train on; 0 trains in process."""
    if not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    w = pool_size(clients, cpus)
    return w if w >= 2 else 0


class _Area:
    """Shared scratch memory of a worker: one file both processes inherit
    and map. Either side grows it; each maps as much of it as it needs."""

    def __init__(self) -> None:
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("deltafed-worker")
        else:
            self.fd, path = tempfile.mkstemp()
            os.unlink(path)
        self.size = 0
        self._map = None

    def view(self, n: int) -> memoryview:
        """The first n bytes, the file grown and mapped anew if need be."""
        if n > self.size:
            size = os.fstat(self.fd).st_size
            if n > size:
                size = max(n, 2 * size)
                os.ftruncate(self.fd, size)
            self._map = mmap.mmap(self.fd, size)
            self.size = size
        return memoryview(self._map)[:n]

    def close(self) -> None:
        self._map = None
        os.close(self.fd)


class _Worker:
    """The parent's handle on one worker process."""

    def __init__(self, conn) -> None:
        self.pid = 0  # once forked
        self.conn = conn
        self.area = _Area()  # the round's message, then the delta
        self.slot = _Area()  # the global model to score
        self.ids = None  # the held-out ids the worker scores on
        self.queue: collections.deque = collections.deque()  # clients with a job to answer; the first's is sent
        self.failure: str | None = None  # how it ended, once reaped
        self.lent = False  # to a run, under _pool_lock

    def close(self) -> None:
        self.conn.close()
        self.area.close()
        self.slot.close()

    def send(self, job) -> None:
        """Send a job; a worker that died fails the read of its reply, not this."""
        with suppress(OSError):
            _send(self.conn, job)

    def read(self, what: str):
        """-> the value of the next reply; raises the error the worker sent
        back, or a DeltaFedError "<what> worker <why>" when no reply comes.
        The wait goes in DEFAULT_TIMEOUT slices and lasts while the worker's
        CPU time grows from one slice to the next: a worker that spent a
        slice without CPU time, or any once its CPU time cannot be read, is
        killed."""
        cpu = _cpu_ticks(self.pid)
        try:
            while not self.conn.poll(DEFAULT_TIMEOUT):
                last, cpu = cpu, _cpu_ticks(self.pid)
                if cpu is None or cpu == last:
                    self.reap(0.0)
                    raise DeltaFedError(f"{what} worker did not answer within {DEFAULT_TIMEOUT:g} s")
            status, value = self.conn.recv()
        except (EOFError, OSError):
            status, value = "lost", self.reap(REAP_SECONDS)
        if status == "ok":
            return value
        if status == "err":
            raise value
        raise DeltaFedError(f"{what} worker {value}")

    def reap(self, seconds: float) -> str:
        """Wait up to `seconds` for the process to end, kill it after that;
        -> how it ended."""
        if self.failure is None:
            deadline = time.monotonic() + seconds
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                while not pid and time.monotonic() < deadline:
                    time.sleep(0.005)
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                if not pid:
                    os.kill(self.pid, signal.SIGKILL)
                    _, status = os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped by someone else's waitpid(-1)
                self.failure = "exited"
                return self.failure
            code = os.waitstatus_to_exitcode(status)
            self.failure = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return self.failure


def _cpu_ticks(pid: int) -> int | None:
    """The process's user + system CPU time in clock ticks, fields 14 and
    15 of /proc/<pid>/stat; None where that cannot be read."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            fields = f.read().rpartition(b")")[2].split()  # the name may hold spaces
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return None


_pool: list[_Worker] = []
_pool_lock = threading.Lock()  # guards _pool and each worker's `lent`
_sessions = itertools.count()


def _send(conn, job) -> None:
    """Send a job: its pickle, then each array in it out of band as the
    array's own bytes, so a shard is copied once, to make it contiguous."""
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(job, protocol=5, buffer_callback=buffers.append)
    conn.send((len(buffers), stream))
    for buf in buffers:
        conn.send_bytes(buf.raw())


def _receive(conn):
    """-> the job `_send` sent; every part of it is read before it is unpickled."""
    count, stream = conn.recv()
    buffers = [conn.recv_bytes() for _ in range(count)]
    return pickle.loads(stream, buffers=buffers)


def _outcome(what: str, run) -> bytes:
    """A job's reply: ("ok", run()), or ("err", what it raised), or a
    DeltaFedError naming that, after its round prefix, when it does not
    pickle."""
    try:
        return pickle.dumps(("ok", run()))
    except Exception as e:
        try:
            reply = pickle.dumps(("err", e))
            pickle.loads(reply)
        except Exception:
            # the one prefix a worker's client puts on: `Client.receive`'s, on training
            head = re.match(r"round \d+: ", e.args[0] if e.args and isinstance(e.args[0], str) else "")
            prefix = head.group() if head else ""
            e.args = (e.args[0][len(prefix):], *e.args[1:]) if prefix else e.args
            reply = pickle.dumps(("err", DeltaFedError(f"{prefix}{what} raised {e!r}")))
        return reply


def _write_params(area: _Area, params: ParameterSet) -> None:
    """Write `params`' trainable vector, then its frozen one, into `area` as float64."""
    nt = params.layout.trainable_size
    vec = np.frombuffer(area.view(8 * (nt + params.layout.frozen_size)), dtype=np.float64)
    vec[:nt] = params.trainable_flat
    vec[nt:] = params.frozen_flat


def _read_params(area: _Area, layout) -> ParameterSet:
    """-> a copy of the set laid out as `layout` that `_write_params` wrote."""
    nt = layout.trainable_size
    vec = np.frombuffer(area.view(8 * (nt + layout.frozen_size)), dtype=np.float64)
    return ParameterSet.from_vectors(layout, vec[:nt].copy(), vec[nt:].copy())


def _play(sessions: dict[int, Client], sid: int, area: _Area, n: int):
    """Session `sid`'s client's answer to the message in the area's first n
    bytes: (mean loss, the layout of its delta, written over it), or at the
    shutdown its ledger, which ends the session."""
    client = sessions[sid]
    if not client.receive(bytes(area.view(n))):
        del sessions[sid]
        return client.ledger
    delta = client.delta()
    _write_params(area, delta)
    return client.losses[-1], delta.layout


def _score(model, slot: _Area, ids: np.ndarray) -> float:
    """The perplexity on `ids` of the global model in the second slot, laid
    out as `model`."""
    return perplexity_of(model.with_params(_read_params(slot, model.params.layout)), ids)


def _serve(conn, area: _Area, slot: _Area) -> None:
    """A worker's loop: bind and play sessions, each until its shutdown, and
    score, until the pipe closes, with one reply to every job."""
    sessions: dict[int, Client] = {}  # id -> its client
    model = ids = None  # laid out as the model to score: the last job's client's; the held-out ids
    while True:
        try:
            op, *args = _receive(conn)
        except EOFError:
            return
        except Exception as e:  # a job that does not unpickle, say
            conn.send_bytes(pickle.dumps(("lost", f"could not read its job: {e!r}")))
            continue
        if op == "score":  # the parent rewrites the second slot only once it has read this
            if args[0] is not None:
                ids = args[0]
            reply = _outcome("scoring", lambda: _score(model, slot, ids))
        else:
            sid, n = args[:2]
            if op == "bind":
                task, initial, cfg, joined = args[2:]
                sessions[sid] = Client(initial, task, cfg)
                if joined:
                    sessions[sid].join()
            model = sessions[sid].model
            reply = _outcome("training", lambda: _play(sessions, sid, area, n))
        conn.send_bytes(reply)


def _forget_pool() -> None:
    """In any forked child: close what it inherited of the pool. A worker
    whose pipe end stays open in another process never sees the EOF. The
    lock may have been held by a thread the child does not have."""
    global _pool, _pool_lock
    for w in _pool:
        w.close()
    _pool = []
    _pool_lock = threading.Lock()


def _run_as_batch() -> None:
    """Make this process a SCHED_BATCH task, where the call exists and is
    allowed: a woken batch task does not preempt the thread that woke it,
    so the driving thread sends all of a round's jobs before it yields its
    core. Else it stays as it was."""
    with suppress(AttributeError, OSError):
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))


def _grow(n: int) -> None:
    """Fork workers until the pool has n; none while other threads are live,
    no more after a fork fails."""
    if threading.active_count() > 1:
        return
    while len(_pool) < n:
        parent_end, child_end = Pipe()
        worker = _Worker(parent_end)
        try:
            worker.pid = os.fork()
        except OSError:  # out of processes, say: the clients play in process
            worker.close()
            child_end.close()
            return
        if worker.pid == 0:  # the worker; it never returns into the caller's stack
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
                _run_as_batch()
                parent_end.close()
                _serve(child_end, worker.area, worker.slot)
                code = 0
            finally:
                os._exit(code)
        child_end.close()
        _pool.append(worker)


def _discard(pool: list[_Worker]) -> None:
    """Close these workers' pipes and reap them, killing any that linger."""
    for w in pool:
        w.conn.close()  # an idle worker exits at the EOF
    deadline = time.monotonic() + REAP_SECONDS
    for w in pool:
        w.reap(deadline - time.monotonic())
        w.close()


def shutdown() -> None:
    """Discard the whole pool; the next federation forks a fresh one."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, []
    _discard(pool)


class WorkerClient:
    """A client whose `Client` plays in a session of a pool worker."""

    def __init__(self, worker: _Worker, model, task: ClientTask, cfg) -> None:
        self.id = task.client_id
        self.ledger = None  # the worker's client's, sent home at the shutdown
        self.losses: list[float] = []
        self._cfg = cfg
        self._worker = worker
        self._sid = next(_sessions)
        self._bind = (task, model, cfg)  # what the session is made of, until sent
        self._joined = False
        self._raw = None  # the message queued for the worker
        self._handed = None  # the held-out ids to score the second slot on, until its job is sent

    def join(self) -> bytes:
        """-> the join ack, made here; the worker's client books it when bound."""
        self._joined = True
        return join_ack(self.id)

    def receive(self, raw: bytes) -> bool:
        """Queue a server message for the worker's client; -> False at the
        shutdown, which is answered at once."""
        worker = self._worker
        self._raw = raw
        worker.queue.append(self)
        if len(worker.queue) == 1:
            self._start()
        if parse_header(raw[:HEADER_LEN])[0] != KIND_SHUTDOWN:
            return True
        self.ledger = self._answer()
        return False

    def update(self) -> bytes:
        """-> the update the worker's client answered its broadcast with,
        its delta encoded here."""
        loss, delta = self._answer()
        self.losses.append(loss)
        return encode_update(delta, len(self.losses), self.id, self._cfg)

    def _start(self) -> None:
        """Write the queued message into the worker's area and send its job,
        then the job that scores the model handed last, if any, with the
        held-out ids unless the worker holds them."""
        worker, raw = self._worker, self._raw
        self._raw = None
        worker.area.view(len(raw))[:] = raw
        if self._bind is not None:
            worker.send(("bind", self._sid, len(raw), *self._bind, self._joined))
            self._bind = None
        else:
            worker.send(("round", self._sid, len(raw)))
        if self._handed is not None:
            ids, self._handed = self._handed, None
            worker.send(("score", None if ids is worker.ids else ids))
            worker.ids = ids

    def _answer(self):
        """-> the worker's answer to this client's job in flight: (mean loss,
        the delta) or, at the shutdown, the ledger; then starts its next."""
        worker = self._worker
        worker.queue.popleft()
        value = worker.read(f"round {len(self.losses) + 1}: training")
        if isinstance(value, tuple):
            value = value[0], _read_params(worker.area, value[1])
        if worker.queue:
            worker.queue[0]._start()
        return value

    def hand(self, model, ids: np.ndarray) -> None:
        """Write `model` into the worker's second slot, to be scored on `ids`
        by a job sent right behind this client's next one, its next round or
        its shutdown. The model handed before must have been scored, and no
        other client's job may follow this client's on it until `score` has
        read the perplexity, as holds for a lane's last client."""
        _write_params(self._worker.slot, model.params)
        self._handed = ids

    def score(self) -> float:
        """-> the perplexity of the model handed last: the reply to its score
        job, read once the answer to the job it followed has been read."""
        return self._worker.read("scoring")


@contextmanager
def pooled_clients(model, tasks: list[ClientTask], cfg):
    """Yield one client per task, each starting from `model`: a
    `WorkerClient` on a worker borrowed from the pool, or a `Client` in
    process when none is idle.

    A federation of two or more clients first grows the pool to
    `planned_workers` (before the caller starts any thread) and borrows up
    to that many; a lone client borrows one. On exit returns the workers: a
    run that succeeded has read every reply, and one that raised anything
    kills and discards them all at once.
    """
    global _pool
    want = planned_workers(len(tasks)) if len(tasks) > 1 else 1
    if want > 1:
        _grow(want)
    lent = _borrow(want)
    if not lent:
        yield [Client(model, task, cfg) for task in tasks]
        return
    try:
        yield [WorkerClient(lent[i % len(lent)], model, task, cfg) for i, task in enumerate(tasks)]
    except BaseException:
        for w in lent:
            w.reap(0.0)
        raise
    finally:
        dead = [w for w in lent if w.failure is not None]
        with _pool_lock:
            for w in lent:
                w.lent = False
            _pool = [w for w in _pool if w not in dead]
        _discard(dead)


def kill_lent() -> None:
    """SIGKILL every worker lent to a run, from any thread: each such run
    fails at its next read, naming the kill, and discards its workers."""
    with _pool_lock:
        for w in _pool:
            if w.lent and w.failure is None:
                with suppress(ProcessLookupError):
                    os.kill(w.pid, signal.SIGKILL)


def _borrow(n: int) -> list[_Worker]:
    """Lend up to n idle workers, in pool order."""
    with _pool_lock:
        lent = [w for w in _pool if not w.lent][:n]
        for w in lent:
            w.lent = True
    return lent


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
