"""Training workers: clients train in forked processes, one core each.

A client's trainer sends the installed values to a persistent worker process
on `submit` and reads back the trained values and the mean loss on
`collect`; the worker runs the client's `LocalTrainer`. A federation also
scores its rounds there: round t's global model is handed to the trainer of
the client collected last (`hand`), that client's round t+1 job carries
the score, and the worker scores the model with `model.perplexity_of`
right after it replies to the training, while the driving thread folds the
round; `score` reads the perplexity, a second reply. The final model goes
alone, in a score job. So scoring overlaps the server's fold, not any
training, and no training job waits behind it. All else stays on the one
thread that drives the federation.

The pool is forked once per process, by the first federation of two or more
clients that can use it: W = min(K, C) workers for K clients on C usable
cores, only while the caller runs no other thread, and none with W < 2,
without `os.fork` or after a failed fork. Each idle worker is lent to one
run at a time: a federation borrows up to W, and client i trains on the
(i mod n)-th of the n it got; a lone client borrows one; a run that borrows
none trains in process. A worker runs one job at a time; one submitted
while another is in flight waits in the worker's queue until that one is
collected. It keeps a session per client (task, optimizer state, RNG, the
held-out ids it scores on) until its run ends, which first reads every
reply still owed. A worker that dies fails its run and is discarded alone;
the next federation forks anew.

Values travel through a float64 area of shared memory both processes map:
the trainable vector in and the trained one out, plus the frozen vector when
a full broadcast replaced it; and behind them, in a second slot, both
vectors of a global model to score, written when the model is handed, off
the round clock, and rewritten only once its score is read. Jobs are pickled with their arrays out of band, so a shard is copied
once, to make it contiguous. Both paths run the same arithmetic on the same
float64 values, so they agree bit for bit.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import mmap
import os
import pickle
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
from .protocol import ClientTask, LocalTrainer

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
    """A worker's shared float64 scratch memory: one file both processes
    inherit and map, grown by the parent, remapped by the worker to the size
    each job names."""

    def __init__(self) -> None:
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("deltafed-worker")
        else:
            self.fd, path = tempfile.mkstemp()
            os.unlink(path)
        self.size = 0
        self._map = None

    def vector(self, size: int) -> np.ndarray:
        """The first `size` bytes as float64, mapped anew if the size changed."""
        if size != self.size:
            self._map = mmap.mmap(self.fd, size)
            self.size = size
        return np.frombuffer(self._map, dtype=np.float64)

    def fit(self, n: int) -> np.ndarray:
        """Parent side: grow to hold n values; -> the whole area as float64."""
        size = self.size
        if 8 * n > size:
            size = max(8 * n, 2 * size)
            os.ftruncate(self.fd, size)
        return self.vector(size)

    def close(self) -> None:
        self._map = None
        os.close(self.fd)


class _Worker:
    """The parent's handle on one worker process."""

    def __init__(self, pid: int, conn, area: _Area) -> None:
        self.pid = pid
        self.conn = conn
        self.area = area
        self.queue: collections.deque = collections.deque()  # trainers awaiting replies; the first's in flight
        self.scores = 0  # score replies sent for, not yet read
        self.failure: str | None = None  # how it ended, once reaped
        self.lent = False  # to a run, under _pool_lock

    def settle(self) -> None:
        """Read every reply still owed, the job in flight's and any score's,
        so the pipe holds nothing stale; kill a worker that takes too long."""
        owed = bool(self.queue) + self.scores
        while owed and self.failure is None:
            try:
                if self.conn.poll(REAP_SECONDS):
                    self.conn.recv()
                else:
                    self.reap(0.0)
            except (EOFError, OSError):
                self.reap(REAP_SECONDS)
            owed -= 1
        self.queue.clear()
        self.scores = 0

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
    DeltaFedError naming that when it does not pickle."""
    try:
        return pickle.dumps(("ok", run()))
    except Exception as e:
        try:
            reply = pickle.dumps(("err", e))
            pickle.loads(reply)
        except Exception:
            reply = pickle.dumps(("err", DeltaFedError(f"{what} raised {e!r}")))
        return reply


def _from_slot(model, vec: np.ndarray, slot: int, frozen: bool = True):
    """`model` with copies of the values in the area's `slot` (0: the job's,
    1: the global model to score); keeps its frozen vector unless `frozen`."""
    layout = model.params.layout
    nt, nf = layout.trainable_size, layout.frozen_size
    lo = slot * (nt + nf)
    kept = vec[lo + nt : lo + nt + nf].copy() if frozen else model.params.frozen_flat
    return model.with_params(ParameterSet.from_vectors(layout, vec[lo : lo + nt].copy(), kept))


def _train(trainer: LocalTrainer, model, vec: np.ndarray) -> float:
    """One round from `model`; the trained values go to the area's first slot."""
    trainer.submit(model)
    model, loss = trainer.collect()
    vec[: model.params.layout.trainable_size] = model.params.trainable_flat
    return loss


def _score(model, vec: np.ndarray, ids: np.ndarray) -> float:
    """The perplexity on `ids` of the global model in the area's second
    slot, laid out as `model`."""
    return perplexity_of(_from_slot(model, vec, 1), ids)


def _serve(conn, area: _Area) -> None:
    """A worker's loop: bind, train, score and unbind sessions until the
    pipe closes. A job that scores replies twice: first for its training,
    then with the perplexity."""
    sessions: dict[int, list] = {}  # id -> [trainer, its latest round-start model, held-out ids]
    while True:
        try:
            op, sid, *args = _receive(conn)
        except EOFError:
            return
        except Exception as e:  # a job that does not unpickle, say
            error = DeltaFedError(f"training worker could not read its job: {e!r}")
            conn.send_bytes(pickle.dumps(("err", error)))
            continue
        if op == "unbind":
            sessions.pop(sid, None)
            continue
        vec = area.vector(args[0])
        score = False
        if op == "bind":
            task, model = args[1:]
            session = sessions[sid] = [LocalTrainer(task), model, None]
        else:
            session = sessions[sid]
            send_frozen, score, ids = args[1:]
            if ids is not None:
                session[2] = ids
            if op == "train":
                session[1] = _from_slot(session[1], vec, 0, send_frozen)
        if op != "score":
            conn.send_bytes(_outcome("training", lambda: _train(session[0], session[1], vec)))
        if score:  # the parent rewrites the second slot only once it has read this
            conn.send_bytes(_outcome("scoring", lambda: _score(session[1], vec, session[2])))


def _forget_pool() -> None:
    """In any forked child: close what it inherited of the pool. A worker
    whose pipe end stays open in another process never sees the EOF. The
    lock may have been held by a thread the child does not have."""
    global _pool, _pool_lock
    for w in _pool:
        w.conn.close()
        w.area.close()
    _pool = []
    _pool_lock = threading.Lock()


def _grow(n: int) -> None:
    """Fork workers until the pool has n; none while other threads are live,
    no more after a fork fails."""
    if threading.active_count() > 1:
        return
    while len(_pool) < n:
        parent_end, child_end = Pipe()
        area = _Area()
        try:
            pid = os.fork()
        except OSError:  # out of processes, say: the clients train in process
            parent_end.close()
            child_end.close()
            area.close()
            return
        if pid == 0:  # the worker; it never returns into the caller's stack
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
                parent_end.close()
                _serve(child_end, area)
                code = 0
            finally:
                os._exit(code)
        child_end.close()
        _pool.append(_Worker(pid, parent_end, area))


def _discard(pool: list[_Worker]) -> None:
    """Close these workers' pipes and reap them, killing any that linger."""
    for w in pool:
        w.conn.close()  # an idle worker exits at the EOF
    deadline = time.monotonic() + REAP_SECONDS
    for w in pool:
        w.reap(deadline - time.monotonic())
        w.area.close()


def shutdown() -> None:
    """Discard the whole pool; the next federation forks a fresh one."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, []
    _discard(pool)


class WorkerTrainer:
    """A client's trainer whose rounds run in a pool worker."""

    def __init__(self, worker: _Worker, task: ClientTask) -> None:
        self.client_id = task.client_id
        self._worker = worker
        self._task = task
        self._sid = next(_sessions)
        self._bound = False
        self._frozen = None  # the frozen vector the worker holds
        self._model = None  # the submitted round-start model
        self._handed = None  # the held-out ids to score the second slot on, until a job takes them
        self._ids = None  # the held-out ids the worker holds

    def submit(self, model) -> None:
        """Queue a round of training from `model`; it starts once the jobs before it are collected."""
        self._model = model
        self._worker.queue.append(self)
        if len(self._worker.queue) == 1:
            self._start()

    def hand(self, model, ids: np.ndarray) -> None:
        """Write `model` into the second slot of the worker's area, to be
        scored on `ids` right after the worker replies to this trainer's
        next training job, or alone in `score` if none takes it. The worker
        must owe no reply: `score` reads each perplexity before the next
        model is handed. This trainer's replies must be the last its worker
        sends, as a federation's last client's are."""
        params = model.params
        nt = params.layout.trainable_size
        n = nt + params.layout.frozen_size
        vec = self._worker.area.fit(2 * n)
        vec[n : n + nt] = params.trainable_flat
        vec[n + nt : 2 * n] = params.frozen_flat
        self._handed = ids

    def _score_fields(self) -> tuple:
        """-> a job's (score, ids) fields: whether it scores the handed
        model, and the held-out ids unless the worker holds them."""
        if self._handed is None:
            return False, None
        ids, self._handed = self._handed, None
        sent, self._ids = (None if ids is self._ids else ids), ids
        self._worker.scores += 1
        return True, sent

    def _start(self) -> None:
        """Write the job's values into the worker's area and send it."""
        params = self._model.params
        nt, nf = params.layout.trainable_size, params.layout.frozen_size
        worker = self._worker
        vec = worker.area.fit(nt + nf)
        if self._bound:
            vec[:nt] = params.trainable_flat
            # the worker keeps the frozen vector it last saw
            send_frozen = params.frozen_flat is not self._frozen
            if send_frozen:
                vec[nt : nt + nf] = params.frozen_flat
            job = ("train", self._sid, worker.area.size, send_frozen, *self._score_fields())
        else:
            job = ("bind", self._sid, worker.area.size, self._task, self._model)
            self._bound = True
        self._frozen = params.frozen_flat
        # a worker that died fails this job's own `collect`, not its caller
        with suppress(OSError):
            _send(worker.conn, job)

    def collect(self):
        """-> (trained model, mean loss), as `LocalTrainer.collect`. The
        trained model shares the frozen vector of the submitted one."""
        worker = self._worker
        try:
            status, loss = worker.conn.recv()
        except (EOFError, OSError):
            raise DeltaFedError(f"training worker {worker.reap(REAP_SECONDS)}") from None
        worker.queue.popleft()
        if status == "err":
            worker.queue.clear()  # the run ends here
            raise loss
        model, self._model = self._model, None
        params = model.params
        nt = params.layout.trainable_size
        trained = params.with_trainable(worker.area.fit(nt)[:nt].copy())
        if worker.queue:
            worker.queue[0]._start()
        return model.with_params(trained), loss

    def score(self) -> float:
        """-> the perplexity of the model handed last: read from behind the
        training reply that carried it, or scored alone now. The session
        must be bound and its worker owe no training reply."""
        worker = self._worker
        if self._handed is not None:  # no training job took it
            with suppress(OSError):  # a dead worker fails the read below
                _send(worker.conn, ("score", self._sid, worker.area.size, False, *self._score_fields()))
        try:
            status, ppl = worker.conn.recv()
        except (EOFError, OSError):
            raise DeltaFedError(f"scoring worker {worker.reap(REAP_SECONDS)}") from None
        worker.scores -= 1
        if status == "err":
            raise ppl
        return ppl

    def unbind(self) -> None:
        if self._bound and self._worker.failure is None:
            _send(self._worker.conn, ("unbind", self._sid))


@contextmanager
def client_trainers(tasks: list[ClientTask]):
    """Yield one trainer per task: on workers borrowed from the pool, or in
    process when none is idle.

    A federation of two or more clients first grows the pool to
    `planned_workers` (before the caller starts any thread) and borrows up
    to that many; a lone client borrows one. On exit unbinds the sessions
    and returns the workers, discarding any that died.
    """
    want = planned_workers(len(tasks)) if len(tasks) > 1 else 1
    if want > 1:
        _grow(want)
    lent = _borrow(want)
    if not lent:
        yield [LocalTrainer(task) for task in tasks]
        return
    trainers = [WorkerTrainer(lent[i % len(lent)], task) for i, task in enumerate(tasks)]
    try:
        yield trainers
    finally:
        _give_back(lent, trainers)


def _borrow(n: int) -> list[_Worker]:
    """Lend up to n idle workers, in pool order."""
    with _pool_lock:
        lent = [w for w in _pool if not w.lent][:n]
        for w in lent:
            w.lent = True
    return lent


def _give_back(lent: list[_Worker], trainers: list[WorkerTrainer]) -> None:
    """Unbind the sessions and return the workers; discard the dead ones."""
    global _pool
    for w in lent:
        w.settle()
    for trainer in trainers:
        try:
            trainer.unbind()
        except OSError:  # its worker died between jobs
            trainer._worker.reap(REAP_SECONDS)
    dead = [w for w in lent if w.failure is not None]
    with _pool_lock:
        for w in lent:
            w.lent = False
        _pool = [w for w in _pool if w not in dead]
    _discard(dead)


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
