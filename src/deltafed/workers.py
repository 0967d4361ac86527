"""Training workers: clients train in forked processes, one core each.

K client threads that train in one process take turns on the GIL. Here each
client's `train` hands the installed model values to a persistent worker
process, which runs the client's `LocalTrainer` there and hands back the
trained trainable values and the mean loss. Everything else a client does
(the protocol loop, the wire codec, the transport, the ledger) stays in the
calling process, so every byte still crosses a channel that process owns.

The pool is forked once per process, by the first federation of two or more
clients that can use it: W = min(K, C) workers for K clients on C usable
cores. It grows only before the caller starts any thread, since forking
beside live threads is unsafe; with W < 2, without `os.fork` or when a fork
fails it stays as it is. The pool lends its idle workers to runs, each lent
to one run at a time: a federation borrows up to W, and client i trains on
the (i mod n)-th of the n it got, one job at a time; a lone client borrows
one and never grows the pool. A run that borrows none trains in process, so
a central run on its own trains in process, while central and local side by
side in a compare each train on a worker of their own.

A worker keeps one session per client it serves: the task (shard, optimizer
config), the optimizer state and the RNG, bound on the client's first `train`
and dropped when its run ends. A worker that dies fails the run that holds
it and is then discarded alone; the next federation forks its replacement.

A job is a small pickled message over a pipe; the values travel through a
float64 area of shared memory that both processes map: one slice copy each
way, the trainable vector in and the trained one out, plus the frozen vector
when a full broadcast has replaced it. The trained model shares the
round-start set's frozen vector. Both paths run the same arithmetic on the
same float64 values, so they agree bit for bit.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import mmap
import os
import pickle
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from multiprocessing import Pipe

import numpy as np

from .errors import DeltaFedError
from .params import ParameterSet
from .protocol import ClientTask, LocalTrainer

REAP_SECONDS = 1.0  # how long to wait for a worker to end before killing it
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


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
        self.lock = threading.Lock()  # one job at a time; guards the area
        self.failure: str | None = None  # how it ended, once reaped
        self.lent = False  # to a run, under _pool_lock

    def call(self, job):
        """Send one job, wait for its reply; re-raise a training error."""
        try:
            self.conn.send(job)
            status, reply = self.conn.recv()
        except (EOFError, OSError):
            raise DeltaFedError(f"training worker {self.reap(REAP_SECONDS)}") from None
        if status == "err":
            raise reply
        return reply

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


def _serve(conn, area: _Area) -> None:
    """A worker's loop: bind, train and unbind sessions until the pipe closes."""
    sessions: dict[int, tuple] = {}  # id -> (trainer, its latest round-start model)
    while True:
        try:
            op, sid, *args = conn.recv()
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
        if op == "bind":
            task, model = args[1:]
            trainer = LocalTrainer(task)
        else:
            trainer, model = sessions[sid]
            layout, frozen = model.params.layout, model.params.frozen_flat
            nt = layout.trainable_size
            if args[1]:  # the frozen values changed too
                frozen = vec[nt : nt + layout.frozen_size].copy()
            model = model.with_params(ParameterSet.from_vectors(layout, vec[:nt].copy(), frozen))
        sessions[sid] = (trainer, model)
        threading.current_thread().name = f"client-{trainer.client_id}"
        try:
            model, loss = trainer.train(model)
            vec[: model.params.layout.trainable_size] = model.params.trainable_flat
            reply = pickle.dumps(("ok", loss))
        except Exception as e:
            try:
                reply = pickle.dumps(("err", e))
                pickle.loads(reply)
            except Exception:
                reply = pickle.dumps(("err", DeltaFedError(f"training raised {e!r}")))
        conn.send_bytes(reply)


def _keep_heap() -> None:
    """Keep a worker's heap from shrinking and regrowing at every step.

    A worker allocates and frees the same large temporaries at each optimizer
    step. With glibc's default dynamic thresholds a forked worker hands its
    heap top back to the system each time, and every regrown page faults:
    34K faults and a third more time per round of 32 steps on a 256-wide
    model. Fixed thresholds keep the freed memory for the next step. Where
    there is no `mallopt` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


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
                _keep_heap()
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

    def train(self, model):
        """-> (trained model, mean loss), as `LocalTrainer.train`. The
        trained model shares the frozen vector of `model`."""
        params = model.params
        nt, nf = params.layout.trainable_size, params.layout.frozen_size
        worker = self._worker
        with worker.lock:
            vec = worker.area.fit(nt + nf)
            if self._bound:
                vec[:nt] = params.trainable_flat
                # the worker keeps the frozen vector it last saw
                send_frozen = params.frozen_flat is not self._frozen
                if send_frozen:
                    vec[nt : nt + nf] = params.frozen_flat
                job = ("train", self._sid, worker.area.size, send_frozen)
            else:
                job = ("bind", self._sid, worker.area.size, self._task, model)
                self._bound = True
            self._frozen = params.frozen_flat
            loss = worker.call(job)
            trained = params.with_trainable(vec[:nt].copy())
        return model.with_params(trained), loss

    def unbind(self) -> None:
        if self._bound and self._worker.failure is None:
            with self._worker.lock:
                self._worker.conn.send(("unbind", self._sid))


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
