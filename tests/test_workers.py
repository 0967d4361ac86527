"""The training-worker pool: same results as in-process training, fail-fast
across the process boundary, no processes left behind."""

import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from multiprocessing import Pipe
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.workers as workers
import test_harness
from deltafed.config import ExperimentConfig, override
from deltafed.errors import DeltaFedError
from deltafed.harness import compare_modes, run_experiment
from oracles import replace_values

corpus_path = test_harness.corpus_path  # the module-scoped corpus fixture
small_cfg = test_harness.small_cfg
params_bytes = test_harness.params_bytes

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")


def pool_pids():
    return [w.pid for w in workers._pool]


def pool_of_two(monkeypatch):
    """Plan up to two workers, whatever the core count."""
    monkeypatch.setattr(workers, "planned_workers", lambda clients: min(clients, 2))


def in_process(monkeypatch):
    monkeypatch.setattr(workers, "planned_workers", lambda clients: 0)


@pytest.fixture
def fresh_pool():
    """No pool before the test, so its first federation forks one; none after."""
    workers.shutdown()
    assert threading.active_count() == 1, threading.enumerate()
    yield
    workers.shutdown()


def outcome(res):
    recs = [(r.round, r.train_loss, r.perplexity, r.uplink_bytes, r.downlink_bytes) for r in res.records]
    return params_bytes(res.model), res.ledger.byte_table(), recs, res.extras["bleu"]


def assert_no_zombie():
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        pass  # no child at all


class TestPoolSize:
    def test_bounded_by_cores(self, monkeypatch):
        assert workers.pool_size(64, 2) == 2
        assert workers.pool_size(3, 8) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", None)  # planning never forks
        assert workers.planned_workers(64) == 2
        assert workers.planned_workers(1) == 0  # one client trains in process

    def test_one_core_trains_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert workers.planned_workers(64) == 0


class TestFallback:
    def test_failed_fork_trains_in_process(self, corpus_path, monkeypatch, fresh_pool):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        in_process(monkeypatch)
        ref = run_experiment(small_cfg(corpus_path), report=False)
        pool_of_two(monkeypatch)
        monkeypatch.setattr(os, "fork", no_fork)
        res = run_experiment(small_cfg(corpus_path), report=False)
        assert pool_pids() == []
        assert outcome(res) == outcome(ref)


class TestPoolMatchesInProcess:
    def run_both(self, cfg, monkeypatch):
        train = protocol.local_train_round
        here = []

        def counted(*args, **kw):
            here.append(1)  # in a worker this appends to the worker's copy
            return train(*args, **kw)

        monkeypatch.setattr(protocol, "local_train_round", counted)
        in_process(monkeypatch)
        ref = run_experiment(cfg, report=False)
        assert here
        here.clear()
        pool_of_two(monkeypatch)
        pooled = run_experiment(cfg, report=False)
        assert not here and len(pool_pids()) == 2  # trained in the workers
        return ref, pooled

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_every_variant_bitwise(self, corpus_path, transport, monkeypatch):
        for kw in test_harness.TestEquivalence.variants(None):
            cfg = small_cfg(corpus_path, transport=transport, **kw)
            ref, pooled = self.run_both(cfg, monkeypatch)
            assert outcome(pooled) == outcome(ref), kw

    def test_clients_sharing_a_worker(self, corpus_path, monkeypatch):
        cfg = small_cfg(corpus_path, clients=5, lora_dropout=0.1)
        ref, pooled = self.run_both(cfg, monkeypatch)
        assert outcome(pooled) == outcome(ref)

    def test_shared_worker_takes_its_clients_in_turn(self, corpus_path, monkeypatch, fresh_pool):
        """Client i trains on worker i mod 2, one job at a time: a client's
        job starts once the worker's previous one is collected."""
        start = workers.WorkerTrainer._start
        started = []

        def recorded(self):
            started.append((self.client_id, self._worker.pid, self._worker.queue[0] is self))
            return start(self)

        monkeypatch.setattr(workers.WorkerTrainer, "_start", recorded)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, clients=5, rounds=2)
        run_experiment(cfg, report=False)
        pids = pool_pids()
        assert started == [(i, pids[i % 2], True) for i in range(5)] * cfg.rounds


class TestPoolFailFast:
    """Faults injected in a worker surface as the in-process ones do.

    The fault is patched in before the pool forks, so it lives in the
    workers, and picks client 1 by id. It fires once: a marker file records
    the injection time (CLOCK_MONOTONIC is system-wide) and keeps it from
    firing again.
    """

    def inject(self, monkeypatch, tmp_path, fault):
        submit = protocol.LocalTrainer.submit
        marker = tmp_path / "injected"
        calls = {}

        def flaky(self, model):
            calls[self.client_id] = calls.get(self.client_id, 0) + 1
            if self.client_id == 1 and calls[1] == 2 and not marker.exists():
                marker.write_text(f"{time.monotonic()!r} {os.getpid()}")
                fault()
            return submit(self, model)

        monkeypatch.setattr(protocol.LocalTrainer, "submit", flaky)
        pool_of_two(monkeypatch)
        return marker

    def fail_then_recover(self, corpus_path, marker, error, mode="federated"):
        cfg = small_cfg(corpus_path, mode=mode)
        with pytest.raises(error) as exc:
            run_experiment(cfg, report=False)
        elapsed = time.monotonic()
        injected_at, pid = marker.read_text().split()
        assert int(pid) != os.getpid()  # the fault fired in a worker
        assert elapsed - float(injected_at) < 2.0
        res = run_experiment(cfg, report=False)  # the next run succeeds
        assert len(res.records) == cfg.rounds
        return str(exc.value)

    def test_training_error_reraised(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        def fault():
            raise RuntimeError("injected training fault")

        marker = self.inject(monkeypatch, tmp_path, fault)
        message = self.fail_then_recover(corpus_path, marker, RuntimeError)
        assert message == "client 1: round 2: injected training fault"

    def test_unpicklable_error_becomes_deltafed_error(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        class Local(Exception):  # a local class does not pickle
            pass

        def fault():
            raise Local("odd")

        marker = self.inject(monkeypatch, tmp_path, fault)
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError)
        assert message == "client 1: round 2: training raised Local('odd')"

    def test_worker_exit_named(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        marker = self.inject(monkeypatch, tmp_path, lambda: os._exit(3))
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError)
        assert message == "client 1: round 2: training worker exited with code 3"

    def test_a_failed_round_leaves_no_stale_score(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        """Client 1 fails in round 2 while client 2's job, which carries
        round 1's score, is in flight on worker 0; the next run on that
        worker reads its own replies, not the leftover score."""
        def fault():
            raise RuntimeError("injected training fault")

        marker = self.inject(monkeypatch, tmp_path, fault)
        cfg = small_cfg(corpus_path)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, report=False)
        assert all(w.scores == 0 and not w.queue for w in workers._pool)
        pooled = run_experiment(cfg, report=False)
        assert marker.exists() and len(pool_pids()) == 2
        in_process(monkeypatch)
        assert outcome(pooled) == outcome(run_experiment(cfg, report=False))

    def test_local_mode_names_its_client(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        """Lone clients train one after another, each on a worker it
        borrows from the pool; the failing one is named."""
        marker = self.inject(monkeypatch, tmp_path, lambda: os._exit(3))
        workers._grow(2)  # a lone client borrows, but never grows the pool
        assert len(pool_pids()) == 2
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError, mode="local")
        assert message == "client 1: round 2: training worker exited with code 3"
        assert_no_zombie()

    def test_unreadable_job_named(self, corpus_path, monkeypatch, fresh_pool):
        task_of = harness._client_task

        def unreadable_for_client_1(cfg, client_id, shard, steps):
            task = task_of(cfg, client_id, shard, steps)
            return dataclasses.replace(task, shard=_Unreadable()) if client_id == 1 else task

        monkeypatch.setattr(harness, "_client_task", unreadable_for_client_1)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path)
        with pytest.raises(DeltaFedError) as exc:
            run_experiment(cfg, report=False)
        assert str(exc.value) == (
            "client 1: round 1: training worker could not read its job: ValueError('shard refused')"
        )
        pids = pool_pids()
        assert len(pids) == 2  # the worker lives on and serves the next run
        monkeypatch.setattr(harness, "_client_task", task_of)
        res = run_experiment(cfg, report=False)
        assert len(res.records) == cfg.rounds
        assert pool_pids() == pids


def _refuse_to_unpickle():
    raise ValueError("shard refused")


class _Unreadable:
    """A shard that pickles here and raises where it is unpickled."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


class TestCompareLanes:
    """compare_modes runs central on a helper thread beside local, each on a
    worker of its own, with the same results as in process."""

    def compare(self, cfg, out_dir, monkeypatch):
        """-> (compare.csv bytes, {mode: result}) of one compare_modes call."""
        results = {}

        def kept(mode_cfg, *args, **kw):
            results[mode_cfg.mode] = run_experiment(mode_cfg, *args, **kw)
            return results[mode_cfg.mode]

        monkeypatch.setattr(harness, "run_experiment", kept)
        csv_path, _ = compare_modes(cfg, out_dir)
        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        return csv_path.read_bytes(), results

    def timeless(self, results):
        out = {}
        for mode, res in results.items():
            models = [res.model] if res.model is not None else res.client_models
            recs = [(r.round, r.train_loss, r.perplexity, r.uplink_bytes, r.downlink_bytes) for r in res.records]
            out[mode] = ([params_bytes(m) for m in models], recs, res.extras)
        return out

    def test_pool_matches_in_process(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        train = protocol.local_train_round
        here = []

        def counted(*args, **kw):
            here.append(1)  # in a worker this appends to the worker's copy
            return train(*args, **kw)

        monkeypatch.setattr(protocol, "local_train_round", counted)
        cfg = small_cfg(corpus_path)
        in_process(monkeypatch)
        ref_csv, ref = self.compare(cfg, tmp_path / "ref", monkeypatch)
        assert here and pool_pids() == []
        here.clear()
        pool_of_two(monkeypatch)
        csv, pooled = self.compare(cfg, tmp_path / "pooled", monkeypatch)
        assert not here and len(pool_pids()) == 2  # every mode trained in the workers
        assert csv == ref_csv
        assert self.timeless(pooled) == self.timeless(ref)
        assert pooled["local"].extras["clients"] == ref["local"].extras["clients"]

    def test_central_and_local_train_on_different_workers(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        submit = workers.WorkerTrainer.submit
        seen = []

        def recorded(self, model):
            seen.append((threading.current_thread().name, self._worker.pid))
            return submit(self, model)

        monkeypatch.setattr(workers.WorkerTrainer, "submit", recorded)
        pool_of_two(monkeypatch)
        compare_modes(small_cfg(corpus_path), tmp_path)
        central = {pid for who, pid in seen if who == "central"}
        local = {pid for who, pid in seen if who == threading.main_thread().name}
        assert len(central) == 1 and local - central
        assert central | local <= set(pool_pids())

    def inject(self, monkeypatch, tmp_path, corpus_path, fault, in_local):
        """Fire `fault` once in a worker: in central's second round, or in
        local client 1's second round (in_local)."""
        cfg = small_cfg(corpus_path)
        setup = harness._setup(cfg)
        central_steps = sum(setup.steps.values())
        local_started = tmp_path / "local-started"
        marker = tmp_path / "injected"
        submit = protocol.LocalTrainer.submit
        calls = {}

        def started(mode_cfg, *args, **kw):
            if mode_cfg.mode == "local":
                local_started.touch()
            return run_experiment(mode_cfg, *args, **kw)

        def flaky(self, model):
            if in_local:
                key = self.client_id if local_started.exists() else None
                fires = key == 1
            else:
                key = "central" if self.task.steps_per_round == central_steps else None
                fires = key is not None
            calls[key] = calls.get(key, 0) + 1
            if fires and calls[key] == 2 and not marker.exists():
                marker.write_text(f"{time.monotonic()!r} {os.getpid()}")
                fault()
            return submit(self, model)

        monkeypatch.setattr(harness, "run_experiment", started)
        monkeypatch.setattr(protocol.LocalTrainer, "submit", flaky)
        pool_of_two(monkeypatch)
        return cfg, marker

    def fail_then_recover(self, cfg, marker, tmp_path, error):
        with pytest.raises(error) as exc:
            compare_modes(cfg, tmp_path / "failed")
        elapsed = time.monotonic()
        injected_at, pid = marker.read_text().split()
        assert int(pid) != os.getpid()  # the fault fired in a worker
        assert elapsed - float(injected_at) < 2.0
        assert threading.active_count() == 1  # both lanes ended
        csv_path, _ = compare_modes(cfg, tmp_path / "recovered")  # the next run succeeds
        assert len(csv_path.read_text().splitlines()) == 1 + 3 * cfg.rounds
        return str(exc.value)

    def test_central_training_error_named(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        def fault():
            raise RuntimeError("injected training fault")

        cfg, marker = self.inject(monkeypatch, tmp_path, corpus_path, fault, in_local=False)
        message = self.fail_then_recover(cfg, marker, tmp_path, RuntimeError)
        assert message == "central: client 0: round 2: injected training fault"

    def test_local_worker_exit_named(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        cfg, marker = self.inject(
            monkeypatch, tmp_path, corpus_path, lambda: os._exit(3), in_local=True
        )
        message = self.fail_then_recover(cfg, marker, tmp_path, DeltaFedError)
        assert message == "local: client 1: round 2: training worker exited with code 3"
        assert_no_zombie()


class TestScoringOnTheLastWorker:
    """A pooled federation scores each round's global model on the worker of
    its last client, with the same records as one scored in process."""

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("aggregation", ["gradualdiff", "fedavg"])
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    @pytest.mark.parametrize("clients", [2, 3])
    def test_pool_scores_as_in_process(
        self, corpus_path, clients, transport, aggregation, rounds, monkeypatch
    ):
        score = harness.perplexity_of
        here = []

        def counted(*args, **kw):
            here.append(1)  # a worker scores through workers.perplexity_of
            return score(*args, **kw)

        monkeypatch.setattr(harness, "perplexity_of", counted)
        cfg = small_cfg(
            corpus_path, clients=clients, transport=transport, aggregation=aggregation, rounds=rounds
        )
        in_process(monkeypatch)
        ref = run_experiment(cfg, report=False)
        assert len(here) == rounds
        here.clear()
        pool_of_two(monkeypatch)
        pooled = run_experiment(cfg, report=False)
        assert not here and len(pool_pids()) == 2
        assert [r.perplexity for r in pooled.records] == [r.perplexity for r in ref.records]
        assert outcome(pooled) == outcome(ref)

    def test_scores_behind_the_last_clients_training(self, corpus_path, monkeypatch, fresh_pool):
        """Round t's model rides on the last client's round t+1 job; the
        final model is scored by a job of its own."""
        send = workers._send
        jobs = []

        def recorded(conn, job):
            if job[0] in ("train", "score"):
                jobs.append((job[0], job[4]))
            return send(conn, job)

        monkeypatch.setattr(workers, "_send", recorded)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, clients=3, rounds=3)
        run_experiment(cfg, report=False)
        # clients 0 and 1 train plain; client 2 carries the score from round 2
        assert jobs == [("train", False), ("train", False), ("train", True)] * 2 + [("score", True)]
        assert all(w.scores == 0 for w in workers._pool)


class TestScoringFailFast:
    """A scoring fault fails the run at once as the server's, naming the
    round it scored, and no later round is scored.

    In a pool the fault is patched into `workers.perplexity_of` before the
    pool forks, so it fires in the scoring worker. Each call appends a line
    to a file; the second one fires, once: a marker file records the time
    (CLOCK_MONOTONIC is system-wide) and keeps it from firing again.
    """

    def inject(self, monkeypatch, tmp_path, fault):
        score = workers.perplexity_of
        marker, calls = tmp_path / "injected", tmp_path / "scored"

        def flaky(*args, **kw):
            with calls.open("a") as f:
                f.write("scored\n")
            if len(calls.read_text().splitlines()) == 2 and not marker.exists():
                marker.write_text(f"{time.monotonic()!r} {os.getpid()}")
                fault()
            return score(*args, **kw)

        monkeypatch.setattr(workers, "perplexity_of", flaky)
        pool_of_two(monkeypatch)
        return marker, calls

    def fail_then_recover(self, corpus_path, transport, marker, calls, error):
        cfg = small_cfg(corpus_path, transport=transport, rounds=5)
        with pytest.raises(error) as exc:
            run_experiment(cfg, report=False)
        elapsed = time.monotonic()
        injected_at, pid = marker.read_text().split()
        assert int(pid) != os.getpid()  # the fault fired in a worker
        assert elapsed - float(injected_at) < 2.0
        assert len(calls.read_text().splitlines()) == 2  # no round was scored after it
        res = run_experiment(cfg, report=False)  # the next run succeeds
        assert len(res.records) == cfg.rounds
        assert len(pool_pids()) == 2
        return str(exc.value)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_scoring_error_fails_at_its_round(
        self, corpus_path, tmp_path, transport, monkeypatch, fresh_pool
    ):
        def fault():
            raise RuntimeError("injected scoring fault")

        marker, calls = self.inject(monkeypatch, tmp_path, fault)
        run_experiment(small_cfg(corpus_path, rounds=1), report=False)  # forks the pool
        calls.unlink()
        pids = pool_pids()
        message = self.fail_then_recover(corpus_path, transport, marker, calls, RuntimeError)
        assert message == "server: round 2: injected scoring fault"
        assert pool_pids() == pids  # the worker lives on and served the next run

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_worker_exit_while_scoring_named(
        self, corpus_path, tmp_path, transport, monkeypatch, fresh_pool
    ):
        marker, calls = self.inject(monkeypatch, tmp_path, lambda: os._exit(3))
        message = self.fail_then_recover(corpus_path, transport, marker, calls, DeltaFedError)
        assert message == "server: round 2: scoring worker exited with code 3"
        assert_no_zombie()

    def test_in_process_scoring_error_fails_at_its_round(self, corpus_path, monkeypatch):
        """Without a pool each round is scored here as it ends."""
        score = harness.perplexity_of
        calls, injected_at = [], []

        def flaky(*args, **kw):
            calls.append(1)
            if len(calls) == 2:
                injected_at.append(time.monotonic())
                raise RuntimeError("injected scoring fault")
            return score(*args, **kw)

        monkeypatch.setattr(harness, "perplexity_of", flaky)
        in_process(monkeypatch)
        cfg = small_cfg(corpus_path, rounds=5)
        with pytest.raises(RuntimeError) as exc:
            run_experiment(cfg, report=False)
        assert time.monotonic() - injected_at[0] < 2.0
        assert str(exc.value) == "server: round 2: injected scoring fault"
        assert len(calls) == 2  # no round was scored after it


# A federated run of 200 rounds whose scoring worker prints a line once it
# has scored round 1; argv: source directory, corpus path, transport.
_INTERRUPTED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import deltafed.harness as harness
import deltafed.workers as workers
from deltafed.config import ExperimentConfig

workers.planned_workers = lambda clients: min(clients, 2)
score = workers.perplexity_of

def announced(*args, **kw):
    workers.perplexity_of = score
    ppl = score(*args, **kw)
    print("round 1 scored", flush=True)
    return ppl

workers.perplexity_of = announced  # the pool forks with it
cfg = ExperimentConfig(
    corpus_path=sys.argv[2], transport=sys.argv[3], rounds=200, clients=2, context=8,
    embed_dim=8, lr=0.01, batch_size=8, lora_rank=2, lora_dropout=0.0, seed=1,
)
harness.run_experiment(cfg, report=False)
"""


class TestInterrupt:
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_ctrl_c_ends_the_run_and_its_workers(self, corpus_path, transport):
        """^C at a terminal sends SIGINT to the foreground process group.
        Workers ignore it; the run ends at once with KeyboardInterrupt and
        reaps them on its way out."""
        src = os.path.dirname(os.path.dirname(harness.__file__))
        argv = [sys.executable, "-c", _INTERRUPTED_RUN, src, str(corpus_path), transport]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as child:
            try:
                assert select.select([child.stdout], [], [], 30.0)[0], "round 1 never ended"
                assert child.stdout.readline() == "round 1 scored\n"
                os.killpg(child.pid, signal.SIGINT)
                sent = time.monotonic()
                child.wait(timeout=2.0)
                assert time.monotonic() - sent < 2.0
                assert "KeyboardInterrupt" in child.stderr.read()
            finally:
                if child.poll() is None:
                    os.killpg(child.pid, signal.SIGKILL)
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)  # no worker left in the group


class TestLending:
    def test_a_worker_is_lent_to_one_run_at_a_time(self, corpus_path, monkeypatch, fresh_pool):
        pool_of_two(monkeypatch)
        run_experiment(small_cfg(corpus_path), report=False)  # forks the pool
        pids = set(pool_pids())
        task = protocol.ClientTask(0, [[0, 1]], None, 1, 1, 0)  # never trains
        guard = threading.Lock()
        held, seen, errors = set(), set(), []

        def borrower():
            try:
                for _ in range(200):
                    with workers.client_trainers([task]) as (trainer,):
                        pid = getattr(getattr(trainer, "_worker", None), "pid", None)
                        with guard:
                            assert pid not in held, f"worker {pid} lent twice"
                            if pid is not None:
                                held.add(pid)
                                seen.add(pid)
                        time.sleep(0)
                        with guard:
                            held.discard(pid)
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=borrower) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert seen == pids
        assert not any(w.lent for w in workers._pool)


class TestNoLeaks:
    def test_runs_leave_no_unreaped_child(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path)
        run_experiment(cfg, report=False)
        first = pool_pids()
        assert len(first) == 2
        assert_no_zombie()

        # a worker killed mid-round: the run fails, that worker alone is
        # discarded and reaped
        submit = protocol.LocalTrainer.submit

        def killer(self, model):
            if self.client_id == 1:
                os.kill(os.getpid(), 9)
            return submit(self, model)

        workers.shutdown()
        monkeypatch.setattr(protocol.LocalTrainer, "submit", killer)
        with pytest.raises(DeltaFedError, match="^client 1: round 1: training worker killed by signal 9$"):
            run_experiment(cfg, report=False)
        second = pool_pids()
        assert len(second) == 1  # client 0's worker
        assert not any(w.lent for w in workers._pool)
        assert_no_zombie()
        monkeypatch.undo()

        pool_of_two(monkeypatch)
        run_experiment(override(cfg, transport="tcp"), report=False)
        third = pool_pids()
        workers.shutdown()
        for pid in first + third:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not a zombie or an orphan
        assert_no_zombie()


class TestSharedFrozenVector:
    """A trained model shares its round-start set's layout and frozen vector,
    whether its worker or this process trained it; and a worker trains on
    new frozen values once a set brings them."""

    @staticmethod
    def three_rounds(trainer, model):
        trained = []
        for rnd in range(3):
            if rnd == 2:  # as a full broadcast would: new frozen values
                bumped = model.params.array("rnn.U") + 0.5
                model = model.with_params(replace_values(model.params, {"rnn.U": bumped}))
            start = model.params
            trainer.submit(model)
            model, _ = trainer.collect()
            assert model.params.layout is start.layout
            assert model.params.frozen_flat is start.frozen_flat
            trained.append(model.params.trainable_flat.tobytes())
        return trained

    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in-process"])
    def test_trained_model_shares_frozen_vector(self, pooled, fresh_pool):
        from test_protocol import adapted_model, shards_for, tasks_for

        model = adapted_model()
        task = tasks_for(model, shards_for(model, 1))[0]
        if pooled:
            workers._grow(1)
        with workers.client_trainers([task]) as (trainer,):
            assert isinstance(trainer, workers.WorkerTrainer) == pooled
            trained = self.three_rounds(trainer, model)
        assert trained == self.three_rounds(protocol.LocalTrainer(task), model)


class TestBindJob:
    """A bind job carries the client's shard, a strided view of the shuffled
    windows; it is sent with one contiguous copy and no other."""

    @staticmethod
    def bind_job():
        cfg = ExperimentConfig(clients=2)  # the bundled corpus: a 0.53 MB shard
        setup = harness._setup(cfg)
        task = harness._tasks(cfg, setup)[1]
        assert not task.shard.ids.flags.c_contiguous
        return ("bind", 0, 8, task, setup.model), task.shard.ids.nbytes + task.shard.lengths.nbytes

    def test_sending_peaks_at_one_and_a_half_shards(self):
        class Discarding:
            """A pipe end that pickles what it is sent, as a Connection does, and drops it."""

            def send(self, obj):
                ForkingPickler.dumps(obj)

            def send_bytes(self, buf):
                pass

        job, shard_bytes = self.bind_job()
        tracemalloc.start()
        try:
            workers._send(Discarding(), job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * shard_bytes, peak / shard_bytes

    def test_the_worker_reads_the_shard_back(self):
        job, _ = self.bind_job()
        parent_end, child_end = Pipe()
        sender = threading.Thread(target=workers._send, args=(parent_end, job))
        sender.start()
        try:
            op, sid, size, task, model = workers._receive(child_end)
        finally:
            sender.join()
            parent_end.close()
            child_end.close()
        shard = job[3].shard
        assert (op, sid, size) == job[:3]
        assert np.array_equal(task.shard.ids, shard.ids)
        assert np.array_equal(task.shard.lengths, shard.lengths)
        assert params_bytes(model) == params_bytes(job[4])
