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
from deltafed.errors import DeltaFedError, ProtocolError
from deltafed.harness import compare_modes, run_experiment
from deltafed.transport import memory_pairs
from deltafed.wire import (
    KIND_GLOBAL_BROADCAST,
    WireMessage,
    encode_message,
    serialize_params,
)
from oracles import drop

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


def timeless(res):
    """A result's models, records without their walls, and extras."""
    models = [res.model] if res.model is not None else res.client_models
    recs = [(r.round, r.train_loss, r.perplexity, r.uplink_bytes, r.downlink_bytes) for r in res.records]
    return [params_bytes(m) for m in models], recs, res.extras


def assert_no_zombie():
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        pass  # no child at all


def assert_gone(pids):
    """These workers are out of the pool, killed and reaped: no process and
    no zombie is left of them."""
    assert not set(pids) & set(pool_pids())
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert_no_zombie()


def assert_forked_anew(pids):
    """The pool holds two workers again, none of them one of `pids`."""
    assert len(pool_pids()) == 2 and not set(pids) & set(pool_pids())


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
        """Client i plays on worker i mod 2, one job at a time: a client's
        job starts once the worker's previous one is answered, in every
        round and at the shutdown."""
        start = workers.WorkerClient._start
        started = []

        def recorded(self):
            started.append((self.id, self._worker.pid, self._worker.queue[0] is self))
            return start(self)

        monkeypatch.setattr(workers.WorkerClient, "_start", recorded)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, clients=5, rounds=2)
        run_experiment(cfg, report=False)
        pids = pool_pids()
        assert started == [(i, pids[i % 2], True) for i in range(5)] * (cfg.rounds + 1)


class TestPoolFailFast:
    """Faults injected in a worker surface as the in-process ones do.

    The fault is patched in before the pool forks, so it lives in the
    workers, and picks client 1 by id. It fires once: a marker file records
    the injection time (CLOCK_MONOTONIC is system-wide) and keeps it from
    firing again.
    """

    def inject(self, monkeypatch, tmp_path, fault):
        train = protocol.Client.train
        marker = tmp_path / "injected"
        calls = {}

        def flaky(self):
            calls[self.id] = calls.get(self.id, 0) + 1
            if self.id == 1 and calls[1] == 2 and not marker.exists():
                marker.write_text(f"{time.monotonic()!r} {os.getpid()}")
                fault()
            return train(self)

        monkeypatch.setattr(protocol.Client, "train", flaky)
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

    # the round prefix goes on through str(), which quotes a KeyError's key
    @pytest.mark.parametrize(
        "base, shown", [(Exception, "'odd'"), (KeyError, '"\'odd\'"')], ids=["Exception", "KeyError"]
    )
    def test_unpicklable_error_becomes_deltafed_error(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool, base, shown
    ):
        class Local(base):  # a local class does not pickle
            pass

        def fault():
            raise Local("odd")

        marker = self.inject(monkeypatch, tmp_path, fault)
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError)
        assert message == f"client 1: round 2: training raised Local({shown})"

    def test_worker_exit_named(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        marker = self.inject(monkeypatch, tmp_path, lambda: os._exit(3))
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError)
        assert message == "client 1: round 2: training worker exited with code 3"

    def test_worker_that_stops_answering_is_killed_and_named(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        """A worker that hangs in a round fails the run once the bound
        passes; it is killed and reaped, and the next run forks anew."""
        monkeypatch.setattr(workers, "DEFAULT_TIMEOUT", 0.5)
        marker = self.inject(monkeypatch, tmp_path, lambda: time.sleep(60))
        message = self.fail_then_recover(corpus_path, marker, DeltaFedError)
        assert message == "client 1: round 2: training worker did not answer within 0.5 s"
        hung = int(marker.read_text().split()[1])
        assert hung not in pool_pids() and len(pool_pids()) == 2
        with pytest.raises(ProcessLookupError):
            os.kill(hung, 0)
        assert_no_zombie()

    def test_busy_worker_is_waited_for(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        """A worker that computes past the bound is not killed: its CPU
        time grows in every slice of the wait, and the run ends as an
        unhindered one does."""
        cfg = small_cfg(corpus_path)
        pool_of_two(monkeypatch)
        ref = run_experiment(cfg, report=False)
        workers.shutdown()  # the next pool forks with the spin in it

        def spin():
            end = time.monotonic() + 1.0
            while time.monotonic() < end:
                pass

        monkeypatch.setattr(workers, "DEFAULT_TIMEOUT", 0.2)
        marker = self.inject(monkeypatch, tmp_path, spin)
        res = run_experiment(cfg, report=False)
        assert int(marker.read_text().split()[1]) in pool_pids()  # it spun in a worker, which lives on
        assert outcome(res) == outcome(ref)

    def test_a_failed_round_leaves_no_stale_score(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        """Client 1 fails in round 2 while client 2's job, and the job
        behind it that scores round 1, are in flight on worker 0; that
        worker is killed with the other, so no leftover score can reach the
        next run, which forks anew."""
        def fault():
            raise RuntimeError("injected training fault")

        marker = self.inject(monkeypatch, tmp_path, fault)
        workers._grow(2)  # with the fault in it
        pids = pool_pids()
        cfg = small_cfg(corpus_path)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, report=False)
        assert_gone(pids)
        pooled = run_experiment(cfg, report=False)
        assert marker.exists()
        assert_forked_anew(pids)
        in_process(monkeypatch)
        assert outcome(pooled) == outcome(run_experiment(cfg, report=False))

    def test_a_failed_fold_does_not_wait_for_a_round_in_flight(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        """The fold raises after client 0's update while client 1's round 2,
        and the job behind it that scores round 1, still run on worker 1 for
        2 s: the run fails at once, its workers are killed and reaped, and
        the next run forks anew and equals one in process."""
        marker = self.inject(monkeypatch, tmp_path, lambda: time.sleep(2.0))
        workers._grow(2)  # with the sleep in it
        pids = pool_pids()
        fold, raised = protocol.fold_updates, []

        def failing(model, rnd, updates, *args, **kw):
            if rnd == 2:
                next(iter(updates))  # client 0's update
                raised.append(time.monotonic())
                raise RuntimeError("injected fold fault")
            return fold(model, rnd, updates, *args, **kw)

        monkeypatch.setattr(protocol, "fold_updates", failing)
        cfg = small_cfg(corpus_path, clients=2)
        with pytest.raises(RuntimeError) as exc:
            run_experiment(cfg, report=False)
        assert time.monotonic() - raised[0] < 0.3
        assert str(exc.value) == "server: injected fold fault"
        assert marker.exists()  # client 1's round 2 was sleeping in its worker
        assert pool_pids() == []
        assert_gone(pids)
        monkeypatch.undo()
        pool_of_two(monkeypatch)
        pooled = run_experiment(cfg, report=False)
        assert_forked_anew(pids)
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
        workers._grow(2)
        pids = pool_pids()
        cfg = small_cfg(corpus_path)
        with pytest.raises(DeltaFedError) as exc:
            run_experiment(cfg, report=False)
        assert str(exc.value) == (
            "client 1: round 1: training worker could not read its job: ValueError('shard refused')"
        )
        assert_gone(pids)  # the worker answered, but its run failed: it is killed with the other
        monkeypatch.setattr(harness, "_client_task", task_of)
        res = run_experiment(cfg, report=False)
        assert len(res.records) == cfg.rounds
        assert_forked_anew(pids)


def _refuse_to_unpickle():
    raise ValueError("shard refused")


class _Unreadable:
    """A shard that pickles here and raises where it is unpickled."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


class TestCompareLanes:
    """compare_modes runs central on a helper thread beside local, each on a
    worker of its own, with the same results as in process."""

    def test_pool_matches_in_process(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        train = protocol.local_train_round
        here = []

        def counted(*args, **kw):
            here.append(1)  # in a worker this appends to the worker's copy
            return train(*args, **kw)

        monkeypatch.setattr(protocol, "local_train_round", counted)
        cfg = small_cfg(corpus_path)
        in_process(monkeypatch)
        ref_csv, ref = test_harness.compare_kept(cfg, tmp_path / "ref")
        assert here and pool_pids() == []
        here.clear()
        pool_of_two(monkeypatch)
        csv, pooled = test_harness.compare_kept(cfg, tmp_path / "pooled")
        assert not here and len(pool_pids()) == 2  # every mode trained in the workers
        assert csv == ref_csv
        assert {m: timeless(r) for m, r in pooled.items()} == {m: timeless(r) for m, r in ref.items()}
        assert pooled["local"].extras["clients"] == ref["local"].extras["clients"]

    def test_central_and_local_train_on_different_workers(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        receive = workers.WorkerClient.receive
        seen = []

        def recorded(self, raw):
            seen.append((threading.current_thread().name, self._worker.pid))
            return receive(self, raw)

        monkeypatch.setattr(workers.WorkerClient, "receive", recorded)
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
        train = protocol.Client.train
        calls = {}

        def started(mode_cfg, *args, **kw):
            if mode_cfg.mode == "local":
                local_started.touch()
            return run_experiment(mode_cfg, *args, **kw)

        def flaky(self):
            if in_local:
                key = self.id if local_started.exists() else None
                fires = key == 1
            else:
                key = "central" if self.task.steps_per_round == central_steps else None
                fires = key is not None
            calls[key] = calls.get(key, 0) + 1
            if fires and calls[key] == 2 and not marker.exists():
                marker.write_text(f"{time.monotonic()!r} {os.getpid()}")
                fault()
            return train(self)

        monkeypatch.setattr(harness, "run_experiment", started)
        monkeypatch.setattr(protocol.Client, "train", flaky)
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
        """Round t's model is scored by a job of its own, sent right behind
        the last client's round t+1 job on that client's worker; the final
        model's follows that client's shutdown job. A score job names no
        session, and only the first one a worker gets carries the ids; no
        job follows the shutdowns, which end the sessions."""
        send = workers._send
        clients, jobs = {}, []  # session id -> client id; (op, client or worker, ids sent)

        def recorded(conn, job):
            if job[0] == "score":
                worker = [w.pid for w in workers._pool if w.conn is conn]
                jobs.append(("score", worker, job[1] is not None))
            else:
                if job[0] == "bind":
                    clients[job[1]] = job[3].client_id
                jobs.append((job[0], clients[job[1]], False))
            return send(conn, job)

        monkeypatch.setattr(workers, "_send", recorded)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, clients=3, rounds=3)
        run_experiment(cfg, report=False)
        # client 2 shares worker 0 with client 0 and starts once client 0 is answered
        scorer = [pool_pids()[0]]
        binds = [("bind", i, False) for i in range(3)]
        rounds = [("round", i, False) for i in range(3)]  # rounds 2 and 3, then the shutdown
        assert jobs == binds + rounds + [("score", scorer, True)] + (rounds + [("score", scorer, False)]) * 2
        jobs.clear()
        run_experiment(cfg, report=False)  # a new setup: its held-out ids are sent again
        scores = [job for job in jobs if job[0] == "score"]
        assert scores == [("score", scorer, True)] + [("score", scorer, False)] * 2
        assert len(pool_pids()) == 2 and not any(w.queue for w in workers._pool)

    def test_final_bleu_runs_while_the_final_model_scores(self, corpus_path, monkeypatch, fresh_pool):
        """The final model's score job is sent before its BLEU is worked
        out on this thread, and read after it."""
        send, bleu_of, score = workers._send, harness.bleu_of, workers.WorkerClient.score
        events = []

        def recorded(conn, job):
            if job[0] == "score":
                events.append(job[0])
            return send(conn, job)

        def bleu(*args, **kw):
            events.append("bleu")
            return bleu_of(*args, **kw)

        def read(client):
            events.append("read")
            return score(client)

        monkeypatch.setattr(workers, "_send", recorded)
        monkeypatch.setattr(harness, "bleu_of", bleu)
        monkeypatch.setattr(workers.WorkerClient, "score", read)
        pool_of_two(monkeypatch)
        run_experiment(small_cfg(corpus_path, clients=2, rounds=2), report=False)
        assert events[events.index("bleu") - 2 :][:4] == ["read", "score", "bleu", "read"]
        assert events.count("bleu") == 1

    @pytest.mark.parametrize("mode", ["central", "local"])
    def test_lone_clients_score_on_their_workers(self, corpus_path, mode, monkeypatch, fresh_pool):
        """With a pool to borrow from, central's client and each local one
        are scored on its worker, with the records of a run in process."""
        score = harness.perplexity_of
        here = []

        def counted(*args, **kw):
            here.append(1)
            return score(*args, **kw)

        monkeypatch.setattr(harness, "perplexity_of", counted)
        cfg = small_cfg(corpus_path, mode=mode, rounds=3)
        ref = run_experiment(cfg, report=False)
        assert len(here) == (1 if mode == "central" else cfg.clients) * cfg.rounds
        here.clear()
        workers._grow(2)
        pooled = run_experiment(cfg, report=False)
        assert not here and len(pool_pids()) == 2
        assert timeless(pooled) == timeless(ref)

    def test_bleu_error_leaves_no_score_reply_owed(self, corpus_path, monkeypatch, fresh_pool):
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, rounds=2)
        ref = run_experiment(cfg, report=False)
        bleu_of = harness.bleu_of

        def broken(*args, **kw):
            raise RuntimeError("injected BLEU fault")

        monkeypatch.setattr(harness, "bleu_of", broken)
        pids = pool_pids()
        with pytest.raises(RuntimeError) as failure:
            run_experiment(cfg, report=False)
        assert str(failure.value) == "injected BLEU fault"
        assert_gone(pids)  # the final score's reply died with its worker
        monkeypatch.setattr(harness, "bleu_of", bleu_of)
        assert outcome(run_experiment(cfg, report=False)) == outcome(ref)
        assert_forked_anew(pids)


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
        assert pool_pids() == []  # the failed run's workers are discarded
        assert_no_zombie()
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
        assert_forked_anew(pids)  # the scoring worker answered, but its run failed
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_worker_exit_while_scoring_named(
        self, corpus_path, tmp_path, transport, monkeypatch, fresh_pool
    ):
        marker, calls = self.inject(monkeypatch, tmp_path, lambda: os._exit(3))
        message = self.fail_then_recover(corpus_path, transport, marker, calls, DeltaFedError)
        assert message == "server: round 2: scoring worker exited with code 3"
        assert_no_zombie()

    def test_worker_that_stops_scoring_is_killed_and_named(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        monkeypatch.setattr(workers, "DEFAULT_TIMEOUT", 0.5)
        marker, calls = self.inject(monkeypatch, tmp_path, lambda: time.sleep(60))
        message = self.fail_then_recover(corpus_path, "memory", marker, calls, DeltaFedError)
        assert message == "server: round 2: scoring worker did not answer within 0.5 s"
        hung = int(marker.read_text().split()[1])
        assert hung not in pool_pids()
        with pytest.raises(ProcessLookupError):
            os.kill(hung, 0)
        assert_no_zombie()

    def test_final_scoring_error_fails_at_the_last_round(
        self, corpus_path, tmp_path, monkeypatch, fresh_pool
    ):
        """The final model is scored alone, beside its BLEU; a fault there
        still names the last round, and the next run succeeds."""
        def fault():
            raise RuntimeError("injected scoring fault")

        self.inject(monkeypatch, tmp_path, fault)
        workers._grow(2)  # with the fault in it
        pids = pool_pids()
        cfg = small_cfg(corpus_path, rounds=2)
        with pytest.raises(RuntimeError) as exc:
            run_experiment(cfg, report=False)
        assert str(exc.value) == "server: round 2: injected scoring fault"
        assert_gone(pids)
        assert len(run_experiment(cfg, report=False).records) == 2
        assert_forked_anew(pids)

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

    @pytest.mark.parametrize(
        "mode, pooled",
        [("central", False), ("local", False), ("central", True), ("local", True)],
        ids=["central", "local", "central-pooled", "local-pooled"],
    )
    def test_lone_clients_name_a_scoring_error_as_the_server(
        self, corpus_path, tmp_path, mode, pooled, monkeypatch, fresh_pool
    ):
        """Central's client, and each local one, is a federation of one,
        scored on the worker it borrows from the pool, or with none on this
        thread as its round ends; a fault is the server's either way. The
        failed run's worker is killed; the other, never lent to it, serves
        the next run, since a lone client never grows the pool."""
        def fault():
            raise RuntimeError("injected scoring fault")

        marker, calls = self.inject(monkeypatch, tmp_path, fault)
        monkeypatch.setattr(harness, "perplexity_of", workers.perplexity_of)  # the same fault here
        if pooled:
            workers._grow(2)  # a lone client borrows, but never grows the pool
        pids = pool_pids()
        cfg = small_cfg(corpus_path, mode=mode, rounds=5)
        with pytest.raises(RuntimeError) as exc:
            run_experiment(cfg, report=False)
        assert str(exc.value) == "server: round 2: injected scoring fault"
        scorer = int(marker.read_text().split()[1])
        assert (scorer in pids) == pooled
        assert len(calls.read_text().splitlines()) == 2  # no round was scored after it
        assert_gone([scorer] if pooled else [])
        assert pool_pids() == pids[1:]  # the first idle worker was lent, and killed
        assert len(run_experiment(cfg, report=False).records) == cfg.rounds
        assert pool_pids() == pids[1:]

    def test_compare_names_central_scoring_error(self, corpus_path, tmp_path, monkeypatch, fresh_pool):
        """In process, central is scored on its helper thread, and a fault
        there is named with its mode once both lanes have ended."""
        score = harness.perplexity_of
        calls = []

        def flaky(*args, **kw):
            if threading.current_thread().name == "central":
                calls.append(1)
                if len(calls) == 2:
                    raise RuntimeError("injected scoring fault")
            return score(*args, **kw)

        monkeypatch.setattr(harness, "perplexity_of", flaky)
        in_process(monkeypatch)
        with pytest.raises(RuntimeError) as exc:
            compare_modes(small_cfg(corpus_path), tmp_path)
        assert str(exc.value) == "central: server: round 2: injected scoring fault"
        assert threading.active_count() == 1
        assert pool_pids() == []


# A federated run of 200 rounds whose scoring worker prints a line once it
# has scored round 1; argv: source directory, corpus path, transport, and
# "slow" to make every worker's rounds from its third on take 5 s.
_INTERRUPTED_RUN = """
import sys
import time
sys.path.insert(0, sys.argv[1])
import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.workers as workers
from deltafed.config import ExperimentConfig

workers.planned_workers = lambda clients: min(clients, 2)
score = workers.perplexity_of
train, trained = protocol.local_train_round, []

def slow(*args, **kw):
    trained.append(1)
    if len(trained) > 2:
        time.sleep(5)
    return train(*args, **kw)

if sys.argv[4] == "slow":
    protocol.local_train_round = slow

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

# A compare of 3 rounds whose central client takes 5 s for each round from
# its second on, and whose worker prints a line as it starts the first of
# them, while local plays beside it; argv: source directory, corpus path,
# output directory.
_INTERRUPTED_COMPARE = """
import sys
import time
sys.path.insert(0, sys.argv[1])
import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.workers as workers
from deltafed.config import ExperimentConfig

workers.planned_workers = lambda clients: min(clients, 2)
cfg = ExperimentConfig(
    corpus_path=sys.argv[2], rounds=3, clients=2, context=8, embed_dim=8, lr=0.01,
    batch_size=8, lora_rank=2, lora_dropout=0.0, seed=1,
)
central_steps = sum(harness._setup(cfg).steps.values())
train = protocol.Client.train

def slow(self):
    if self.task.steps_per_round == central_steps and self.losses:
        print("central trains a slow round", flush=True)
        time.sleep(5)
    return train(self)

protocol.Client.train = slow  # the pool forks with it
harness.compare_modes(cfg, sys.argv[3])
"""


# A compare of 12 rounds played all in process, whose central client takes
# 0.4 s more for each round from its second on and prints a line as it
# starts the first of them, while local plays beside it; argv: source
# directory, corpus path, output directory.
_INTERRUPTED_IN_PROCESS_COMPARE = """
import sys
import time
sys.path.insert(0, sys.argv[1])
import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.workers as workers
from deltafed.config import ExperimentConfig

workers.planned_workers = lambda clients: 0
cfg = ExperimentConfig(
    corpus_path=sys.argv[2], rounds=12, clients=2, context=8, embed_dim=8, lr=0.01,
    batch_size=8, lora_rank=2, lora_dropout=0.0, seed=1,
)
central_steps = sum(harness._setup(cfg).steps.values())
train = protocol.Client.train

def slow(self):
    if self.task.steps_per_round == central_steps and self.losses:
        if len(self.losses) == 1:
            print("central trains a slow round", flush=True)
        time.sleep(0.4)
    return train(self)

protocol.Client.train = slow
harness.compare_modes(cfg, sys.argv[3])
"""


class TestInterrupt:
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_ctrl_c_ends_the_run_and_its_workers(self, corpus_path, transport):
        """^C at a terminal sends SIGINT to the foreground process group.
        Workers ignore it; the run ends at once with KeyboardInterrupt and
        reaps them on its way out."""
        self.interrupt(_INTERRUPTED_RUN, [str(corpus_path), transport, "fast"], "round 1 scored\n")

    def test_ctrl_c_while_every_worker_trains_a_long_round(self, corpus_path):
        """The workers are killed at once, not waited for."""
        # into round 3, where both workers sleep
        self.interrupt(_INTERRUPTED_RUN, [str(corpus_path), "memory", "slow"], "round 1 scored\n", 0.3)

    def test_ctrl_c_during_compare_ends_central_too(self, corpus_path, tmp_path):
        """^C while central trains a slow round on its worker beside local:
        the workers lent to central are killed, so its lane ends at its next
        read, and the process does not wait out central's run."""
        self.interrupt(
            _INTERRUPTED_COMPARE, [str(corpus_path), str(tmp_path)], "central trains a slow round\n"
        )

    def test_ctrl_c_during_compare_ends_an_in_process_central_too(self, corpus_path, tmp_path):
        """With no pool, central's lane plays on its helper thread in
        process: it ends with the round it is in, not after its whole run."""
        self.interrupt(
            _INTERRUPTED_IN_PROCESS_COMPARE, [str(corpus_path), str(tmp_path)],
            "central trains a slow round\n",
        )

    def test_interrupt_while_sending_a_job(self, corpus_path, monkeypatch, fresh_pool):
        """A KeyboardInterrupt while a job is being sent, before the worker
        has it, waits on no reply: the run's workers are killed and reaped
        at once, and the next federation forks anew."""
        send, rounds, raised = workers._send, [], []

        def interrupted(conn, job):
            if job[0] == "round":
                rounds.append(1)
                if len(rounds) == 3:
                    raised.append(time.monotonic())
                    raise KeyboardInterrupt
            return send(conn, job)

        monkeypatch.setattr(workers, "_send", interrupted)
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, rounds=3)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, report=False)
        assert time.monotonic() - raised[0] < 0.3
        assert pool_pids() == []
        assert_no_zombie()
        assert len(run_experiment(cfg, report=False).records) == cfg.rounds

    @staticmethod
    def interrupt(script, args, ready, pause=0.0):
        """Run `script` on `args` in a session of its own, wait for the line
        `ready` and `pause` seconds more, then ^C it: it must exit within
        2 s with KeyboardInterrupt and leave no process in its group."""
        src = os.path.dirname(os.path.dirname(harness.__file__))
        argv = [sys.executable, "-c", script, src, *args]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as child:
            try:
                assert select.select([child.stdout], [], [], 30.0)[0], f"never printed {ready!r}"
                assert child.stdout.readline() == ready
                time.sleep(pause)
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


@pytest.mark.skipif(not hasattr(os, "sched_getscheduler"), reason="no scheduling policies to read")
class TestBatchPolicy:
    """Pool workers run as SCHED_BATCH tasks, so a job that wakes one does
    not preempt the driving thread; where that is refused, or the call is
    missing, they serve as before."""

    def test_workers_are_batch_tasks(self, corpus_path, monkeypatch, fresh_pool):
        own = os.sched_getscheduler(0)
        pool_of_two(monkeypatch)
        run_experiment(small_cfg(corpus_path), report=False)
        assert [os.sched_getscheduler(pid) for pid in pool_pids()] == [os.SCHED_BATCH] * 2
        assert os.sched_getscheduler(0) == own

    @pytest.mark.parametrize("how", ["refused", "missing"])
    def test_without_the_policy_the_pool_serves_as_before(self, corpus_path, how, monkeypatch, fresh_pool):
        own = os.sched_getscheduler(0)
        if how == "refused":
            def refuse(*args):
                raise PermissionError(1, "Operation not permitted")

            monkeypatch.setattr(os, "sched_setscheduler", refuse)  # the pool forks with it
        else:
            monkeypatch.delattr(os, "sched_setscheduler")
        pool_of_two(monkeypatch)
        cfg = small_cfg(corpus_path, quantize_payload=True)
        pooled = run_experiment(cfg, report=False)
        assert [os.sched_getscheduler(pid) for pid in pool_pids()] == [own] * 2
        in_process(monkeypatch)
        assert outcome(pooled) == outcome(run_experiment(cfg, report=False))


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
                    with workers.pooled_clients(None, [task], None) as (client,):
                        pid = getattr(getattr(client, "_worker", None), "pid", None)
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

        # a worker killed mid-round: the run fails, and both its workers,
        # the dead one and the live one, are discarded and reaped
        train = protocol.Client.train

        def killer(self):
            if self.id == 1:
                os.kill(os.getpid(), 9)
            return train(self)

        workers.shutdown()
        monkeypatch.setattr(protocol.Client, "train", killer)
        workers._grow(2)  # with the killer in it
        second = pool_pids()
        with pytest.raises(DeltaFedError, match="^client 1: round 1: training worker killed by signal 9$"):
            run_experiment(cfg, report=False)
        assert_gone(second)
        assert pool_pids() == []
        monkeypatch.undo()

        pool_of_two(monkeypatch)
        run_experiment(override(cfg, transport="tcp"), report=False)
        third = pool_pids()
        assert_forked_anew(second)
        workers.shutdown()
        for pid in first + third:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not a zombie or an orphan
        assert_no_zombie()


class TestClientInItsWorker:
    """A pooled client is the in-process `Client`, played in its worker: it
    sends the same update bytes in every round and ends with the same
    ledger, on factor broadcasts and on full ones that bring new frozen
    values after round 1; a ProtocolError it raises there carries its
    ledger home."""

    @pytest.mark.parametrize(
        "kw",
        [{}, {"delta_form": "dense", "quantize_payload": True}, {"aggregation": "fedavg"}],
        ids=["factors", "dense-q4", "fedavg"],
    )
    def test_same_update_bytes_and_ledger(self, corpus_path, kw, monkeypatch, fresh_pool):
        sent = []

        def recorded(update):
            def call(self):
                raw = update(self)
                sent.append((self.id, raw))  # a pooled client's handle encodes, here
                return raw

            return call

        for cls in (protocol.Client, workers.WorkerClient):
            monkeypatch.setattr(cls, "update", recorded(cls.update))
        cfg = small_cfg(corpus_path, **kw)
        setup = harness._setup(cfg)

        def play():
            sent.clear()
            frozen = []  # each round's global frozen values
            server_ends, client_ends = memory_pairs(cfg.clients)
            with workers.pooled_clients(setup.model, harness._tasks(cfg, setup), cfg) as clients:
                final, _ = protocol.run_server(
                    setup.model, server_ends, cfg, clients=list(zip(client_ends, clients)),
                    on_round=lambda t, model: frozen.append(model.params.frozen_flat.tobytes()),
                )
            ledgers = [client.ledger.byte_table() for client in clients]
            return list(sent), ledgers, params_bytes(final), frozen, {type(c) for c in clients}

        in_process(monkeypatch)
        ref = play()
        pool_of_two(monkeypatch)
        pooled = play()
        assert ref[-1] == {protocol.Client} and pooled[-1] == {workers.WorkerClient}
        assert len(pooled[0]) == cfg.clients * cfg.rounds
        assert pooled[:-1] == ref[:-1]
        # dense folds move the base entries, so later broadcasts bring new frozen values
        frozen = pooled[3]
        assert (frozen[0] != frozen[-1]) == (kw.get("delta_form") == "dense")

    def test_protocol_error_carries_the_clients_ledger(self, fresh_pool):
        from test_protocol import adapted_model, shards_for, tasks_for

        model = adapted_model()
        task = tasks_for(model, shards_for(model, 1))[0]
        cfg = ExperimentConfig()
        full = serialize_params(model.params)
        short = serialize_params(drop(model.params.trainable_subset(), ["rnn.U.lora.B"]))

        def fed(client):
            client.join()
            with pytest.raises(ProtocolError) as exc:
                for rnd, payload in enumerate([full, short], start=1):
                    client.receive(encode_message(
                        WireMessage(KIND_GLOBAL_BROADCAST, rnd, protocol.SERVER_SENDER, payload)
                    ))
                    client.update()
            return exc.value

        workers._grow(1)
        with workers.pooled_clients(model, [task], cfg) as (client,):
            assert isinstance(client, workers.WorkerClient)
            pooled = fed(client)
        here = fed(protocol.Client(model, task, cfg))
        assert str(pooled) == str(here) == "round 2 broadcast lacks trainable entry 'rnn.U.lora.B'"
        assert pooled.ledger.byte_table() == here.ledger.byte_table()
        assert pooled.ledger.byte_table()[0]["up"] == {0: 26}  # the join, booked when bound


class TestBindJob:
    """A bind job carries the client's shard, a strided view of the shuffled
    windows; it is sent with one contiguous copy and no other."""

    @staticmethod
    def bind_job():
        cfg = ExperimentConfig(clients=2)  # the bundled corpus: a 0.53 MB shard
        setup = harness._setup(cfg)
        task = harness._tasks(cfg, setup)[1]
        assert not task.shard.ids.flags.c_contiguous
        return ("bind", 0, 8, task, setup.model, cfg, True), task.shard.ids.nbytes + task.shard.lengths.nbytes

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
            op, sid, size, task, model, cfg, joined = workers._receive(child_end)
        finally:
            sender.join()
            parent_end.close()
            child_end.close()
        shard = job[3].shard
        assert (op, sid, size, cfg, joined) == (*job[:3], *job[5:])
        assert np.array_equal(task.shard.ids, shard.ids)
        assert np.array_equal(task.shard.lengths, shard.lengths)
        assert params_bytes(model) == params_bytes(job[4])
