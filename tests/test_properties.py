"""The north-star guarantees as properties over drawn configs: memory and
TCP runs agree bit for bit, and so do pooled and in-process ones; with one
client the federated, central and local runs agree bit for bit; and two
`compare_modes` calls write the same CSV.

Each example is a small federation on a `scripts/make_corpus.py` corpus cut
so that its training split leaves a ragged tail row, so the ids that cross
into the workers as bytes include a padded row. The example count comes
from the Hypothesis profile (`tests/conftest.py`): tier-1's default runs a
fixed, derandomized set, and `--hypothesis-profile=deep` draws more.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import deltafed.harness as harness
import deltafed.workers as workers
from deltafed.aggregate import WEIGHT_SAMPLES, WEIGHT_UNIFORM
from deltafed.config import ExperimentConfig
from test_data_path import make_corpus
from test_harness import compare_kept, params_bytes

CONTEXT, SPLIT = 8, 0.7


def ragged_corpus(size: int, seed: int) -> str:
    """make_corpus's text cut to `size` bytes or a few more, so that the
    training split's last window holds 2 .. CONTEXT tokens."""
    text = make_corpus(size + CONTEXT + 1, seed)
    while int(size * SPLIT) % (CONTEXT + 1) < 2:
        size += 1
    return text[:size]


@st.composite
def configs(draw):
    """-> (the config's fields but the corpus path, corpus size, corpus seed)."""
    rank = draw(st.sampled_from([0, 1, 4]))
    aggregation = draw(st.sampled_from(["gradualdiff", "fedavg"]))
    form = draw(st.sampled_from(["factors", "dense"] if rank else ["factors"]))
    fields = dict(
        clients=draw(st.integers(1, 4)),  # from 3, a worker serves two clients
        embed_dim=draw(st.integers(4, 16)),
        rounds=draw(st.integers(1, 2)),
        local_epochs=draw(st.integers(1, 2)),
        lora_rank=rank,
        lora_targets=draw(st.sampled_from(["embed.W,rnn.U", "rnn.U", "embed.W"])),
        lora_dropout=draw(st.sampled_from([0.0, 0.1])) if rank else 0.0,
        aggregation=aggregation,
        delta_form=form,
        delta_weighting=draw(st.sampled_from([WEIGHT_UNIFORM, WEIGHT_SAMPLES])),
        quantize_payload=draw(st.booleans()),
        context=CONTEXT,
        split=SPLIT,
        batch_size=draw(st.integers(3, 16)),
        lr=0.01,
        seed=draw(st.integers(0, 2**16)),
    )
    return fields, draw(st.integers(300, 700)), draw(st.integers(0, 99))


def outcome(res):
    """The final parameters, the records without their wall times, the byte
    table and the BLEU."""
    recs = [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"} for r in res.records
    ]
    return params_bytes(res.model), recs, res.ledger.byte_table(), res.extras["bleu"]


def trajectory(res):
    """The final parameters, and each round's training loss and perplexity."""
    model = res.model if res.model is not None else res.client_models[0]
    return params_bytes(model), [(r.round, r.train_loss, r.perplexity) for r in res.records]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    yield tmp_path_factory.mktemp("corpora")
    workers.shutdown()


@given(configs())
def test_guarantees_hold(corpus_dir, drawn):
    """One compare on the pool and one in process, and a federated run over
    TCP on the pool: the federated runs agree with each other, the two
    compares write the same CSV from the same results, and with one client
    every mode plays the same trajectory."""
    fields, size, corpus_seed = drawn
    corpus = corpus_dir / f"{size}-{corpus_seed}.txt"
    text = ragged_corpus(size, corpus_seed)
    corpus.write_text(text, encoding="ascii")
    cfg = ExperimentConfig(corpus_path=str(corpus), **fields)
    setup = harness._setup(cfg)
    assert len(setup.sequences.widths) == 2  # the tail row

    out = corpus_dir / f"{size}-{corpus_seed}"
    with pytest.MonkeyPatch.context() as mp:
        # two workers whatever the core count, so a lone client borrows one too
        mp.setattr(workers, "planned_workers", lambda clients: min(clients, 2))
        workers._grow(2)
        csv, pooled = compare_kept(cfg, out / "pooled")
        tcp = outcome(harness.run_experiment(dataclasses.replace(cfg, transport="tcp"), report=False))
        assert len(workers._pool) == 2
        workers.shutdown()  # and with no pool to borrow from, every client plays here
        mp.setattr(workers, "planned_workers", lambda clients: 0)
        csv_here, here = compare_kept(cfg, out / "here")
    assert tcp == outcome(pooled["federated"])
    assert outcome(here["federated"]) == outcome(pooled["federated"])
    assert csv_here == csv
    assert {m: trajectory(r) for m, r in here.items()} == {m: trajectory(r) for m, r in pooled.items()}
    if cfg.clients == 1:
        assert trajectory(pooled["central"]) == trajectory(pooled["federated"])
        assert trajectory(pooled["local"]) == trajectory(pooled["federated"])
