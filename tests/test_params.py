import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafed import (
    ArgumentError,
    ParameterSet,
    StructureError,
    add_delta,
    l2_norm,
    subtract_trainable,
    weighted_sum,
)
from deltafed.model import LmConfig, init_model
from deltafed.optim import OptimizerConfig, init_state, local_train_round
from oracles import adamw_step, replace_values


def random_set(rng, n_entries=4, max_dim=6, all_trainable=False):
    entries = []
    for i in range(n_entries):
        rank = rng.integers(1, 3)
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))
        arr = rng.standard_normal(shape)
        flag = True if all_trainable else bool(rng.integers(0, 2))
        entries.append((f"p{i:02d}", arr, flag))
    # force at least one trainable entry so deltas are never empty
    name, t, _ = entries[0]
    entries[0] = (name, t, True)
    return ParameterSet(entries)


class TestConstructor:
    def test_rejects_zero_dims_naming_entry(self):
        with pytest.raises(ArgumentError, match="'w'"):
            ParameterSet({"a": (np.ones(2), True), "w": (np.zeros((2, 0)), True)})

    def test_rejects_nonfinite_naming_entry(self):
        for bad in ([1.0, np.inf], [np.nan]):
            with pytest.raises(ArgumentError, match="'b' contains non-finite"):
                ParameterSet({"a": (np.ones(2), False), "b": (np.array(bad), False)})

    def test_copies_arrays_and_makes_a_scalar_one_value(self):
        src = np.arange(6.0).reshape(2, 3)
        ps = ParameterSet([("w", src, True), ("s", 2.5, False)])
        src[0, 0] = 99.0
        assert np.array_equal(ps.array("w"), np.arange(6.0).reshape(2, 3))
        assert ps.array("s").shape == (1,) and ps.array("s")[0] == 2.5


class TestParameterSet:
    def test_lexicographic_iteration(self):
        ps = ParameterSet({"b": (np.ones(1), True), "a": (np.ones(1), False), "a.b": (np.ones(1), True)})
        assert ps.names() == ["a", "a.b", "b"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ArgumentError):
            ParameterSet([("x", np.ones(1), True), ("x", np.ones(1), False)])

    def test_immutable(self):
        ps = ParameterSet({"a": (np.ones(1), True)})
        with pytest.raises(AttributeError):
            ps._entries = {}

    def test_missing_entry_is_argument_error(self):
        ps = ParameterSet({"a": (np.ones(1), True)})
        with pytest.raises(ArgumentError):
            ps.array("zz")

    def test_pickle_round_trip(self):
        ps = random_set(np.random.default_rng(3))
        back = pickle.loads(pickle.dumps(ps))
        assert back == ps
        assert [back.trainable(n) for n in back.names()] == [ps.trainable(n) for n in ps.names()]
        with pytest.raises(ValueError):
            back.array(back.names()[0])[0] = 1.0  # read-only again

    def test_pickled_set_round_trips_equal_vectors(self):
        ps = random_set(np.random.default_rng(4), n_entries=6)
        back = pickle.loads(pickle.dumps(ps))
        assert back.layout == ps.layout
        for ours, theirs in ((back.trainable_flat, ps.trainable_flat), (back.frozen_flat, ps.frozen_flat)):
            assert ours.tobytes() == theirs.tobytes()
            assert not ours.flags.writeable
        assert [back.array(n).tobytes() for n in back.names()] == [
            ps.array(n).tobytes() for n in ps.names()
        ]

    def test_array_is_a_read_only_view(self):
        ps = random_set(np.random.default_rng(5), n_entries=6)
        for name, t, flag in ps.items():
            a = ps.array(name)
            assert a.shape == t.shape
            assert np.shares_memory(a, ps.trainable_flat if flag else ps.frozen_flat)
            assert np.shares_memory(t, a)
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_layout_offsets_tile_both_vectors(self):
        ps = random_set(np.random.default_rng(6), n_entries=6)
        for flag, vec in ((True, ps.trainable_flat), (False, ps.frozen_flat)):
            parts = [ps.array(n).reshape(-1) for n in ps.names() if ps.trainable(n) == flag]
            assert np.concatenate(parts or [np.zeros(0)]).tobytes() == vec.tobytes()

    def test_nonfinite_values_name_their_entry(self):
        ps = ParameterSet({"a": (np.ones(2), True), "b": (np.ones(3), True)})
        with pytest.raises(ArgumentError, match="'b' contains non-finite"):
            replace_values(ps, {"b": [1.0, np.inf, 1.0]})


class TestSubtractTrainable:
    def test_matches_elementwise_oracle(self):
        # oracle: plain per-element loop over the trainable entries
        rng = np.random.default_rng(7)
        local = random_set(rng)
        glob = ParameterSet(
            [(n, rng.standard_normal(t.shape), f) for n, t, f in local.items()]
        )
        delta = subtract_trainable(local, glob)
        assert delta.names() == [n for n, _, f in local.items() if f]
        for name, t, flag in delta.items():
            assert flag
            a = local.array(name)
            b = glob.array(name)
            expected = np.empty_like(a)
            for idx in np.ndindex(a.shape):
                expected[idx] = a[idx] - b[idx]
            assert np.array_equal(t, expected)

    def test_self_minus_self_is_zero(self):
        rng = np.random.default_rng(8)
        ps = random_set(rng)
        delta = subtract_trainable(ps, ps)
        for _, t, _ in delta.items():
            assert np.all(t == 0.0)


class TestAddDelta:
    def test_add_then_subtract_round_trip(self):
        rng = np.random.default_rng(9)
        base = random_set(rng)
        delta = ParameterSet(
            [(n, rng.standard_normal(t.shape), True)
             for n, t, f in base.items() if f]
        )
        bumped = add_delta(base, delta)
        back = subtract_trainable(bumped, base)
        for name, t, _ in back.items():
            # (b + d) - b cancels to d only up to float rounding
            assert np.allclose(t, delta.array(name), rtol=1e-12, atol=1e-12)

    def test_frozen_entries_identical_objects(self):
        rng = np.random.default_rng(10)
        base = random_set(rng)
        delta = subtract_trainable(base, base)
        out = add_delta(base, delta)
        for name, t, flag in base.items():
            if not flag:
                assert np.shares_memory(out.array(name), t)
                assert out.array(name).tobytes() == t.tobytes()


class TestScaleAndNorm:
    def test_l2_norm_oracle(self):
        # oracle: accumulate sqrt(sum of squares) by explicit loop
        rng = np.random.default_rng(13)
        ps = random_set(rng)
        total = 0.0
        for name, t, flag in ps.items():
            if flag:
                for v in t.reshape(-1):
                    total += v * v
        assert math.isclose(l2_norm(ps), math.sqrt(total), rel_tol=1e-12)

    def test_l2_norm_ignores_frozen(self):
        ps = ParameterSet({"a": (np.full(3, 2.0), True), "b": (np.full(100, 9.0), False)})
        assert math.isclose(l2_norm(ps), math.sqrt(12.0), rel_tol=1e-12)


class TestWeightedSum:
    def test_uniform_mean_oracle(self):
        rng = np.random.default_rng(14)
        sets = [random_set(rng, all_trainable=True) for _ in range(3)]
        sets = [sets[0]] + [
            ParameterSet(
                [(n, rng.standard_normal(t.shape), f)
                 for n, t, f in sets[0].items()]
            )
            for _ in range(2)
        ]
        out = weighted_sum(sets, [1 / 3] * 3)
        for name, t, _ in out.items():
            stack = np.stack([s.array(name) for s in sets])
            assert np.allclose(t, stack.mean(axis=0), rtol=1e-12, atol=0)

    def test_weight_count_mismatch(self):
        ps = ParameterSet({"a": (np.ones(1), True)})
        with pytest.raises(ArgumentError):
            weighted_sum([ps, ps], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            weighted_sum([], [])


# -- layout misfits -----------------------------------------------------------

# each turns a set into one laid out otherwise in a single entry: (the
# {name: (array, trainable)} it makes, the entry an error must name)
ENTRY = "rnn.U"


def _missing(entries):
    del entries[ENTRY]
    return ENTRY


def _extra(entries):
    entries["zz"] = (np.zeros(1), True)
    return "zz"


def _misshapen(entries):
    a, flag = entries[ENTRY]
    entries[ENTRY] = (np.zeros((a.shape[0], a.shape[1] + 1)), flag)
    return ENTRY


def _flag_flipped(entries):
    a, flag = entries[ENTRY]
    entries[ENTRY] = (a, not flag)
    return ENTRY


MISFITS = {"missing": _missing, "extra": _extra, "misshapen": _misshapen, "flag-flipped": _flag_flipped}
_OPT = OptimizerConfig(lr=0.1, total_steps=1, warmup_ratio=0.0)

# each calls one operation with `wrong` where the model's own set belongs
MISFIT_SITES = {
    "subtract_trainable": lambda model, wrong: subtract_trainable(wrong, model.params),
    "add_delta": lambda model, wrong: add_delta(wrong, subtract_trainable(model.params, model.params)),
    "weighted_sum": lambda model, wrong: weighted_sum([model.params, wrong], [0.5, 0.5]),
    "adamw_step": lambda model, wrong: adamw_step(model.params, wrong, init_state(model.params), _OPT),
    "local_train_round": lambda model, wrong: local_train_round(
        model, init_state(wrong), [[0, 1, 2]], _OPT, np.random.default_rng(0), batch_size=1, steps=1
    ),
}


@pytest.mark.parametrize("misfit", MISFITS)
@pytest.mark.parametrize("site", MISFIT_SITES)
def test_layout_misfit_names_the_entry(site, misfit):
    model = init_model(LmConfig(vocab_size=5, embed_dim=3, context=4), seed=0)
    entries = {n: (a, f) for n, a, f in model.params.items()}
    name = MISFITS[misfit](entries)
    with pytest.raises(StructureError, match=repr(name).replace(".", r"\.")):
        MISFIT_SITES[site](model, ParameterSet(entries))


# -- property tests ---------------------------------------------------------

small_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def param_pairs(draw):
    n = draw(st.integers(1, 4))
    entries_a, entries_b = [], []
    for i in range(n):
        size = draw(st.integers(1, 8))
        a = draw(st.lists(small_floats, min_size=size, max_size=size))
        b = draw(st.lists(small_floats, min_size=size, max_size=size))
        flag = draw(st.booleans())
        entries_a.append((f"e{i}", np.array(a), flag))
        entries_b.append((f"e{i}", np.array(b), flag))
    return ParameterSet(entries_a), ParameterSet(entries_b)


@settings(max_examples=60, deadline=None)
@given(param_pairs())
def test_delta_linearity(pair):
    # add_delta(g, subtract_trainable(l, g)) recovers l on trainable entries
    local, glob = pair
    delta = subtract_trainable(local, glob)
    rebuilt = add_delta(glob, delta)
    for name, t, flag in local.items():
        if flag:
            assert np.allclose(rebuilt.array(name), t, rtol=1e-12, atol=1e-9)
        else:
            assert np.shares_memory(rebuilt.array(name), glob.array(name))
            assert rebuilt.array(name).tobytes() == glob.array(name).tobytes()
