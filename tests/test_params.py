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
    Tensor,
    add_delta,
    l2_norm,
    subtract_trainable,
    weighted_sum,
)


def make_set(entries):
    """entries: {name: (array, trainable)}"""
    return ParameterSet(
        [(n, Tensor.from_array(a), f) for n, (a, f) in entries.items()]
    )


def random_set(rng, n_entries=4, max_dim=6, all_trainable=False):
    entries = []
    for i in range(n_entries):
        rank = rng.integers(1, 3)
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))
        arr = rng.standard_normal(shape)
        flag = True if all_trainable else bool(rng.integers(0, 2))
        entries.append((f"p{i:02d}", Tensor.from_array(arr), flag))
    # force at least one trainable entry so deltas are never empty
    name, t, _ = entries[0]
    entries[0] = (name, t, True)
    return ParameterSet(entries)


class TestTensor:
    def test_shape_data_agreement(self):
        t = Tensor.from_array(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6
        assert np.array_equal(t.array, np.arange(6.0).reshape(2, 3))

    def test_rejects_zero_dims(self):
        with pytest.raises(ArgumentError):
            Tensor((0,), np.array([], dtype=np.float64))

    def test_rejects_nonfinite(self):
        with pytest.raises(ArgumentError):
            Tensor.from_array(np.array([1.0, np.inf]))
        with pytest.raises(ArgumentError):
            Tensor.from_array(np.array([np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ArgumentError):
            Tensor((2, 2), np.zeros(3))

    def test_no_aliasing_with_source(self):
        src = np.ones(4)
        t = Tensor.from_array(src)
        src[0] = 99.0
        assert t.data[0] == 1.0

    def test_data_is_readonly(self):
        t = Tensor.from_array(np.ones(4))
        with pytest.raises(ValueError):
            t.data[0] = 2.0
        with pytest.raises(ValueError):
            t.array[0] = 2.0


class TestParameterSet:
    def test_lexicographic_iteration(self):
        ps = make_set({"b": (np.ones(1), True), "a": (np.ones(1), False), "a.b": (np.ones(1), True)})
        assert ps.names() == ["a", "a.b", "b"]

    def test_duplicate_name_rejected(self):
        t = Tensor.from_array(np.ones(1))
        with pytest.raises(ArgumentError):
            ParameterSet([("x", t, True), ("x", t, False)])

    def test_immutable(self):
        ps = make_set({"a": (np.ones(1), True)})
        with pytest.raises(AttributeError):
            ps._entries = {}

    def test_missing_entry_is_argument_error(self):
        ps = make_set({"a": (np.ones(1), True)})
        with pytest.raises(ArgumentError):
            ps.tensor("zz")

    def test_pickle_round_trip(self):
        ps = random_set(np.random.default_rng(3))
        back = pickle.loads(pickle.dumps(ps))
        assert back == ps
        assert [back.trainable(n) for n in back.names()] == [ps.trainable(n) for n in ps.names()]
        with pytest.raises(ValueError):
            back.tensor(back.names()[0]).data[0] = 1.0  # read-only again


class TestSubtractTrainable:
    def test_matches_elementwise_oracle(self):
        # oracle: plain per-element loop over the trainable entries
        rng = np.random.default_rng(7)
        local = random_set(rng)
        glob = ParameterSet(
            [(n, Tensor.from_array(rng.standard_normal(t.shape)), f) for n, t, f in local.items()]
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
            assert np.array_equal(t.array, expected)

    def test_self_minus_self_is_zero(self):
        rng = np.random.default_rng(8)
        ps = random_set(rng)
        delta = subtract_trainable(ps, ps)
        for _, t, _ in delta.items():
            assert np.all(t.data == 0.0)

    def test_names_first_mismatch(self):
        a = make_set({"a": (np.ones(1), True), "c": (np.ones(1), True)})
        b = make_set({"a": (np.ones(1), True), "b": (np.ones(1), True)})
        with pytest.raises(StructureError, match="'b'"):
            subtract_trainable(a, b)

    def test_shape_mismatch_names_entry(self):
        a = make_set({"w": (np.ones((2, 2)), True)})
        b = make_set({"w": (np.ones((2, 3)), True)})
        with pytest.raises(StructureError, match="'w'"):
            subtract_trainable(a, b)

    def test_flag_mismatch_rejected(self):
        a = make_set({"w": (np.ones(2), True)})
        b = make_set({"w": (np.ones(2), False)})
        with pytest.raises(StructureError):
            subtract_trainable(a, b)


class TestAddDelta:
    def test_add_then_subtract_round_trip(self):
        rng = np.random.default_rng(9)
        base = random_set(rng)
        delta = ParameterSet(
            [(n, Tensor.from_array(rng.standard_normal(t.shape)), True)
             for n, t, f in base.items() if f]
        )
        bumped = add_delta(base, delta)
        back = subtract_trainable(bumped, base)
        for name, t, _ in back.items():
            # (b + d) - b cancels to d only up to float rounding
            assert np.allclose(t.data, delta.tensor(name).data, rtol=1e-12, atol=1e-12)

    def test_frozen_entries_identical_objects(self):
        rng = np.random.default_rng(10)
        base = random_set(rng)
        delta = subtract_trainable(base, base)
        out = add_delta(base, delta)
        for name, t, flag in base.items():
            if not flag:
                assert out.tensor(name) is t

    def test_unknown_delta_entry(self):
        base = make_set({"a": (np.ones(1), True)})
        delta = make_set({"zz": (np.ones(1), True)})
        with pytest.raises(StructureError, match="'zz'"):
            add_delta(base, delta)

    def test_delta_on_frozen_entry_rejected(self):
        base = make_set({"a": (np.ones(1), False)})
        delta = make_set({"a": (np.ones(1), True)})
        with pytest.raises(StructureError, match="'a'"):
            add_delta(base, delta)


class TestScaleAndNorm:
    def test_l2_norm_oracle(self):
        # oracle: accumulate sqrt(sum of squares) by explicit loop
        rng = np.random.default_rng(13)
        ps = random_set(rng)
        total = 0.0
        for name, t, flag in ps.items():
            if flag:
                for v in t.data:
                    total += v * v
        assert math.isclose(l2_norm(ps), math.sqrt(total), rel_tol=1e-12)

    def test_l2_norm_ignores_frozen(self):
        ps = make_set({"a": (np.full(3, 2.0), True), "b": (np.full(100, 9.0), False)})
        assert math.isclose(l2_norm(ps), math.sqrt(12.0), rel_tol=1e-12)


class TestWeightedSum:
    def test_uniform_mean_oracle(self):
        rng = np.random.default_rng(14)
        sets = [random_set(rng, all_trainable=True) for _ in range(3)]
        sets = [sets[0]] + [
            ParameterSet(
                [(n, Tensor.from_array(rng.standard_normal(t.shape)), f)
                 for n, t, f in sets[0].items()]
            )
            for _ in range(2)
        ]
        out = weighted_sum(sets, [1 / 3] * 3)
        for name, t, _ in out.items():
            stack = np.stack([s.array(name) for s in sets])
            assert np.allclose(t.array, stack.mean(axis=0), rtol=1e-12, atol=0)

    def test_weight_count_mismatch(self):
        ps = make_set({"a": (np.ones(1), True)})
        with pytest.raises(ArgumentError):
            weighted_sum([ps, ps], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            weighted_sum([], [])


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
        entries_a.append((f"e{i}", Tensor.from_array(np.array(a)), flag))
        entries_b.append((f"e{i}", Tensor.from_array(np.array(b)), flag))
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
            assert np.allclose(rebuilt.array(name), t.array, rtol=1e-12, atol=1e-9)
        else:
            assert rebuilt.tensor(name) is glob.tensor(name)
