import numpy as np
import pytest

from deltafed.aggregate import (
    ClientUpdate,
    fedavg_aggregate,
    gradualdiff_aggregate,
    mean_delta,
)
from deltafed.errors import ArgumentError, ProtocolError
from deltafed.params import ParameterSet, Tensor, subtract_trainable


def scalar_model(value, trainable=True):
    return ParameterSet({"w": (Tensor.from_array(np.array([value])), trainable)})


def random_set(rng, frozen_base=False):
    entries = {
        "a.W": (Tensor.from_array(rng.standard_normal((4, 3))), not frozen_base),
        "b.v": (Tensor.from_array(rng.standard_normal(5)), True),
    }
    return ParameterSet(entries)


def full(cid, params, n=1, rnd=1):
    return ClientUpdate(cid, rnd, n, "full", params)


def delta(cid, params, n=1, rnd=1, form="factors"):
    return ClientUpdate(cid, rnd, n, "delta", params, form=form)


class TestClientUpdate:
    def test_validation(self):
        p = scalar_model(1.0)
        with pytest.raises(ArgumentError):
            ClientUpdate(-1, 1, 1, "full", p)
        with pytest.raises(ArgumentError):
            ClientUpdate(0, 0, 1, "full", p)
        with pytest.raises(ArgumentError):
            ClientUpdate(0, 1, 0, "full", p)
        with pytest.raises(ArgumentError):
            ClientUpdate(0, 1, 1, "sideways", p)
        with pytest.raises(ArgumentError):
            ClientUpdate(0, 1, 1, "delta", p)  # missing form
        with pytest.raises(ArgumentError):
            ClientUpdate(0, 1, 1, "full", p, form="factors")


class TestFedavg:
    def test_single_client_identity(self):
        p = scalar_model(4.25)
        out = fedavg_aggregate([full(0, p)])
        assert out.array("w")[0] == 4.25

    def test_two_clients_weighted(self):
        out = fedavg_aggregate(
            [full(0, scalar_model(0.0), n=1), full(1, scalar_model(4.0), n=3)]
        )
        assert out.array("w")[0] == pytest.approx(3.0, abs=1e-15)

    def test_equal_counts_match_uniform_mean_oracle(self):
        rng = np.random.default_rng(3)
        sets = [random_set(rng) for _ in range(5)]
        out = fedavg_aggregate([full(i, s, n=7) for i, s in enumerate(sets)])
        for name in out.names():
            stack = np.stack([s.array(name) for s in sets])
            mean = np.zeros_like(stack[0])
            for row in stack:
                mean += row
            mean /= 5
            assert np.allclose(out.array(name), mean, atol=1e-12)

    def test_frozen_entries_copied_bitwise(self):
        rng = np.random.default_rng(4)
        base = random_set(rng, frozen_base=True)
        others = [
            base.replace_values({"b.v": rng.standard_normal(5)}) for _ in range(3)
        ]
        out = fedavg_aggregate([full(i, s) for i, s in enumerate(others)])
        assert np.shares_memory(out.array("a.W"), others[0].array("a.W"))
        assert out.array("a.W").tobytes() == others[0].array("a.W").tobytes()
        assert not out.trainable("a.W")

    def test_diverged_frozen_entries_rejected(self):
        rng = np.random.default_rng(5)
        a = random_set(rng, frozen_base=True)
        b = random_set(rng, frozen_base=True)  # different draw
        with pytest.raises(ProtocolError, match="frozen"):
            fedavg_aggregate([full(0, a), full(1, b)])

    def test_mixed_rounds_rejected(self):
        with pytest.raises(ProtocolError, match="rounds"):
            fedavg_aggregate(
                [full(0, scalar_model(1.0), rnd=1), full(1, scalar_model(2.0), rnd=2)]
            )

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ProtocolError):
            fedavg_aggregate(
                [full(0, scalar_model(1.0)), delta(1, scalar_model(0.0))]
            )

    def test_duplicate_client_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            fedavg_aggregate([full(2, scalar_model(1.0)), full(2, scalar_model(2.0))])

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            fedavg_aggregate([])


class TestGradualdiff:
    def test_k1_telescopes_to_local(self):
        rng = np.random.default_rng(6)
        g = random_set(rng)
        l = random_set(rng)
        out = gradualdiff_aggregate(g, [delta(0, subtract_trainable(l, g))])
        for name in g.names():
            assert np.allclose(out.array(name), l.array(name), atol=1e-12)

    def test_k1_dyadic_values_exact(self):
        # powers of two make the subtract/add round trip exact in binary fp
        g = scalar_model(0.5)
        l = scalar_model(2.25)
        out = gradualdiff_aggregate(g, [delta(0, subtract_trainable(l, g))])
        assert out.array("w")[0] == 2.25

    def test_zero_deltas_keep_global_bitwise(self):
        rng = np.random.default_rng(7)
        g = random_set(rng)
        zero = g.replace_values(
            {n: np.zeros(g.tensor(n).shape) for n in g.names()}
        )
        out = gradualdiff_aggregate(g, [delta(i, zero) for i in range(4)])
        for name in g.names():
            assert out.tensor(name).data.tobytes() == g.tensor(name).data.tobytes()

    def test_matches_fedavg_of_reconstructed_locals(self):
        rng = np.random.default_rng(8)
        for k in range(2, 9):
            g = random_set(rng)
            locals_ = [random_set(rng) for _ in range(k)]
            via_delta = gradualdiff_aggregate(
                g,
                [delta(i, subtract_trainable(l, g)) for i, l in enumerate(locals_)],
            )
            via_avg = fedavg_aggregate(
                [full(i, l, n=1) for i, l in enumerate(locals_)]
            )
            for name in g.names():
                a, b = via_delta.array(name), via_avg.array(name)
                assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_sample_weighting(self):
        g = scalar_model(0.0)
        d1 = delta(0, scalar_model(1.0), n=1)
        d2 = delta(1, scalar_model(4.0), n=3)
        out = gradualdiff_aggregate(g, [d1, d2], weighting="samples")
        assert out.array("w")[0] == pytest.approx(0.25 * 1.0 + 0.75 * 4.0, abs=1e-15)

    def test_unknown_weighting_rejected(self):
        g = scalar_model(0.0)
        with pytest.raises(ArgumentError):
            gradualdiff_aggregate(g, [delta(0, scalar_model(1.0))], weighting="mean")

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(9)
        g = random_set(rng)
        ds = [
            delta(i, subtract_trainable(random_set(rng), g), n=i + 1)
            for i in range(5)
        ]
        out1 = gradualdiff_aggregate(g, ds)
        out2 = gradualdiff_aggregate(g, list(reversed(ds)))
        for name in g.names():
            assert out1.tensor(name).data.tobytes() == out2.tensor(name).data.tobytes()

    def test_coverage_error_lists_missing_and_extra(self):
        rng = np.random.default_rng(10)
        g = random_set(rng)
        bad = ParameterSet(
            {"q.x": (Tensor.from_array(np.zeros(2)), True)}
        )
        with pytest.raises(ProtocolError) as exc:
            gradualdiff_aggregate(g, [delta(0, bad)])
        msg = str(exc.value)
        assert "a.W" in msg and "q.x" in msg

    def test_frozen_entries_untouched(self):
        rng = np.random.default_rng(11)
        g = random_set(rng, frozen_base=True)
        d = subtract_trainable(random_set(rng, frozen_base=True), g)
        out = gradualdiff_aggregate(g, [delta(0, d)])
        assert np.shares_memory(out.array("a.W"), g.array("a.W"))
        assert out.array("a.W").tobytes() == g.array("a.W").tobytes()


class TestMeanDelta:
    def test_uniform_mean(self):
        out = mean_delta([delta(0, scalar_model(2.0)), delta(1, scalar_model(4.0))])
        assert out.array("w")[0] == 3.0

    def test_mixed_forms_rejected(self):
        with pytest.raises(ProtocolError, match="forms"):
            mean_delta(
                [
                    delta(0, scalar_model(1.0), form="factors"),
                    delta(1, scalar_model(1.0), form="dense"),
                ]
            )
