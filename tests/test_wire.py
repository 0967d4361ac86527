import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltafed.errors import ArgumentError, FormatError
from deltafed.params import Layout, ParameterSet, pack
from deltafed.quant import dequantize, quantize
from deltafed.wire import (
    HEADER_LEN,
    KIND_DELTA_UPDATE,
    KIND_GLOBAL_BROADCAST,
    KIND_ROUND_ACK,
    KIND_SHUTDOWN,
    MAX_PAYLOAD_LEN,
    WireMessage,
    decode_message,
    deserialize_params,
    encode_message,
    parse_header,
    serialize_params,
    serialized_size,
)
from oracles import q4_payload
from test_quant import codec_arrays, verdict


def param_set(**arrays):
    return ParameterSet({k: (v, True) for k, v in arrays.items()})


class TestHeader:
    def test_every_kind_is_26_bytes_plus_payload(self):
        for kind in range(1, 6):
            msg = WireMessage(kind, 3, 7, payload=b"abc")
            assert len(encode_message(msg)) == HEADER_LEN + 3

    @pytest.mark.parametrize("rnd, sender", [(12, 4), (0xFFFFFFFF, 0xFFFFFFFF)])
    def test_round_trip_all_fields(self, rnd, sender):
        msg = WireMessage(KIND_DELTA_UPDATE, round=rnd, sender_id=sender, payload=b"\x01\x02")
        raw = encode_message(msg)
        assert raw[6:14] == struct.pack("<II", rnd, sender)
        assert decode_message(raw) == msg

    def test_header_bytes_frozen(self):
        raw = encode_message(WireMessage(KIND_ROUND_ACK, 0, 2))
        assert raw == b"GDFL" + bytes(
            [1, 4, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
        ) + b"\x00" * 8

    def test_bad_magic(self):
        raw = bytearray(encode_message(WireMessage(1, 1, 1)))
        raw[0] = ord("X")
        with pytest.raises(FormatError, match="magic"):
            decode_message(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(encode_message(WireMessage(1, 1, 1)))
        raw[4] = 9
        with pytest.raises(FormatError, match="version"):
            decode_message(bytes(raw))

    def test_bad_kind(self):
        raw = bytearray(encode_message(WireMessage(1, 1, 1)))
        raw[5] = 0
        with pytest.raises(FormatError, match="kind"):
            decode_message(bytes(raw))

    @pytest.mark.parametrize("offset", [14, 15, 16, 17])
    def test_nonzero_reserved_rejected(self, offset):
        raw = bytearray(encode_message(WireMessage(1, 1, 1)))
        raw[offset] = 1
        with pytest.raises(FormatError, match="^reserved header bytes must be zero$"):
            decode_message(bytes(raw))
        with pytest.raises(FormatError, match="^reserved header bytes must be zero$"):
            parse_header(bytes(raw))

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated"):
            decode_message(b"GDFL\x01")

    def test_length_mismatch(self):
        raw = encode_message(WireMessage(1, 1, 1, payload=b"abcd"))
        with pytest.raises(FormatError, match="length"):
            decode_message(raw[:-1])

    def test_declared_length_bounded(self):
        header = bytearray(encode_message(WireMessage(1, 1, 1)))
        header[HEADER_LEN - 8 :] = (MAX_PAYLOAD_LEN + 1).to_bytes(8, "little")
        with pytest.raises(FormatError, match=str(MAX_PAYLOAD_LEN + 1)):
            parse_header(bytes(header))
        with pytest.raises(FormatError, match=str(MAX_PAYLOAD_LEN + 1)):
            decode_message(bytes(header))
        header[HEADER_LEN - 8 :] = MAX_PAYLOAD_LEN.to_bytes(8, "little")
        assert parse_header(bytes(header))[-1] == MAX_PAYLOAD_LEN

    def test_parse_header_requires_exact_length(self):
        with pytest.raises(FormatError):
            parse_header(b"\x00" * 25)

    def test_field_range_validation(self):
        with pytest.raises(FormatError):
            WireMessage(6, 1, 1)
        with pytest.raises(FormatError):
            WireMessage(1, -1, 1)
        with pytest.raises(FormatError, match="^round 4294967296 out of u32 range$"):
            WireMessage(1, 2**32, 1)
        with pytest.raises(FormatError, match="^sender_id 4294967296 out of u32 range$"):
            WireMessage(1, 1, 2**32)


class TestSerializeParams:
    def test_empty_set_is_count_zero(self):
        assert serialize_params(ParameterSet([])) == b"\x00\x00\x00\x00"

    def test_single_2x2_entry_is_33_bytes(self):
        ps = param_set(w=[[1.0, 2.0], [3.0, 4.0]])
        raw = serialize_params(ps)
        assert len(raw) == 33
        expected = (
            struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"w"
            + bytes([0, 2])
            + struct.pack("<II", 2, 2)
            + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        )
        assert raw == expected

    def test_round_trip_within_f32_cast_error(self):
        rng = np.random.default_rng(2)
        ps = param_set(
            **{"emb.W": rng.standard_normal((6, 5)), "b": rng.standard_normal(4)}
        )
        out = deserialize_params(serialize_params(ps))
        for name in ps.names():
            a, b = ps.array(name), out.array(name)
            assert np.all(np.abs(a - b) <= np.abs(a) * 2.0**-24 + 1e-300)

    def test_second_round_trip_bitwise(self):
        rng = np.random.default_rng(3)
        ps = param_set(x=rng.standard_normal(17))
        once = deserialize_params(serialize_params(ps))
        twice = deserialize_params(serialize_params(once))
        assert once.array("x").tobytes() == twice.array("x").tobytes()

    def test_lexicographic_entry_order(self):
        ps = param_set(zz=[1.0], aa=[2.0], mm=[3.0])
        raw = serialize_params(ps)
        assert raw.index(b"aa") < raw.index(b"mm") < raw.index(b"zz")

    def test_trainable_subset(self):
        ps = ParameterSet(
            {
                "base": (np.zeros((3, 3)), False),
                "adapter": (np.ones(2), True),
            }
        )
        raw = serialize_params(ps, subset="trainable")
        out = deserialize_params(raw)
        assert out.names() == ["adapter"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(FormatError):
            serialize_params(param_set(w=[1.0]), subset="frozen")

    def test_serialized_size_rejects_unknown_subset(self):
        ps = param_set(w=np.zeros((5, 3)))
        for quantize_payload in (False, True):
            with pytest.raises(FormatError, match="^unknown subset 'bogus'$"):
                serialized_size(ps, "bogus", quantize_payload)

    def test_quantized_payload_round_trip(self):
        rng = np.random.default_rng(4)
        arr = rng.uniform(-1, 1, size=(16, 9))
        ps = param_set(w=arr)
        raw = serialize_params(ps, quantize_payload=True)
        out = deserialize_params(raw)
        expected = dequantize(quantize(np.ascontiguousarray(arr.reshape(-1))))
        assert np.array_equal(out.array("w").reshape(-1), expected)

    def test_quantized_smaller_than_f32(self):
        rng = np.random.default_rng(5)
        ps = param_set(w=rng.standard_normal((64, 64)))
        assert len(serialize_params(ps, quantize_payload=True)) < len(
            serialize_params(ps)
        ) / 6

    def test_serialized_size_formula(self):
        rng = np.random.default_rng(6)
        ps = ParameterSet(
            {
                "deep.name.W": (rng.standard_normal((7, 3)), True),
                "b": (rng.standard_normal(11), False),
            }
        )
        for subset in ("all", "trainable"):
            for q in (False, True):
                assert serialized_size(ps, subset, q) == len(
                    serialize_params(ps, subset, q)
                )

    def test_trainable_flags_from_argument(self):
        ps = param_set(a=[1.0], b=[2.0])
        out = deserialize_params(serialize_params(ps), trainable={"a"})
        assert out.trainable("a") and not out.trainable("b")
        out_all = deserialize_params(serialize_params(ps))
        assert out_all.trainable("a") and out_all.trainable("b")

    def test_oversized_name_rejected(self):
        ps = param_set(**{"x" * 65536: [1.0]})
        with pytest.raises(FormatError, match="65535"):
            serialize_params(ps)

    def test_oversized_rank_rejected(self):
        # numpy caps ndarrays at 64 dims, so build the layout directly
        layout = Layout(("w",), ((1,) * 256,), (True,))
        ps = ParameterSet.from_vectors(layout, np.zeros(1), np.zeros(0))
        with pytest.raises(FormatError, match="rank"):
            serialize_params(ps)

    def test_longest_name_round_trips(self):
        name = "x" * 65535
        raw = serialize_params(param_set(**{name: [1.0]}))
        assert raw[4:6] == b"\xff\xff"
        assert len(raw) == serialized_size(param_set(**{name: [1.0]}))
        assert deserialize_params(raw).names() == [name]

    def test_largest_rank_round_trips(self):
        shape = (2,) + (1,) * 254
        layout = Layout(("w",), (shape,), (True,))
        ps = ParameterSet.from_vectors(layout, np.array([1.0, -2.0]), np.zeros(0))
        raw = serialize_params(ps)
        assert raw[8] == 255  # count(4) + name_len(2) + name(1) + dtype(1) -> rank
        out = deserialize_params(raw)
        assert out.layout == layout
        assert out.trainable_flat.tolist() == [1.0, -2.0]


class TestDeserializeErrors:
    def good(self):
        return serialize_params(param_set(w=[[1.0, 2.0], [3.0, 4.0]]))

    def test_truncated_stream(self):
        raw = self.good()
        for cut in (2, 5, 8, 12, 20, len(raw) - 1):
            with pytest.raises(FormatError):
                deserialize_params(raw[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(FormatError, match="trailing"):
            deserialize_params(self.good() + b"\x00")

    def test_duplicate_names(self):
        one = self.good()[4:]
        raw = struct.pack("<I", 2) + one + one
        with pytest.raises(FormatError, match="duplicate"):
            deserialize_params(raw)

    def test_unknown_dtype(self):
        raw = bytearray(self.good())
        raw[7] = 7  # count(4) + name_len(2) + name(1) -> dtype offset 7
        with pytest.raises(FormatError, match="dtype"):
            deserialize_params(bytes(raw))

    def test_rank_zero(self):
        raw = struct.pack("<I", 1) + struct.pack("<H", 1) + b"w" + bytes([0, 0])
        with pytest.raises(FormatError, match="rank"):
            deserialize_params(raw)

    def test_zero_dim(self):
        raw = (
            struct.pack("<I", 1)
            + struct.pack("<H", 1)
            + b"w"
            + bytes([0, 1])
            + struct.pack("<I", 0)
        )
        with pytest.raises(FormatError, match="dimension"):
            deserialize_params(raw)

    def test_invalid_utf8_name(self):
        raw = (
            struct.pack("<I", 1)
            + struct.pack("<H", 2)
            + b"\xff\xfe"
            + bytes([0, 1])
            + struct.pack("<I", 1)
            + struct.pack("<f", 0.0)
        )
        with pytest.raises(FormatError, match="utf-8"):
            deserialize_params(raw)


    def test_nonfinite_f32_entry_named(self):
        raw = bytearray(self.good())
        for bad in (np.nan, np.inf, -np.inf):
            raw[-4:] = np.float32(bad).tobytes()  # last value of entry 'w'
            with pytest.raises(FormatError, match="entry 'w': non-finite"):
                deserialize_params(bytes(raw))


class TestRandomRoundTrips:
    def test_hundred_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n_entries = int(rng.integers(1, 5))
            entries = {}
            for i in range(n_entries):
                rank = int(rng.integers(1, 4))
                shape = tuple(int(rng.integers(1, 7)) for _ in range(rank))
                entries[f"e{i}.W"] = rng.standard_normal(shape)
            ps = param_set(**entries)
            out = deserialize_params(serialize_params(ps))
            assert out.names() == ps.names()
            for name in ps.names():
                assert out.array(name).shape == ps.array(name).shape
                a, b = ps.array(name), out.array(name)
                assert np.allclose(a, b, rtol=2.0**-23, atol=1e-300)


# -- 4-bit payloads against the per-entry oracle -----------------------------


@st.composite
def q4_sets(draw):
    """1-5 entries drawn with codec_arrays, each trainable or frozen."""
    names = draw(st.lists(st.text("abcdefgh.", min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    return ParameterSet([(name, draw(codec_arrays()), draw(st.booleans())) for name in names])


@given(q4_sets())
def test_q4_payload_matches_the_per_entry_oracle(ps):
    """One quantize per message writes the bytes of quantizing each entry
    on its own, for the whole set and for its trainable entries."""
    raw = serialize_params(ps, "all", quantize_payload=True)
    assert raw == q4_payload(ps)
    assert len(raw) == serialized_size(ps, "all", quantize_payload=True)
    if ps.layout.trainable_size:
        trainable = ps.trainable_subset()
        assert serialize_params(ps, "trainable", quantize_payload=True) == q4_payload(trainable)


def unchecked_set(entries):
    """A set over (name, shape, trainable, values) entries whose values are
    not checked for finiteness, as a set taking over read-only vectors is."""
    layout, trainable, frozen = pack(entries)
    for vec in (trainable, frozen):
        vec.setflags(write=False)
    return ParameterSet.from_vectors(layout, trainable, frozen)


class TestQ4Errors:
    @pytest.mark.parametrize(
        "values",
        [
            {"a": [1.0, np.nan], "b": [2.0]},
            {"a": [1.0, 2.0], "b": [np.inf] * 65},
            {"a": [1e308, -1e308], "b": [1.0]},
            {"a": [1e308, -1e308], "b": [np.nan]},  # a's range comes first
            {"a": [1.0] * 3, "b": [-np.inf, 1e308, -1e308]},  # b's values come first
            {"a": [np.nan], "b": [1e308, -1e308], "c": [1.0]},
        ],
    )
    @pytest.mark.parametrize("flags", [(True, True, True), (False, True, False)])
    def test_the_oracles_error_text(self, values, flags):
        ps = unchecked_set(
            (name, (len(v),), flag, np.array(v)) for (name, v), flag in zip(values.items(), flags)
        )
        want = verdict(q4_payload, ps)
        assert want[0] == "ArgumentError"
        assert verdict(serialize_params, ps, "all", True) == want

    def test_a_bad_name_comes_before_bad_values(self):
        """Every name and rank is checked before any value is quantized, so
        a bad name later in the payload wins over bad values earlier in it,
        where the per-entry oracle names the values first."""
        ps = unchecked_set([("a", (2,), True, np.array([1.0, np.nan])), ("b" * 65536, (1,), True, np.ones(1))])
        with pytest.raises(ArgumentError, match="non-finite"):
            q4_payload(ps)
        with pytest.raises(FormatError, match="exceeds 65535 bytes"):
            serialize_params(ps, quantize_payload=True)

    def test_a_bad_rank_comes_before_bad_values(self):
        ps = unchecked_set([("a", (2,), True, np.array([1e308, -1e308])), ("b", (1,) * 256, True, np.ones(1))])
        with pytest.raises(ArgumentError, match="f32 scale"):
            q4_payload(ps)
        with pytest.raises(FormatError, match="rank 256 exceeds 255"):
            serialize_params(ps, quantize_payload=True)
