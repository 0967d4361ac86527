import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltafed.errors import ArgumentError, FormatError
from deltafed.quant import (
    QuantizedTensor,
    dequantize,
    from_bytes,
    packed_size,
    quantize,
    to_bytes,
)

F32_MAX = float(np.finfo(np.float32).max)


# -- reference oracle --------------------------------------------------------
# The codec as first written: one block at a time, in plain Python. The
# whole-array codec must match its bytes, except for a constant block beyond
# f32, which the oracle silently decodes to 0 (TestWideConstant).


def _oracle_block(x):
    mn = float(x.min())
    mx = float(x.max())
    if mn == mx:
        c = mn
        if c == 0.0:
            return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)
        with np.errstate(over="ignore"):
            scale = np.float32(abs(c))
        if not np.isfinite(scale) or scale == 0.0:
            return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)
        if c > 0:
            return scale, 0, np.ones(x.size, dtype=np.uint8)
        return scale, 1, np.zeros(x.size, dtype=np.uint8)
    rmin = min(mn, 0.0)
    rmax = max(mx, 0.0)
    rng = rmax - rmin
    with np.errstate(over="ignore"):
        scale = np.float32(rng / 15)
    if float(scale) * 15 < rng:
        scale = np.nextafter(scale, np.float32(np.inf))
    if not np.isfinite(scale):
        raise ArgumentError("block range exceeds the 4-bit codec's f32 scale")
    if scale == 0.0:
        return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)
    s = float(scale)
    zp = int(np.ceil(-rmin / s - 0.5))
    zp = min(max(zp, 0), 15)
    q = np.floor(x / s + zp + 0.5)
    return scale, zp, np.clip(q, 0, 15).astype(np.uint8)


def oracle_bytes(x):
    """to_bytes(quantize(x)) of the per-block codec, block 64."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ArgumentError("cannot quantize non-finite values")
    parts = [struct.pack("<I", flat.size)]
    codes = []
    for lo in range(0, flat.size, 64):
        s, z, q = _oracle_block(flat[lo : lo + 64])
        parts.append(struct.pack("<fB3x", float(s), z))
        codes.extend(int(c) for c in q)
    if len(codes) % 2:
        codes.append(0)
    parts.append(bytes(codes[i] | (codes[i + 1] << 4) for i in range(0, len(codes), 2)))
    return b"".join(parts)


def oracle_from_bytes(data, shape):
    """-> (scales, zero points, codes) as lists; raises what from_bytes must."""
    if len(data) < 4:
        raise FormatError(f"quantized payload truncated: {len(data)} bytes")
    (n,) = struct.unpack_from("<I", data, 0)
    expect = math.prod(shape) if shape else 0
    if n != expect:
        raise FormatError(f"quantized payload says {n} elements, shape wants {expect}")
    if len(data) != packed_size(n):
        raise FormatError(f"quantized payload is {len(data)} bytes, expected {packed_size(n)}")
    scales, zps = [], []
    off = 4
    for i in range(-(-n // 64)):
        s, z = struct.unpack_from("<fB", data, off)
        if data[off + 5 : off + 8] != b"\x00\x00\x00":
            raise FormatError("nonzero padding in quantized block header")
        if not (s > 0) or not np.isfinite(s):
            raise FormatError(f"block {i}: scale must be positive finite, got {s}")
        if z > 15:
            raise FormatError(f"block {i}: zero point {z} out of range")
        scales.append(s)
        zps.append(z)
        off += 8
    codes = []
    for b in data[off:]:
        codes += [b & 0x0F, b >> 4]
    if n % 2 and codes[n] != 0:
        raise FormatError("nonzero padding nibble in quantized codes")
    return scales, zps, codes[:n]


def verdict(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ArgumentError, FormatError) as e:
        return (type(e).__name__, str(e))


def roundtrip(arr):
    return dequantize(quantize(np.asarray(arr, dtype=np.float64)))


class TestExactCases:
    @pytest.mark.parametrize("c", [0.0, 3.25, -7.5, 1.0, -0.125, 1024.0])
    def test_constant_tensor_round_trips_exactly(self, c):
        # f32-representable constants; zero range per block
        arr = np.full(130, c)
        assert np.array_equal(roundtrip(arr), arr)

    def test_lattice_block_0_to_15(self):
        arr = np.array([0.0, 15.0, 7.0, 1.0])
        q = quantize(arr)
        assert sorted(set(q.codes.tolist())) == [0, 1, 7, 15]
        assert float(q.scales[0]) == 1.0
        assert int(q.zero_points[0]) == 0
        assert np.array_equal(dequantize(q), arr)

    def test_empty_array(self):
        out = roundtrip(np.array([]))
        assert out.size == 0
        q = quantize(np.array([]))
        assert to_bytes(q) == b"\x00\x00\x00\x00"
        back = from_bytes(b"\x00\x00\x00\x00", (0,))
        assert back.n == 0


class TestErrorBound:
    def test_random_blocks_within_half_step(self):
        # 10_000 uniform blocks; bound is (max-min)/30 plus float slack
        rng = np.random.default_rng(20240131)
        worst = 0.0
        for _ in range(10_000):
            arr = rng.uniform(-1.0, 1.0, size=64)
            err = np.abs(roundtrip(arr) - arr).max()
            bound = (arr.max() - arr.min()) / 30 + 1e-7
            assert err <= bound
            worst = max(worst, err / bound)
        assert worst <= 1.0

    def test_scales_always_positive(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            arr = rng.standard_normal(rng.integers(1, 200)) * 10.0 ** float(rng.integers(-6, 4))
            q = quantize(arr)
            assert np.all(q.scales > 0)
            assert np.all(q.zero_points <= 15)


class TestIdempotence:
    def test_second_round_trip_exact(self):
        rng = np.random.default_rng(77)
        for i in range(1_000):
            n = int(rng.integers(1, 180))
            arr = rng.uniform(-3, 3, size=n) * 10 ** float(rng.integers(-3, 3))
            once = roundtrip(arr)
            twice = roundtrip(once)
            assert np.array_equal(once, twice), f"case {i}"

    def test_lattice_values_are_fixpoints(self):
        # hand-built grid: scale 0.25, zp 3 -> values 0.25*(k-3)
        vals = 0.25 * (np.arange(16.0) - 3.0)
        assert np.array_equal(roundtrip(vals), vals)


class TestLayout:
    def test_packed_size_formula(self):
        for n in [0, 1, 2, 63, 64, 65, 128, 1000, 1024, 4096]:
            n_blocks = -(-n // 64) if n else 0
            assert packed_size(n) == 4 + 8 * n_blocks + (n + 1) // 2

    def test_compression_ratio_bound(self):
        # against plain f32 payloads the 4-bit form stays under 0.16 for n >= 1024
        for n in [1024, 1025, 1089, 4096, 65536]:
            ratio = packed_size(n) / (4 * n)
            assert ratio <= 0.16
        assert packed_size(1024) == 644  # 4 + 8*16 + 512

    def test_nibble_order_low_first(self):
        # codes [0,15,7,1] at scale 1 zp 0 -> bytes f0 17
        q = quantize(np.array([0.0, 15.0, 7.0, 1.0]))
        raw = to_bytes(q)
        assert raw[:4] == b"\x04\x00\x00\x00"
        assert raw[4:8] == np.float32(1.0).tobytes()
        assert raw[8] == 0  # zero point
        assert raw[9:12] == b"\x00\x00\x00"
        assert raw[12] == 0x00 | (15 << 4)
        assert raw[13] == 0x07 | (1 << 4)

    def test_bytes_round_trip(self):
        rng = np.random.default_rng(5)
        for n in [1, 2, 63, 64, 65, 129, 500]:
            arr = rng.uniform(-2, 2, size=n)
            q = quantize(arr)
            back = from_bytes(to_bytes(q), (n,))
            assert np.array_equal(back.codes, q.codes)
            assert np.array_equal(back.scales, q.scales)
            assert np.array_equal(back.zero_points, q.zero_points)
            assert np.array_equal(dequantize(back), dequantize(q))

    def test_odd_length_pad_nibble_zero(self):
        q = quantize(np.array([1.0, 2.0, 3.0]))
        raw = to_bytes(q)
        assert raw[-1] >> 4 == 0


class TestOutOfRangeNibbles:
    """to_bytes refuses what the wire cannot hold, instead of keeping the low nibble."""

    def hand_built(self, zero_points, codes):
        n_blocks = -(-len(codes) // 64)
        return QuantizedTensor(
            (len(codes),),
            np.ones(n_blocks, dtype=np.float32),
            np.array(zero_points, dtype=np.uint8),
            np.array(codes, dtype=np.uint8),
        )

    def test_code_above_15_named(self):
        # codes [17, 3] used to serialize as [1, 3]
        with pytest.raises(ArgumentError, match=r"^block 0: code 17 out of range$"):
            to_bytes(self.hand_built([0], [17, 3]))

    def test_zero_point_above_15_named(self):
        with pytest.raises(ArgumentError, match=r"^block 0: zero point 16 out of range$"):
            to_bytes(self.hand_built([16], [1, 3]))

    def test_first_bad_block_named(self):
        codes = [1] * 64 + [2] * 64 + [40] + [3] * 63
        with pytest.raises(ArgumentError, match=r"^block 1: zero point 99 out of range$"):
            to_bytes(self.hand_built([0, 99, 0], codes))
        with pytest.raises(ArgumentError, match=r"^block 2: code 40 out of range$"):
            to_bytes(self.hand_built([0, 0, 0], codes))

    def test_in_range_codes_pass(self):
        q = self.hand_built([15], [0, 15, 7])
        assert np.array_equal(from_bytes(to_bytes(q), (3,)).codes, q.codes)


class TestFormatErrors:
    def good(self):
        return to_bytes(quantize(np.arange(10.0)))

    def test_truncated(self):
        with pytest.raises(FormatError):
            from_bytes(self.good()[:-1], (10,))

    def test_wrong_count(self):
        with pytest.raises(FormatError):
            from_bytes(self.good(), (11,))

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            from_bytes(self.good() + b"\x00", (10,))

    def test_nonzero_header_pad(self):
        raw = bytearray(self.good())
        raw[9] = 1  # first pad byte of the block header
        with pytest.raises(FormatError):
            from_bytes(bytes(raw), (10,))

    def test_bad_scale(self):
        raw = bytearray(self.good())
        raw[4:8] = np.float32(0.0).tobytes()
        with pytest.raises(FormatError):
            from_bytes(bytes(raw), (10,))

    def test_nonzero_pad_nibble(self):
        raw = bytearray(to_bytes(quantize(np.array([1.0, 2.0, 3.0]))))
        raw[-1] |= 0xF0
        with pytest.raises(FormatError):
            from_bytes(bytes(raw), (3,))


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=80),
        elements=st.floats(-25, 25, allow_nan=False, width=64),
    )
)
def test_error_bound_property(arr):
    out = roundtrip(arr)
    flat = arr.reshape(-1)
    dec = out.reshape(-1)
    for i in range(0, flat.size, 64):
        blk = flat[i : i + 64]
        # grid must contain 0, so the effective range is nudged to include it
        lo, hi = min(blk.min(), 0.0), max(blk.max(), 0.0)
        bound = (hi - lo) / 30 + 1e-7
        assert np.abs(dec[i : i + 64] - blk).max() <= bound
        if blk.min() <= 0.0 <= blk.max():
            strict = (blk.max() - blk.min()) / 30 + 1e-7
            assert np.abs(dec[i : i + 64] - blk).max() <= strict


# -- the whole-array codec against the oracle --------------------------------

BLOCK_KINDS = ["free", "free", "constant", "zero", "lattice", "subnormal"]


@st.composite
def codec_arrays(draw):
    """Arrays of up to ~100 blocks with a ragged tail; each block is free,
    constant, zero, a quarter-step lattice or subnormal, at magnitudes from
    f64 subnormal up to 1e38 (below f32 max, so no constant overflows)."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=80))
    n = math.prod(shape)
    mag = draw(st.sampled_from([1e-310, 1e-40, 1e-6, 1.0, 1e6, 1e30, 1e38]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.uniform(-1.0, 1.0, n) * mag
    for lo in range(0, n, 64):
        blk = flat[lo : lo + 64]
        kind = draw(st.sampled_from(BLOCK_KINDS))
        if kind == "constant":
            blk[:] = blk[0]
        elif kind == "zero":
            blk[:] = 0.0
        elif kind == "lattice":
            blk[:] = 0.25 * (rng.integers(0, 16, blk.size) - rng.integers(0, 16))
        elif kind == "subnormal":
            blk[:] = rng.integers(-3, 4, blk.size) * 5e-324
    return flat.reshape(shape)


@settings(max_examples=300, deadline=None)
@given(codec_arrays())
def test_bytes_match_oracle(arr):
    assert to_bytes(quantize(arr)) == oracle_bytes(arr)


class TestOracleEdges:
    @pytest.mark.parametrize(
        "arr",
        [
            np.array([F32_MAX, -F32_MAX]),
            np.array([1e38, 1e-45, -5e-324]),
            np.full(65, 3e38),
            np.array([5e-324] * 64 + [-5e-324]),
            np.array([0.0, -0.0, 0.0]),
            np.array([-1e-46, 1e-46]),
            np.linspace(-1.0, 1.0, 129).reshape(3, 43),
        ],
    )
    def test_edge_arrays_match_oracle(self, arr):
        assert to_bytes(quantize(arr)) == oracle_bytes(arr)

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([1e308, -1e308]),
            np.array([1.0, np.nan]),
            np.array([0.0] * 64 + [np.inf]),
        ],
    )
    def test_errors_match_oracle(self, arr):
        assert verdict(quantize, arr)[0] != "ok"
        assert verdict(quantize, arr) == verdict(oracle_bytes, arr)


class TestWideConstant:
    """A constant block beyond f32 is fitted like any other block."""

    @pytest.mark.parametrize("c", [5e38, -5e38, 3.5e38, 4e39])
    def test_decodes_within_half_step(self, c):
        arr = np.full(3, c)
        out = dequantize(quantize(arr))
        assert np.all(np.abs(out - arr) <= abs(c) / 30)
        assert oracle_from_bytes(oracle_bytes(arr), (3,))[0] == [1.0]  # was 0

    def test_matches_an_almost_constant_block(self):
        wide = np.full(2, 5e38)
        almost = np.array([5e38, 5e38 + 1e30])
        assert np.array_equal(dequantize(quantize(wide)), dequantize(quantize(almost)))

    def test_beyond_f32_scale_raises(self):
        with pytest.raises(ArgumentError, match="f32 scale"):
            quantize(np.full(3, 1e300))


class TestCorruption:
    """Corrupted payloads get the oracle's verdict and message."""

    ARR = np.random.default_rng(3).uniform(-2.0, 2.0, 4 * 64 + 5)  # 5 blocks, odd n

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 4 + 5 * 8 - 1), st.integers(0, 175)),
                st.integers(1, 255),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_flipped_bytes_match_oracle(self, flips):
        raw = bytearray(to_bytes(quantize(self.ARR)))
        for off, mask in flips:
            raw[off % len(raw)] ^= mask
        data = bytes(raw)
        want = verdict(oracle_from_bytes, data, self.ARR.shape)
        got = verdict(from_bytes, data, self.ARR.shape)
        if want[0] == "ok":
            q = got[1]
            assert got[0] == "ok"
            assert [float(s) for s in q.scales] == want[1][0]
            assert q.zero_points.tolist() == want[1][1]
            assert q.codes.tolist() == want[1][2]
        else:
            assert got == want

    def test_first_bad_block_is_named(self):
        good = to_bytes(quantize(self.ARR))
        raw = bytearray(good)
        h1, h3 = 4 + 8 * 1, 4 + 8 * 3  # block headers follow the u32 count
        raw[h3 + 4] = 16                                  # block 3: zero point
        raw[h1 : h1 + 4] = np.float32(-1.0).tobytes()    # block 1: scale
        with pytest.raises(FormatError, match=r"^block 1: scale must be positive finite, got -1.0$"):
            from_bytes(bytes(raw), self.ARR.shape)
        raw[h1 + 6] = 1                                   # block 1: pad, checked first
        with pytest.raises(FormatError, match="nonzero padding in quantized block header"):
            from_bytes(bytes(raw), self.ARR.shape)
        raw[h1 : h1 + 8] = good[h1 : h1 + 8]
        with pytest.raises(FormatError, match=r"^block 3: zero point 16 out of range$"):
            from_bytes(bytes(raw), self.ARR.shape)


OVERFLOW_EDGES = [
    np.array([F32_MAX, -F32_MAX]),
    np.full(3, 5e38),
    np.array([5e38, 5e38 + 1e30]),
    np.array([1e308, -1e308]),
    np.full(3, 1e300),
    np.array([3e38] * 64 + [1e-45]),
    np.array([5e-324, -5e-324, 1e-310]),
    np.full(2, 1e-50),
]


def test_codec_emits_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr in OVERFLOW_EDGES:
            try:
                q = quantize(arr)
            except ArgumentError:
                continue
            back = from_bytes(to_bytes(q), arr.shape)
            assert np.all(np.isfinite(dequantize(back)))
