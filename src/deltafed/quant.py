"""Blockwise 4-bit affine quantization for wire payloads.

Values are split into blocks of BLOCK = 64. Each block stores an f32 scale
and a 4-bit integer zero point; a stored code decodes to scale * (code - zp).
That grid always contains 0, so the block range is nudged to include 0 before
fitting (deltas and centered weights already do). Rounding is chosen so that
quantizing already-decoded values reproduces the codes exactly: the zero
point rounds half down, codes round half up, and the nudged range endpoints
then always land on codes 0 and 15.

The codec works on whole arrays, not block by block: per-block minima and
maxima come from one `reduceat` over the block starts, scales and zero points
are per-block arrays, and `np.repeat` expands them to one value per element.
The last block may be shorter than the rest; `reduceat` and `np.repeat` take
it as it is, with no padding. A constant block of value c stores the f32 cast
of |c| as its scale, so it decodes exactly; a constant beyond the f32 range is
fitted like any other block.

Byte layout, little-endian:
    [u32 n_elements]
    [per block: f32 scale, u8 zero_point, 3 zero bytes]
    [codes packed two per byte, low nibble first]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError
from .params import Tensor

BLOCK = 64
_LEVELS = 15  # codes span 0..15
_HEADER = np.dtype([("scale", "<f4"), ("zp", "u1"), ("pad", "V3")])
_NO_PAD = np.void(b"\x00\x00\x00")


@dataclass(frozen=True)
class QuantizedTensor:
    shape: tuple[int, ...]
    scales: np.ndarray       # f32, one per block
    zero_points: np.ndarray  # uint8, one per block
    codes: np.ndarray        # uint8, unpacked, one per element

    @property
    def n(self) -> int:
        return int(self.codes.size)


def _block_sizes(n: int) -> np.ndarray:
    """Elements per block; only the last may be short."""
    sizes = np.full(-(-n // BLOCK), BLOCK, dtype=np.intp)
    if sizes.size:
        sizes[-1] = n - BLOCK * (sizes.size - 1)
    return sizes


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def quantize(t) -> QuantizedTensor:
    """Quantize a Tensor or array to 4-bit blocks."""
    if isinstance(t, Tensor):
        arr = t.array
    else:
        arr = np.asarray(t, dtype=np.float64)
    flat = arr.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ArgumentError("cannot quantize non-finite values")

    n = flat.size
    starts = np.arange(0, n, BLOCK)
    mn = np.minimum.reduceat(flat, starts)
    mx = np.maximum.reduceat(flat, starts)
    rmin = np.minimum(mn, 0.0)
    with np.errstate(over="ignore"):  # inf here raises or is routed below
        rng = np.maximum(mx, 0.0) - rmin
        scale = (rng / _LEVELS).astype(np.float32)
        const_scale = np.abs(mn).astype(np.float32)
    # the f32 cast rounded down; widen one ulp so the grid covers the whole
    # range and no code ever clamps past the half-step bound
    short = scale.astype(np.float64) * _LEVELS < rng
    scale[short] = np.nextafter(scale[short], np.float32(np.inf))

    # a constant block stores |c| as its scale and decodes exactly, unless
    # |c| is beyond f32: then it is fitted like any other block
    const = (mn == mx) & np.isfinite(const_scale)
    if not np.all(np.isfinite(scale[~const])):
        raise ArgumentError("block range exceeds the 4-bit codec's f32 scale")
    scale = np.where(const, const_scale, scale)
    # zero, or a value or range below f32: decode to 0, error below any
    # usable scale
    dust = scale == 0.0
    scale[dust] = 1.0

    # codes divide by the f64 step; a constant block divides by |c| itself,
    # so its codes are exactly 1 (c > 0, zp 0) or 0 (c < 0, zp 1)
    step = np.where(const & ~dust, np.abs(mn), scale)
    zps = np.ceil(-rmin / step - 0.5)  # half rounds down
    zps = np.clip(zps, 0, _LEVELS).astype(np.uint8)
    # x / s + zp + 0.5 in that order, with one f64 temporary per element;
    # the integer zero points are expanded as bytes and added exactly
    sizes = _block_sizes(n)
    q = np.repeat(step, sizes)
    np.divide(flat, q, out=q)
    q += np.repeat(zps, sizes)
    q += 0.5
    np.floor(q, out=q)                  # half rounds up
    np.clip(q, 0, _LEVELS, out=q)
    codes = q.astype(np.uint8)
    _frozen(scale, zps, codes)
    return QuantizedTensor(tuple(int(d) for d in arr.shape), scale, zps, codes)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Decode to float64, shaped like the original."""
    sizes = _block_sizes(q.n)
    # code - zp is a small integer, so s * (code - zp) is exact in f64
    offsets = q.codes.astype(np.int16) - np.repeat(q.zero_points.astype(np.int16), sizes)
    return (np.repeat(q.scales.astype(np.float64), sizes) * offsets).reshape(q.shape)


def packed_size(n: int) -> int:
    """Serialized byte count for n elements: u32 header + block headers + nibbles."""
    n_blocks = -(-n // BLOCK) if n else 0
    return 4 + 8 * n_blocks + (n + 1) // 2


def _check_nibbles(q: QuantizedTensor) -> None:
    """Raise ArgumentError naming the first block with a zero point or a code
    outside 0..15; the wire would keep only its low nibble."""
    zps, codes = np.asarray(q.zero_points), np.asarray(q.codes)
    bad_zp = (zps < 0) | (zps > _LEVELS)
    bad_code = (codes < 0) | (codes > _LEVELS)
    if not (bad_zp.any() or bad_code.any()):
        return
    zp_block = int(np.argmax(bad_zp)) if bad_zp.any() else zps.size
    code_at = int(np.argmax(bad_code)) if bad_code.any() else codes.size
    if zp_block <= code_at // BLOCK:
        raise ArgumentError(f"block {zp_block}: zero point {int(zps[zp_block])} out of range")
    raise ArgumentError(f"block {code_at // BLOCK}: code {int(codes[code_at])} out of range")


def to_bytes(q: QuantizedTensor) -> bytes:
    _check_nibbles(q)
    headers = np.zeros(q.scales.size, dtype=_HEADER)
    headers["scale"] = q.scales
    headers["zp"] = q.zero_points
    codes = q.codes
    if q.n % 2:
        codes = np.append(codes, np.uint8(0))
    nibbles = codes[0::2] | (codes[1::2] << 4)
    return struct.pack("<I", q.n) + headers.tobytes() + nibbles.astype(np.uint8).tobytes()


def from_bytes(data: bytes, shape: tuple[int, ...]) -> QuantizedTensor:
    if len(data) < 4:
        raise FormatError(f"quantized payload truncated: {len(data)} bytes")
    (n,) = struct.unpack_from("<I", data, 0)
    expect = int(np.prod(shape)) if shape else 0
    if n != expect:
        raise FormatError(f"quantized payload says {n} elements, shape wants {expect}")
    if len(data) != packed_size(n):
        raise FormatError(
            f"quantized payload is {len(data)} bytes, expected {packed_size(n)}"
        )
    n_blocks = -(-n // BLOCK) if n else 0
    headers = np.frombuffer(data, dtype=_HEADER, count=n_blocks, offset=4)
    scales = headers["scale"].astype(np.float32)
    zps = headers["zp"].astype(np.uint8)
    bad_pad = headers["pad"] != _NO_PAD
    bad_scale = ~(scales > 0) | ~np.isfinite(scales)
    bad_zp = zps > _LEVELS
    bad = bad_pad | bad_scale | bad_zp
    if bad.any():
        i = int(np.argmax(bad))  # the first bad block, checked in wire order
        if bad_pad[i]:
            raise FormatError("nonzero padding in quantized block header")
        if bad_scale[i]:
            raise FormatError(
                f"block {i}: scale must be positive finite, got {float(scales[i])}"
            )
        raise FormatError(f"block {i}: zero point {int(zps[i])} out of range")
    raw = np.frombuffer(data, dtype=np.uint8, offset=4 + 8 * n_blocks)
    codes = np.empty(raw.size * 2, dtype=np.uint8)
    codes[0::2] = raw & 0x0F
    codes[1::2] = raw >> 4
    if n % 2 and codes.size and codes[n] != 0:
        raise FormatError("nonzero padding nibble in quantized codes")
    codes = codes[:n].copy()
    _frozen(scales, zps, codes)
    return QuantizedTensor(tuple(shape), scales, zps, codes)
