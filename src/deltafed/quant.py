"""Blockwise 4-bit affine quantization for wire payloads.

Values are split into blocks (64 by default). Each block stores an f32 scale
and a 4-bit integer zero point; a stored code decodes to scale * (code - zp).
That grid always contains 0, so the block range is nudged to include 0 before
fitting (deltas and centered weights already do). Rounding is chosen so that
quantizing already-decoded values reproduces the codes exactly: the zero
point rounds half down, codes round half up, and the nudged range endpoints
then always land on codes 0 and 15.

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

DEFAULT_BLOCK = 64
_LEVELS = 15  # codes span 0..15


@dataclass(frozen=True)
class QuantizedTensor:
    shape: tuple[int, ...]
    block: int
    scales: np.ndarray       # f32, one per block
    zero_points: np.ndarray  # uint8, one per block
    codes: np.ndarray        # uint8, unpacked, one per element

    @property
    def n(self) -> int:
        return int(self.codes.size)


def _quantize_block(x: np.ndarray) -> tuple[np.float32, int, np.ndarray]:
    mn = float(x.min())
    mx = float(x.max())

    if mn == mx:
        c = mn
        if c == 0.0:
            return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)
        scale = np.float32(abs(c))
        if not np.isfinite(scale) or scale == 0.0:
            # magnitude outside f32: decode to 0, error below any usable scale
            return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)
        if c > 0:
            return scale, 0, np.ones(x.size, dtype=np.uint8)
        return scale, 1, np.zeros(x.size, dtype=np.uint8)

    rmin = min(mn, 0.0)
    rmax = max(mx, 0.0)
    rng = rmax - rmin
    scale = np.float32(rng / _LEVELS)
    if float(scale) * _LEVELS < rng:
        # the f32 cast rounded down; widen one ulp so the grid covers the
        # whole range and no code ever clamps past the half-step bound
        scale = np.nextafter(scale, np.float32(np.inf))
    if not np.isfinite(scale):
        raise ArgumentError("block range exceeds the 4-bit codec's f32 scale")
    if scale == 0.0:
        # range is subnormal; everything is within float dust of zero
        return np.float32(1.0), 0, np.zeros(x.size, dtype=np.uint8)

    s = float(scale)
    zp = int(np.ceil(-rmin / s - 0.5))  # half rounds down
    zp = min(max(zp, 0), _LEVELS)
    q = np.floor(x / s + zp + 0.5)      # half rounds up
    q = np.clip(q, 0, _LEVELS).astype(np.uint8)
    return scale, zp, q


def quantize(t, block: int = DEFAULT_BLOCK) -> QuantizedTensor:
    """Quantize a Tensor or array to 4-bit blocks."""
    if block < 1:
        raise ArgumentError(f"block size must be >= 1, got {block}")
    if isinstance(t, Tensor):
        arr = t.array
    else:
        arr = np.asarray(t, dtype=np.float64)
    flat = arr.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ArgumentError("cannot quantize non-finite values")

    n = flat.size
    n_blocks = -(-n // block) if n else 0
    scales = np.empty(n_blocks, dtype=np.float32)
    zps = np.empty(n_blocks, dtype=np.uint8)
    codes = np.empty(n, dtype=np.uint8)
    for i in range(n_blocks):
        lo, hi = i * block, min((i + 1) * block, n)
        s, z, q = _quantize_block(flat[lo:hi])
        scales[i] = s
        zps[i] = z
        codes[lo:hi] = q
    scales.setflags(write=False)
    zps.setflags(write=False)
    codes.setflags(write=False)
    return QuantizedTensor(tuple(int(d) for d in arr.shape), block, scales, zps, codes)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Decode to float64, shaped like the original."""
    out = np.empty(q.n, dtype=np.float64)
    for i in range(q.scales.size):
        lo, hi = i * q.block, min((i + 1) * q.block, q.n)
        s = float(q.scales[i])
        out[lo:hi] = s * (q.codes[lo:hi].astype(np.float64) - float(q.zero_points[i]))
    return out.reshape(q.shape)


def packed_size(n: int, block: int = DEFAULT_BLOCK) -> int:
    """Serialized byte count for n elements: u32 header + block headers + nibbles."""
    n_blocks = -(-n // block) if n else 0
    return 4 + 8 * n_blocks + (n + 1) // 2


def to_bytes(q: QuantizedTensor) -> bytes:
    if q.block != DEFAULT_BLOCK:
        raise ArgumentError(f"wire format is fixed to block {DEFAULT_BLOCK}, got {q.block}")
    parts = [struct.pack("<I", q.n)]
    for i in range(q.scales.size):
        parts.append(struct.pack("<fB3x", float(q.scales[i]), int(q.zero_points[i])))
    padded = q.codes
    if q.n % 2:
        padded = np.concatenate([q.codes, np.zeros(1, dtype=np.uint8)])
    pairs = padded.reshape(-1, 2)
    parts.append((pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8).tobytes())
    return b"".join(parts)


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
    n_blocks = -(-n // DEFAULT_BLOCK) if n else 0
    scales = np.empty(n_blocks, dtype=np.float32)
    zps = np.empty(n_blocks, dtype=np.uint8)
    off = 4
    for i in range(n_blocks):
        s, z = struct.unpack_from("<fB", data, off)
        pad = data[off + 5 : off + 8]
        if pad != b"\x00\x00\x00":
            raise FormatError("nonzero padding in quantized block header")
        if not (s > 0) or not np.isfinite(s):
            raise FormatError(f"block {i}: scale must be positive finite, got {s}")
        if z > _LEVELS:
            raise FormatError(f"block {i}: zero point {z} out of range")
        scales[i] = s
        zps[i] = z
        off += 8
    raw = np.frombuffer(data, dtype=np.uint8, offset=off)
    lows = raw & 0x0F
    highs = raw >> 4
    codes = np.empty(raw.size * 2, dtype=np.uint8)
    codes[0::2] = lows
    codes[1::2] = highs
    if n % 2 and codes.size and codes[n] != 0:
        raise FormatError("nonzero padding nibble in quantized codes")
    codes = codes[:n].copy()
    scales.setflags(write=False)
    zps.setflags(write=False)
    codes.setflags(write=False)
    return QuantizedTensor(tuple(shape), DEFAULT_BLOCK, scales, zps, codes)
