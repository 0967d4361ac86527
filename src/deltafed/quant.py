"""Blockwise 4-bit affine quantization for wire payloads.

Values are split into blocks of BLOCK = 64. Each block stores an f32 scale
and a 4-bit integer zero point; a stored code decodes to scale * (code - zp).
That grid always contains 0, so the block range is nudged to include 0 before
fitting (deltas and centered weights already do). Rounding is chosen so that
quantizing already-decoded values reproduces the codes exactly: the zero
point rounds half down, codes round half up, and the nudged range endpoints
then always land on codes 0 and 15.

The codec works on a whole message's entries in one pass, not entry by
entry or block by block: `quantize` takes the entries end to end, and their
blocks restart at each entry's start, so each entry's last block may be
shorter than the rest. Per-block minima and maxima come from one `reduceat`
over the block starts, scales and zero points are per-block arrays, and
`np.repeat` expands them to one value per element, short blocks as they are,
with no padding. A single array is the one-entry case. A constant block of
value c stores the f32 cast of |c| as its scale, so it decodes exactly; a
constant beyond the f32 range is fitted like any other block.

Byte layout of one entry's record of n values in nb = ceil(n / 64)
blocks, little-endian; `to_bytes` writes the entries' records end to end:
    [f32 scale per block]
    [zero points, two per byte, low nibble first]
    [codes, two per byte, low nibble first]
A nibble run of odd count ends in a zero nibble. The record holds no count:
the entry header's dims give n, and n fixes its 4 nb + ceil(nb / 2) +
ceil(n / 2) bytes. A full block of 64 values takes 32 + 4 + 256 bits, 4.56
bits per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ArgumentError, FormatError

BLOCK = 64
_LEVELS = 15  # codes span 0..15


@dataclass(frozen=True)
class QuantizedTensor:
    shape: tuple[int, ...]
    scales: np.ndarray       # f32, one per block
    zero_points: np.ndarray  # uint8, one per block
    codes: np.ndarray        # uint8, unpacked, one per element
    entries: tuple[int, ...] = ()  # elements per entry, end to end; () is one entry

    @property
    def n(self) -> int:
        return int(self.codes.size)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.entries or (self.n,)


def _runs(sizes: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """(first element, first block, blocks, block length) of each run of
    equal blocks, the entries' blocks end to end: an entry's full blocks,
    then its short last block, if any."""
    runs, lo, b = [], 0, 0
    for n in sizes:
        for k, width in ((n // BLOCK, BLOCK), (1, n % BLOCK)):
            if k and width:
                runs.append((lo, b, k, width))
                lo, b = lo + k * width, b + k
    return runs


def _block_sizes(runs: list[tuple[int, int, int, int]]) -> np.ndarray:
    """Elements per block."""
    return np.repeat(np.array([w for *_, w in runs], dtype=np.intp), [k for _, _, k, _ in runs])


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _fit(flat: np.ndarray, runs: list[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """Each block's f32 scale, the f64 step its codes divide by, and its
    zero point; its other per-block arrays are gone by the time the codes
    take their one f64 temporary per element."""
    per_block = _block_sizes(runs)
    starts = np.cumsum(per_block) - per_block
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
    return scale, step, zps


def quantize(values, entries: tuple[int, ...] | None = None) -> QuantizedTensor:
    """Quantize an array to 4-bit blocks. `entries`, the element counts of
    the entries laid end to end in its flat values, restarts the blocks at
    each entry's start; by default the array is one entry. An error is the
    one the first entry holding one would raise alone."""
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.reshape(-1)
    n = flat.size
    sizes = (n,) if entries is None else tuple(entries)
    if sum(sizes) != n or min(sizes, default=0) < 0:
        raise ArgumentError(f"entries of {sizes} elements do not tile {n} values")
    if not np.all(np.isfinite(flat)):
        if len(sizes) > 1:  # the first entry's own error, range or value
            for entry in np.split(flat, np.cumsum(sizes[:-1])):
                quantize(entry)
        raise ArgumentError("cannot quantize non-finite values")

    runs = _runs(sizes)
    scale, step, zps = _fit(flat, runs)

    # x / s + zp + 0.5 in that order, with one f64 temporary per element;
    # each block's step and zero point are broadcast over its values
    q, zp = np.empty(n), zps.astype(np.float64)
    for lo, b, k, width in runs:
        x = q[lo : lo + k * width].reshape(k, width)
        np.divide(flat[lo : lo + k * width].reshape(k, width), step[b : b + k, None], out=x)
        x += zp[b : b + k, None]
    q += 0.5
    # half rounds up: the cast truncates, which is the floor on 0..15
    codes = np.clip(q, 0, _LEVELS, out=q).astype(np.uint8)
    _frozen(scale, zps, codes)
    shape = tuple(int(d) for d in arr.shape)
    return QuantizedTensor(shape, scale, zps, codes, () if entries is None else sizes)


def dequantize(q: QuantizedTensor, out: np.ndarray | None = None) -> np.ndarray:
    """Decode to float64, shaped like the original; into `out`, a flat
    float64 array of q.n values, when given. An entry's full blocks decode
    as one broadcast multiply, so no per-element copy of the scales is
    made."""
    out = np.empty(q.n) if out is None else out
    scales, zps = q.scales.astype(np.float64), q.zero_points.astype(np.int16)
    # code - zp is a small integer, so s * (code - zp) is exact in f64
    offsets = q.codes.astype(np.int16)
    for lo, b, k, width in _runs(q.sizes):
        x = out[lo : lo + k * width].reshape(k, width)
        np.multiply(scales[b : b + k, None], offsets[lo : lo + k * width].reshape(k, width) - zps[b : b + k, None], out=x)
    return out.reshape(q.shape)


def packed_size(n: int) -> int:
    """Byte length of the record of n values: a 4-byte scale per block, then
    the blocks' zero points and the n codes, two per byte each."""
    blocks = -(-n // BLOCK)
    return 4 * blocks + (blocks + 1) // 2 + (n + 1) // 2


def _check_nibbles(q: QuantizedTensor) -> None:
    """Raise ArgumentError naming the first block with a zero point or a code
    outside 0..15; the wire would keep only its low nibble."""
    zps, codes = np.asarray(q.zero_points), np.asarray(q.codes)
    # a uint8, as quantize makes them, cannot be negative
    if all(a.size == 0 or ((a.dtype == np.uint8 or a.min() >= 0) and a.max() <= _LEVELS) for a in (zps, codes)):
        return
    bad_zp = (zps < 0) | (zps > _LEVELS)
    bad_code = (codes < 0) | (codes > _LEVELS)
    zp_block = int(np.argmax(bad_zp)) if bad_zp.any() else zps.size
    code_at = int(np.argmax(bad_code)) if bad_code.any() else codes.size
    code_block = int(np.searchsorted(np.cumsum(_block_sizes(_runs(q.sizes))), code_at, side="right"))
    if zp_block <= code_block:
        raise ArgumentError(f"block {zp_block}: zero point {int(zps[zp_block])} out of range")
    raise ArgumentError(f"block {code_block}: code {int(codes[code_at])} out of range")


def _nibbles(values: np.ndarray, sizes) -> np.ndarray:
    """`values`, each at most 15, packed two per byte, low nibble first, in
    runs of `sizes` values; each run starts a byte, so an odd run ends in a
    zero nibble."""
    odd = [end for end, n in zip(accumulate(sizes), sizes) if n % 2]
    values = np.ascontiguousarray(np.insert(values, odd, 0) if odd else values, dtype=np.uint8)
    pairs = values.view("<u2")  # values 2i and 2i + 1
    packed = pairs >> 4
    packed |= pairs
    return packed.astype(np.uint8)  # the low byte: value 2i | value 2i + 1 << 4


def to_bytes(q: QuantizedTensor) -> bytes:
    """Each entry's record, end to end. Every scale is cast, and every zero
    point and code packed, in one pass each; each record is then cut from
    them."""
    _check_nibbles(q)
    blocks = [-(-n // BLOCK) for n in q.sizes]
    scales = memoryview(np.ascontiguousarray(q.scales, dtype="<f4").view(np.uint8))
    zps, codes = memoryview(_nibbles(q.zero_points, blocks)), memoryview(_nibbles(q.codes, q.sizes))
    records, b, z, c = [], 0, 0, 0  # the entry's first scale, zero point and code byte
    for n, k in zip(q.sizes, blocks):
        records += [scales[4 * b : 4 * (b + k)], zps[z : z + (k + 1) // 2], codes[c : c + (n + 1) // 2]]
        b, z, c = b + k, z + (k + 1) // 2, c + (n + 1) // 2
    return b"".join(records)


def _unnibble(data: bytes, offset: int, count: int, what: str) -> np.ndarray:
    """The `count` values packed two per byte from `offset`; the pad nibble
    of an odd count must be zero."""
    raw = np.frombuffer(data, dtype=np.uint8, count=(count + 1) // 2, offset=offset)
    values = np.empty(2 * raw.size, dtype=np.uint8)
    values[0::2] = raw & 0x0F
    values[1::2] = raw >> 4
    if count % 2 and values[count]:
        raise FormatError(f"nonzero pad nibble after the last {what}")
    return values[:count]


def from_bytes(data: bytes, shape: tuple[int, ...]) -> QuantizedTensor:
    """One record of `shape`'s values. Every byte is read or rejected: a
    record of the wrong length, a scale that is not positive finite (the
    first such block is named) and a nonzero pad nibble raise FormatError,
    in wire order. A nibble cannot exceed 15, so no zero point or code is
    out of range."""
    n = math.prod(shape) if shape else 0
    blocks = -(-n // BLOCK)
    if len(data) != packed_size(n):
        raise FormatError(f"quantized record is {len(data)} bytes, {n} values need {packed_size(n)}")
    scales = np.frombuffer(data, dtype="<f4", count=blocks).astype(np.float32)
    bad = ~((scales > 0) & (scales < np.inf))  # NaN fails both
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"block {i}: scale must be positive finite, got {float(scales[i])}")
    zps = _unnibble(data, 4 * blocks, blocks, "zero point")
    codes = _unnibble(data, 4 * blocks + (blocks + 1) // 2, n, "code")
    _frozen(scales, zps, codes)
    return QuantizedTensor(tuple(shape), scales, zps, codes)
