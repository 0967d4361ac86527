"""Binary wire format: fixed 26-byte headers and the parameter entry codec.

All integers are little-endian. The header layout, each field after its
byte offset, is

    0 magic "GDFL" | 4 version u8 | 5 kind u8 | 6 round u32 |
    10 sender_id u32 | 14 four reserved zero bytes | 18 payload_len u64

which pins every message header to exactly HEADER_LEN bytes. Every byte is
read or rejected: a header whose reserved bytes are not all zero fails.

Parameter payloads are `[u32 entry_count]` followed by one record per entry
in lexicographic name order:

    [u16 name_len][name utf-8][u8 dtype][u8 rank][u32 dim...][data]

dtype 0 stores raw little-endian f32; dtype 1 stores `quant`'s 4-bit record:
an f32 scale per block of 64 values, then the blocks' zero points and the
values' codes, two per byte, 4.56 bits per value in full blocks. The dims
give the record's value count, so it repeats none. VERSION 2 is this
record; a message of any other version is refused at its header. An
encoder writes a message's values in one pass: one f32 cast per vector, or
one `quant.quantize` of every entry end to end, whose blocks restart at
each entry. A decoder reads entry by entry.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import FormatError
from .params import ParameterSet, pack
from .quant import dequantize, from_bytes as quant_from_bytes, packed_size, quantize, to_bytes as quant_to_bytes

MAGIC = b"GDFL"
VERSION = 2
HEADER_LEN = 26

KIND_GLOBAL_BROADCAST = 1
KIND_DELTA_UPDATE = 2
KIND_FULL_MODEL_UPDATE = 3
KIND_ROUND_ACK = 4
KIND_SHUTDOWN = 5
_KINDS = range(1, 6)

_HEADER = struct.Struct("<4sBBII4sQ")
_RESERVED = bytes(4)
assert _HEADER.size == HEADER_LEN

# Largest payload a header may declare: 256 MiB, a full f32 model of 64M
# parameters. payload_len comes from the peer, so a receiver checks it before
# reading or buffering the payload.
MAX_PAYLOAD_LEN = 1 << 28

DTYPE_F32 = 0
DTYPE_Q4 = 1


@dataclass(frozen=True)
class WireMessage:
    kind: int
    round: int
    sender_id: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FormatError(f"unknown message kind {self.kind}")
        if not 0 <= self.round <= 0xFFFFFFFF:
            raise FormatError(f"round {self.round} out of u32 range")
        if not 0 <= self.sender_id <= 0xFFFFFFFF:
            raise FormatError(f"sender_id {self.sender_id} out of u32 range")


def encode_message(msg: WireMessage) -> bytes:
    header = _HEADER.pack(
        MAGIC, VERSION, msg.kind, msg.round, msg.sender_id, _RESERVED, len(msg.payload)
    )
    return header + msg.payload


def parse_header(header: bytes) -> tuple[int, int, int, int]:
    """-> (kind, round, sender_id, payload_len); strict on every field."""
    if len(header) != HEADER_LEN:
        raise FormatError(
            f"header must be {HEADER_LEN} bytes, got {len(header)}"
        )
    magic, version, kind, round_, sender, reserved, payload_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if kind not in _KINDS:
        raise FormatError(f"unknown message kind {kind}")
    if reserved != _RESERVED:
        raise FormatError("reserved header bytes must be zero")
    if payload_len > MAX_PAYLOAD_LEN:
        raise FormatError(
            f"declared payload length {payload_len} exceeds {MAX_PAYLOAD_LEN}"
        )
    return kind, round_, sender, payload_len


def decode_message(data: bytes) -> WireMessage:
    if len(data) < HEADER_LEN:
        raise FormatError(f"message truncated at {len(data)} bytes")
    kind, round_, sender, payload_len = parse_header(data[:HEADER_LEN])
    if len(data) != HEADER_LEN + payload_len:
        raise FormatError(
            f"payload length {len(data) - HEADER_LEN} does not match "
            f"declared {payload_len}"
        )
    return WireMessage(kind, round_, sender, data[HEADER_LEN:])


def _subset(params: ParameterSet, subset: str) -> ParameterSet:
    if subset == "trainable":
        return params.trainable_subset()
    if subset != "all":
        raise FormatError(f"unknown subset {subset!r}")
    return params


def serialize_params(
    params: ParameterSet, subset: str = "all", quantize_payload: bool = False
) -> bytes:
    """The entry stream of `params`' `subset`. Every name and rank is
    checked before any value is encoded. Values are encoded in one pass: one
    f32 cast per vector, or one `quantize` of all the entries end to end,
    which for a delta is its trainable vector itself; each entry's data is
    then a slice of that."""
    params = _subset(params, subset)
    layout = params.layout
    heads = []  # each entry's bytes before its data
    for name, (_, _, _, shape) in layout.slots.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name {name[:32]!r}... exceeds 65535 bytes")
        if len(shape) > 0xFF:
            raise FormatError(f"entry {name!r} rank {len(shape)} exceeds 255")
        heads.append(struct.pack(f"<H{len(encoded)}sBB{len(shape)}I", len(encoded), encoded,
                                 DTYPE_Q4 if quantize_payload else DTYPE_F32, len(shape), *shape))
    vectors = (params.frozen_flat, params.trainable_flat)
    chunks = [struct.pack("<I", len(layout.names))]
    if quantize_payload:
        sizes = [hi - lo for _, lo, hi, _ in layout.slots.values()]
        values = vectors[True] if not layout.frozen_size else np.concatenate(
            [vectors[flag][lo:hi] for flag, lo, hi, _ in layout.slots.values()]
        )
        records, at = memoryview(quant_to_bytes(quantize(values, sizes))), 0
        for head, n in zip(heads, sizes):
            chunks += [head, records[at : at + packed_size(n)]]
            at += packed_size(n)
    else:
        f32 = [v.astype("<f4") for v in vectors]
        for head, (flag, lo, hi, _) in zip(heads, layout.slots.values()):
            chunks += [head, f32[flag][lo:hi].tobytes()]
    return b"".join(chunks)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"payload truncated reading {what} at offset {self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def deserialize_params(
    data: bytes, trainable: set[str] | None = None
) -> ParameterSet:
    """Decode an entry stream; flags come from `trainable` (default: all).

    The wire carries no trainable bits, so endpoints reconstruct them from
    configuration. Entries named in `trainable` are marked trainable, the
    rest frozen; `None` marks everything trainable.
    """
    r = _Reader(data)
    (count,) = struct.unpack("<I", r.take(4, "entry count"))
    entries = []  # (name, dims, trainable, values)
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, "name length"))
        raw_name = r.take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"entry name is not valid utf-8: {e}") from e
        if name in seen:
            raise FormatError(f"duplicate entry {name!r}")
        seen.add(name)
        dtype, rank = struct.unpack("<BB", r.take(2, "dtype/rank"))
        if dtype not in (DTYPE_F32, DTYPE_Q4):
            raise FormatError(f"entry {name!r}: unknown dtype {dtype}")
        if rank == 0:
            raise FormatError(f"entry {name!r}: rank must be >= 1")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, "dims"))
        if any(d == 0 for d in dims):
            raise FormatError(f"entry {name!r}: zero dimension in {dims}")
        n = math.prod(dims)
        if dtype == DTYPE_F32:
            raw = r.take(4 * n, f"f32 data of {name!r}")
            values = np.frombuffer(raw, dtype="<f4")  # widened to float64 by pack
            if not np.isfinite(values).all():
                raise FormatError(f"entry {name!r}: non-finite f32 values")
        else:
            raw = r.take(packed_size(n), f"q4 data of {name!r}")
            try:
                q = quant_from_bytes(raw, dims)
            except FormatError as e:
                raise FormatError(f"entry {name!r}: {e}") from None
            values = partial(dequantize, q)  # decoded into its slot
        flag = True if trainable is None else name in trainable
        entries.append((name, tuple(dims), flag, values))
    if r.pos != len(data):
        raise FormatError(
            f"{len(data) - r.pos} trailing bytes after {count} entries"
        )
    return ParameterSet.from_vectors(*pack(entries))


def serialized_size(params: ParameterSet, subset: str = "all", quantize_payload: bool = False) -> int:
    """Byte length serialize_params would produce, from the layout formula."""
    total = 4
    for name, (_, lo, hi, shape) in _subset(params, subset).layout.slots.items():
        total += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * len(shape)
        total += packed_size(hi - lo) if quantize_payload else 4 * (hi - lo)
    return total
