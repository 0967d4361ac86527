"""Named, immutable parameter collections and the delta algebra on them.

Everything downstream (training, aggregation, the wire) moves ParameterSets
around. Internal arithmetic is float64; 32-bit floats exist only in the wire
module. Iteration order is lexicographic by entry name everywhere, which is
what makes summation order, serialization, and ledgers reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, StructureError


@dataclass(frozen=True)
class Tensor:
    """A dense row-major float64 tensor with an explicit shape.

    `data` is a read-only 1-D array; `shape` dims are positive and their
    product equals len(data). Values are finite.
    """

    shape: tuple[int, ...]
    data: np.ndarray

    @staticmethod
    def from_array(arr: np.ndarray | Sequence) -> "Tensor":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim == 0:
            a = a.reshape(1)
        flat = a.reshape(-1).copy()  # own the buffer; no aliasing with the caller
        flat.setflags(write=False)
        return Tensor(tuple(int(d) for d in a.shape), flat)

    def __post_init__(self):
        if not self.shape or any(d <= 0 for d in self.shape):
            raise ArgumentError(f"tensor shape must be positive dims, got {self.shape}")
        if self.data.ndim != 1:
            raise ArgumentError("tensor data must be flat (1-D)")
        if math.prod(self.shape) != self.data.size:
            raise ArgumentError(
                f"shape {self.shape} wants {math.prod(self.shape)} elements, "
                f"data has {self.data.size}"
            )
        if self.data.dtype != np.float64:
            raise ArgumentError(f"tensor data must be float64, got {self.data.dtype}")
        if not np.all(np.isfinite(self.data)):
            raise ArgumentError("tensor contains non-finite values")
        if self.data.flags.writeable:
            # defensive copy so no caller can mutate us through an alias
            safe = self.data.copy()
            safe.setflags(write=False)
            object.__setattr__(self, "data", safe)

    @property
    def array(self) -> np.ndarray:
        """Read-only view shaped like `shape`."""
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def __reduce__(self):
        # through the constructor, so an unpickled tensor is read-only again
        return Tensor, (self.shape, self.data)


class ParameterSet:
    """Ordered name -> (Tensor, trainable) map, immutable after construction.

    All operations return new sets; tensors are shared, never copied, so a
    frozen entry carried through a pipeline stays bitwise identical.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, tuple[Tensor, bool]] | Iterable[tuple[str, Tensor, bool]]):
        if isinstance(entries, Mapping):
            items = [(name, t, bool(flag)) for name, (t, flag) in entries.items()]
        else:
            items = [(name, t, bool(flag)) for name, t, flag in entries]
        seen = set()
        for name, t, _ in items:
            if not name:
                raise ArgumentError("entry name must be non-empty")
            if name in seen:
                raise ArgumentError(f"duplicate entry name {name!r}")
            if not isinstance(t, Tensor):
                raise ArgumentError(f"entry {name!r} is not a Tensor")
            seen.add(name)
        object.__setattr__(self, "_entries", {n: (t, f) for n, t, f in sorted(items)})

    def __setattr__(self, *_):
        raise AttributeError("ParameterSet is immutable")

    def __reduce__(self):
        return ParameterSet, (list(self.items()),)

    # -- access ------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def tensor(self, name: str) -> Tensor:
        try:
            return self._entries[name][0]
        except KeyError:
            raise ArgumentError(f"no entry named {name!r}") from None

    def array(self, name: str) -> np.ndarray:
        return self.tensor(name).array

    def trainable(self, name: str) -> bool:
        try:
            return self._entries[name][1]
        except KeyError:
            raise ArgumentError(f"no entry named {name!r}") from None

    def items(self) -> Iterator[tuple[str, Tensor, bool]]:
        """Entries in lexicographic name order."""
        for name, (t, flag) in self._entries.items():
            yield name, t, flag

    def trainable_names(self) -> list[str]:
        return [n for n, (_, f) in self._entries.items() if f]

    def num_params(self, trainable_only: bool = False) -> int:
        return sum(
            t.size for _, (t, f) in self._entries.items() if f or not trainable_only
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return list(self.items()) == list(other.items())

    def __repr__(self):
        inner = ", ".join(
            f"{n}{'*' if f else ''}{list(t.shape)}" for n, t, f in self.items()
        )
        return f"ParameterSet({inner})"

    # -- derivation helpers --------------------------------------------------

    def trainable_subset(self) -> "ParameterSet":
        return ParameterSet([(n, t, f) for n, (t, f) in self._entries.items() if f])

    def replace_values(self, values: Mapping[str, np.ndarray]) -> "ParameterSet":
        """New set with the named entries' values swapped, flags kept."""
        out = []
        for name, (t, flag) in self._entries.items():
            if name in values:
                nt = Tensor.from_array(values[name])
                if nt.shape != t.shape:
                    raise StructureError(
                        f"entry {name!r}: replacement shape {nt.shape} != {t.shape}"
                    )
                out.append((name, nt, flag))
            else:
                out.append((name, t, flag))
        unknown = set(values) - set(self._entries)
        if unknown:
            raise ArgumentError(f"no entry named {sorted(unknown)[0]!r}")
        return ParameterSet(out)

    def with_flags(self, flags: Mapping[str, bool]) -> "ParameterSet":
        unknown = set(flags) - set(self._entries)
        if unknown:
            raise ArgumentError(f"no entry named {sorted(unknown)[0]!r}")
        return ParameterSet(
            [(n, t, flags.get(n, f)) for n, (t, f) in self._entries.items()]
        )

    def merged_with(self, other: "ParameterSet") -> "ParameterSet":
        """Union of two sets with disjoint names."""
        clash = set(self._entries) & set(other._entries)
        if clash:
            raise ArgumentError(f"duplicate entry name {sorted(clash)[0]!r}")
        return ParameterSet(list(self.items()) + list(other.items()))

    def drop(self, names: Iterable[str]) -> "ParameterSet":
        gone = set(names)
        return ParameterSet(
            [(n, t, f) for n, (t, f) in self._entries.items() if n not in gone]
        )


def check_compatible(a: ParameterSet, b: ParameterSet) -> None:
    """Raise StructureError naming the first mismatching entry (lexicographic)."""
    names_a, names_b = a.names(), b.names()
    if names_a != names_b:
        only_a = sorted(set(names_a) - set(names_b))
        only_b = sorted(set(names_b) - set(names_a))
        first = min(only_a + only_b)
        where = "first set only" if first in only_a else "second set only"
        raise StructureError(f"entry {first!r} present in {where}")
    for name in names_a:
        ta, tb = a.tensor(name), b.tensor(name)
        if ta.shape != tb.shape:
            raise StructureError(
                f"entry {name!r}: shape {ta.shape} != {tb.shape}"
            )
        if a.trainable(name) != b.trainable(name):
            raise StructureError(f"entry {name!r}: trainable flags differ")


def subtract_trainable(local: ParameterSet, global_: ParameterSet) -> ParameterSet:
    """Per-entry local - global over trainable entries only.

    This is the client-side delta: what local training changed relative to
    the round-start global state. Frozen entries never appear in the result.
    """
    check_compatible(local, global_)
    out = []
    for name, t, flag in local.items():
        if flag:
            diff = t.data - global_.tensor(name).data
            out.append((name, Tensor(t.shape, _frozen_view(diff)), True))
    return ParameterSet(out)


def add_delta(base: ParameterSet, delta: ParameterSet) -> ParameterSet:
    """base + delta on the entries delta names; everything else passes through.

    Every delta entry must exist in base, match its shape, and be trainable
    there. Frozen entries are reused bitwise, never recomputed.
    """
    for name, t, _ in delta.items():
        if name not in base:
            raise StructureError(f"entry {name!r} present in second set only")
        bt = base.tensor(name)
        if bt.shape != t.shape:
            raise StructureError(f"entry {name!r}: shape {bt.shape} != {t.shape}")
        if not base.trainable(name):
            raise StructureError(f"entry {name!r} is frozen in the base set")
    out = []
    for name, t, flag in base.items():
        if name in delta:
            summed = t.data + delta.tensor(name).data
            out.append((name, Tensor(t.shape, _frozen_view(summed)), flag))
        else:
            out.append((name, t, flag))
    return ParameterSet(out)


def weighted_sum(sets: Sequence[ParameterSet], weights: Sequence[float]) -> ParameterSet:
    """Elementwise sum of w_i * set_i over shape-compatible sets."""
    if not sets:
        raise ArgumentError("weighted_sum needs at least one set")
    if len(sets) != len(weights):
        raise ArgumentError(
            f"{len(sets)} sets but {len(weights)} weights"
        )
    for w in weights:
        if not np.isfinite(w):
            raise ArgumentError(f"weight must be finite, got {w}")
    first = sets[0]
    for other in sets[1:]:
        check_compatible(first, other)
    out = []
    for name, t, flag in first.items():
        acc = t.data * float(weights[0])
        for ps, w in zip(sets[1:], weights[1:]):
            acc = acc + ps.tensor(name).data * float(w)
        out.append((name, Tensor(t.shape, _frozen_view(acc)), flag))
    return ParameterSet(out)


def l2_norm(ps: ParameterSet) -> float:
    """Global 2-norm over the trainable entries (frozen excluded)."""
    total = 0.0
    for name, t, flag in ps.items():
        if flag:
            total += float(np.dot(t.data, t.data))
    return math.sqrt(total)


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
    a.setflags(write=False)
    return a
