"""Named, immutable parameter collections and the delta algebra on them.

Everything downstream (training, aggregation, the wire) moves ParameterSets
around. A set is a shared, immutable `Layout` and two read-only float64
vectors: its trainable entries end to end in name order, and its frozen
entries likewise. A set derived from another shares its layout and, unless
it changes frozen values, its frozen vector, so those are never copied.
`array(name)` and `tensor(name)` are views; the delta algebra is one vector
operation. 32-bit floats exist only in the wire module. Lexicographic name
order makes summation order, serialization, and ledgers reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass(frozen=True)
class Layout:
    """Entry names in lexicographic order with their shapes and trainable
    flags, and where each entry sits: in the trainable vector or the frozen
    one, at `slots[name] = (trainable, start, stop, shape)`."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    flags: tuple[bool, ...]
    slots: dict = field(init=False, repr=False, compare=False)
    trainable_size: int = field(init=False, repr=False, compare=False)
    frozen_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slots, ends = {}, [0, 0]  # [frozen, trainable] ends
        for name, shape, flag in zip(self.names, self.shapes, self.flags):
            n = math.prod(shape)
            slots[name] = (flag, ends[flag], ends[flag] + n, shape)
            ends[flag] += n
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "frozen_size", ends[False])
        object.__setattr__(self, "trainable_size", ends[True])

    @cached_property
    def trainable_only(self) -> "Layout":
        """The layout of the trainable entries alone; its trainable vector
        is laid out as this one's."""
        names = tuple(n for n, f in zip(self.names, self.flags) if f)
        return Layout(names, tuple(self.slots[n][3] for n in names), (True,) * len(names))

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Trainable entry name -> its shaped view into vec, a vector laid
        out as this layout's trainable vector."""
        return {n: vec[lo:hi].reshape(s) for n, (f, lo, hi, s) in self.slots.items() if f}


_EMPTY = np.zeros(0)
_EMPTY.setflags(write=False)


def pack(
    entries: Iterable[tuple[str, tuple[int, ...], bool, np.ndarray]],
) -> tuple[Layout, np.ndarray, np.ndarray]:
    """(name, shape, trainable, values) entries, in any order -> (their
    layout, a new float64 trainable vector, a new float64 frozen vector).
    `values` is a flat array, or a function that writes them into the flat
    slot it is given."""
    entries = sorted(entries, key=lambda e: e[0])
    if entries and not entries[0][0]:  # "" sorts first
        raise ArgumentError("entry name must be non-empty")
    for before, after in zip(entries, entries[1:]):
        if before[0] == after[0]:
            raise ArgumentError(f"duplicate entry name {after[0]!r}")
    layout = Layout(*(tuple(e[i] for e in entries) for i in range(3)))
    vectors = (np.empty(layout.frozen_size), np.empty(layout.trainable_size))
    for name, _, flag, values in entries:
        slot = vectors[flag][slice(*layout.slots[name][1:3])]
        if callable(values):
            values(slot)
        else:
            slot[...] = values
    return layout, vectors[True], vectors[False]


def _owned(vec: np.ndarray, layout: Layout, trainable: bool) -> np.ndarray:
    """vec as one of a set's two vectors. A writeable vector is new: it is
    checked and made read-only. A read-only one is some set's already."""
    size = layout.trainable_size if trainable else layout.frozen_size
    if vec.dtype != np.float64 or vec.shape != (size,):
        raise ArgumentError(f"a {vec.dtype} vector of shape {vec.shape} does not hold {size} values")
    if vec.flags.writeable:
        for name, (flag, lo, hi, _) in layout.slots.items():
            if flag == trainable and not np.isfinite(vec[lo:hi]).all():
                raise ArgumentError(f"entry {name!r} contains non-finite values")
        vec.setflags(write=False)
    return vec


class ParameterSet:
    """Ordered name -> (Tensor, trainable) map over `layout`,
    `trainable_flat` and `frozen_flat`, immutable after construction. All
    operations return new sets."""

    __slots__ = ("layout", "trainable_flat", "frozen_flat")

    def __new__(cls, entries: Mapping[str, tuple[Tensor, bool]] | Iterable[tuple[str, Tensor, bool]]):
        if isinstance(entries, Mapping):
            items = [(name, t, bool(flag)) for name, (t, flag) in entries.items()]
        else:
            items = [(name, t, bool(flag)) for name, t, flag in entries]
        for name, t, _ in items:
            if not isinstance(t, Tensor):
                raise ArgumentError(f"entry {name!r} is not a Tensor")
        return cls.from_vectors(*pack((name, t.shape, flag, t.data) for name, t, flag in items))

    @classmethod
    def from_vectors(cls, layout: Layout, trainable: np.ndarray, frozen: np.ndarray) -> "ParameterSet":
        """The set with these values. It takes the vectors over: a
        writeable one is checked for non-finite values and made read-only."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "layout", layout)
        object.__setattr__(ps, "trainable_flat", _owned(trainable, layout, True))
        object.__setattr__(ps, "frozen_flat", _owned(frozen, layout, False))
        return ps

    def with_trainable(self, trainable: np.ndarray) -> "ParameterSet":
        """This set with `trainable` as its trainable vector; the layout and
        the frozen vector are shared."""
        return ParameterSet.from_vectors(self.layout, trainable, self.frozen_flat)

    def __setattr__(self, *_):
        raise AttributeError("ParameterSet is immutable")

    def __reduce__(self):
        return ParameterSet.from_vectors, (self.layout, self.trainable_flat, self.frozen_flat)

    # -- access ------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self.layout.names)

    def __contains__(self, name: str) -> bool:
        return name in self.layout.slots

    def __len__(self) -> int:
        return len(self.layout.names)

    def _slot(self, name: str) -> tuple[bool, int, int, tuple[int, ...]]:
        try:
            return self.layout.slots[name]
        except KeyError:
            raise ArgumentError(f"no entry named {name!r}") from None

    def tensor(self, name: str) -> Tensor:
        return Tensor(self._slot(name)[3], self.array(name).reshape(-1))

    def array(self, name: str) -> np.ndarray:
        """Read-only view of the entry's values, shaped like it."""
        flag, lo, hi, shape = self._slot(name)
        return (self.trainable_flat if flag else self.frozen_flat)[lo:hi].reshape(shape)

    def arrays(self, trainable: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Entry name -> shaped view, for every entry; the trainable entries'
        views are into `trainable` when given, a vector laid out as this
        set's trainable vector."""
        vectors = (self.frozen_flat, self.trainable_flat if trainable is None else trainable)
        return {n: vectors[f][lo:hi].reshape(s) for n, (f, lo, hi, s) in self.layout.slots.items()}

    def trainable(self, name: str) -> bool:
        return self._slot(name)[0]

    def items(self) -> Iterator[tuple[str, Tensor, bool]]:
        """Entries in lexicographic name order."""
        return ((n, self.tensor(n), f) for n, f in zip(self.layout.names, self.layout.flags))

    def trainable_names(self) -> list[str]:
        return list(self.layout.trainable_only.names)

    def num_params(self, trainable_only: bool = False) -> int:
        return self.layout.trainable_size + (0 if trainable_only else self.layout.frozen_size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return (
            self.layout == other.layout
            and np.array_equal(self.trainable_flat, other.trainable_flat)
            and np.array_equal(self.frozen_flat, other.frozen_flat)
        )

    def __repr__(self):
        lay = self.layout
        inner = ", ".join(
            f"{n}{'*' if f else ''}{list(s)}" for n, s, f in zip(lay.names, lay.shapes, lay.flags)
        )
        return f"ParameterSet({inner})"

    # -- derivation helpers --------------------------------------------------

    def trainable_subset(self) -> "ParameterSet":
        return ParameterSet.from_vectors(self.layout.trainable_only, self.trainable_flat, _EMPTY)

    def replace_values(self, values: Mapping[str, np.ndarray]) -> "ParameterSet":
        """New set with the named entries' values swapped, flags kept. A
        vector none of them lives in is shared."""
        vectors = [self.frozen_flat, self.trainable_flat]  # copied on first write
        for name, (flag, lo, hi, shape) in self.layout.slots.items():
            if name in values:
                a = np.asarray(values[name], dtype=np.float64)
                if (a.shape or (1,)) != shape:  # a scalar is one value
                    raise StructureError(
                        f"entry {name!r}: replacement shape {a.shape or (1,)} != {shape}"
                    )
                if not vectors[flag].flags.writeable:
                    vectors[flag] = vectors[flag].copy()
                vectors[flag][lo:hi] = a.reshape(-1)
        unknown = set(values) - set(self.layout.slots)
        if unknown:
            raise ArgumentError(f"no entry named {sorted(unknown)[0]!r}")
        return ParameterSet.from_vectors(self.layout, vectors[True], vectors[False])

    def with_flags(self, flags: Mapping[str, bool]) -> "ParameterSet":
        unknown = set(flags) - set(self.layout.slots)
        if unknown:
            raise ArgumentError(f"no entry named {sorted(unknown)[0]!r}")
        return ParameterSet([(n, t, flags.get(n, f)) for n, t, f in self.items()])

    def merged_with(self, other: "ParameterSet") -> "ParameterSet":
        """Union of two sets with disjoint names."""
        clash = set(self.layout.names) & set(other.layout.names)
        if clash:
            raise ArgumentError(f"duplicate entry name {sorted(clash)[0]!r}")
        return ParameterSet(list(self.items()) + list(other.items()))

    def drop(self, names: Iterable[str]) -> "ParameterSet":
        gone = set(names)
        return ParameterSet([(n, t, f) for n, t, f in self.items() if n not in gone])


def check_compatible(a: ParameterSet, b: ParameterSet) -> None:
    """Raise StructureError naming the first mismatching entry (lexicographic)."""
    if a.layout == b.layout:
        return
    stray = sorted(set(a.layout.names) ^ set(b.layout.names))
    if stray:
        where = "first set only" if stray[0] in a else "second set only"
        raise StructureError(f"entry {stray[0]!r} present in {where}")
    la, lb = a.layout, b.layout
    for name, sa, sb, fa, fb in zip(la.names, la.shapes, lb.shapes, la.flags, lb.flags):
        if sa != sb:
            raise StructureError(f"entry {name!r}: shape {sa} != {sb}")
        if fa != fb:
            raise StructureError(f"entry {name!r}: trainable flags differ")


def subtract_trainable(local: ParameterSet, global_: ParameterSet) -> ParameterSet:
    """Per-entry local - global over trainable entries only.

    This is the client-side delta: what local training changed relative to
    the round-start global state. Frozen entries never appear in the result.
    """
    check_compatible(local, global_)
    diff = local.trainable_flat - global_.trainable_flat
    return ParameterSet.from_vectors(local.layout.trainable_only, diff, _EMPTY)


def add_delta(base: ParameterSet, delta: ParameterSet) -> ParameterSet:
    """base + delta on the entries delta names; everything else passes through.

    Every delta entry must exist in base, match its shape, and be trainable
    there. Frozen entries are reused bitwise, never recomputed.
    """
    for name, shape in zip(delta.layout.names, delta.layout.shapes):
        if name not in base:
            raise StructureError(f"entry {name!r} present in second set only")
        flag, _, _, base_shape = base.layout.slots[name]
        if base_shape != shape:
            raise StructureError(f"entry {name!r}: shape {base_shape} != {shape}")
        if not flag:
            raise StructureError(f"entry {name!r} is frozen in the base set")
    if delta.layout == base.layout.trainable_only:
        return base.with_trainable(base.trainable_flat + delta.trainable_flat)
    return base.replace_values({n: base.array(n) + delta.array(n) for n in delta.names()})


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

    def mix(vectors: list[np.ndarray]) -> np.ndarray:
        acc = vectors[0] * float(weights[0])
        for vec, w in zip(vectors[1:], weights[1:]):
            acc = acc + vec * float(w)
        return acc

    return ParameterSet.from_vectors(
        first.layout,
        mix([ps.trainable_flat for ps in sets]),
        mix([ps.frozen_flat for ps in sets]),
    )


def l2_norm(ps: ParameterSet) -> float:
    """Global 2-norm over the trainable entries (frozen excluded)."""
    return math.sqrt(float(np.dot(ps.trainable_flat, ps.trainable_flat)))
