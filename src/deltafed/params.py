"""Named, immutable parameter collections and the delta algebra on them.

Everything downstream (training, aggregation, the wire) moves ParameterSets
around. A set is a shared, immutable `Layout` and two read-only float64
vectors: its trainable entries end to end in name order, and its frozen
entries likewise. A set derived from another shares its layout and, unless
it changes frozen values, its frozen vector, so those are never copied.
A set is built from arrays, which it copies, or takes two vectors over
(`from_vectors`); `array(name)` is a read-only view. The delta algebra is
one vector operation, and `check_layout` is the one check that two sets'
layouts agree. 32-bit floats exist only in the wire module. Lexicographic
name order makes summation order, serialization, and ledgers reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, StructureError


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


def _entry(name: str, values, trainable) -> tuple[str, tuple[int, ...], bool, np.ndarray]:
    """An array entry as pack takes it; a scalar is one value."""
    a = np.asarray(values, dtype=np.float64)
    shape = a.shape or (1,)
    if 0 in shape:
        raise ArgumentError(f"entry {name!r} has shape {shape}; dims must be positive")
    return name, shape, bool(trainable), a.reshape(-1)


class ParameterSet:
    """Ordered name -> (values, trainable) map over `layout`,
    `trainable_flat` and `frozen_flat`, immutable after construction. All
    operations return new sets."""

    __slots__ = ("layout", "trainable_flat", "frozen_flat")

    def __new__(cls, entries: Mapping[str, tuple[object, bool]] | Iterable[tuple[str, object, bool]]):
        """A set of copies of the given arrays: (name, array, trainable)
        triples or {name: (array, trainable)}."""
        if isinstance(entries, Mapping):
            entries = ((name, a, flag) for name, (a, flag) in entries.items())
        return cls.from_vectors(*pack(_entry(*e) for e in entries))

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

    def items(self) -> Iterator[tuple[str, np.ndarray, bool]]:
        """(name, read-only view, trainable) in lexicographic name order."""
        return ((n, self.array(n), f) for n, f in zip(self.layout.names, self.layout.flags))

    def trainable_names(self) -> list[str]:
        return list(self.layout.trainable_only.names)

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


def differences(want: Layout, got: Layout) -> tuple[list[str], list[str], str | None]:
    """How `got` departs from `want`: (the entries it lacks, those it adds,
    None), or with want's names, ([], [], the first entry whose shape or
    trainable flag differs, or None when the layouts are equal)."""
    missing = sorted(set(want.names) - set(got.names))
    extra = sorted(set(got.names) - set(want.names))
    if missing or extra:
        return missing, extra, None
    w, g = want.slots, got.slots  # name -> (flag, start, stop, shape)
    return [], [], next((n for n in want.names if (w[n][0], w[n][3]) != (g[n][0], g[n][3])), None)


def check_layout(want: Layout, got: Layout) -> None:
    """Raise StructureError unless `got` is `want`, naming every entry it
    lacks and adds, or else the first entry whose shape or flag differs."""
    if got == want:
        return
    missing, extra, name = differences(want, got)
    if name is None:
        parts = [f"{what} entries {names}" for what, names in (("missing", missing), ("extra", extra)) if names]
        raise StructureError("layouts differ: " + ", ".join(parts))
    (want_flag, *_, want_shape), (got_flag, *_, got_shape) = want.slots[name], got.slots[name]
    if got_shape != want_shape:
        raise StructureError(f"entry {name!r}: shape {got_shape}, expected {want_shape}")
    raise StructureError(f"entry {name!r}: trainable {got_flag}, expected {want_flag}")


def subtract_trainable(local: ParameterSet, global_: ParameterSet) -> ParameterSet:
    """Per-entry local - global over trainable entries only.

    This is the client-side delta: what local training changed relative to
    the round-start global state. Frozen entries never appear in the result.
    """
    check_layout(global_.layout, local.layout)
    diff = local.trainable_flat - global_.trainable_flat
    return ParameterSet.from_vectors(local.layout.trainable_only, diff, _EMPTY)


def add_delta(base: ParameterSet, delta: ParameterSet) -> ParameterSet:
    """base + delta, a delta laid out as base's trainable entries alone (as
    subtract_trainable makes one). Frozen entries are reused bitwise."""
    check_layout(base.layout.trainable_only, delta.layout)
    return base.with_trainable(base.trainable_flat + delta.trainable_flat)


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
        check_layout(first.layout, other.layout)

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
