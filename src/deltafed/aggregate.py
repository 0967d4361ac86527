"""Server-side aggregation: sample-weighted FedAvg and delta averaging.

Both rules fold updates in client_id order so the result is bitwise
independent of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ArgumentError, ProtocolError
from .params import ParameterSet, add_delta, check_compatible, weighted_sum

KIND_FULL = "full"
KIND_DELTA = "delta"

# The values accepted for a run's aggregation, delta_form and delta_weighting.
AGG_GRADUALDIFF = "gradualdiff"
AGG_FEDAVG = "fedavg"
FORM_FACTORS = "factors"
FORM_DENSE = "dense"
WEIGHT_UNIFORM = "uniform"
WEIGHT_SAMPLES = "samples"


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    round: int
    sample_count: int
    kind: str
    params: ParameterSet
    form: str | None = None

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ArgumentError(f"client_id must be >= 0, got {self.client_id}")
        if self.round < 1:
            raise ArgumentError(f"round must be >= 1, got {self.round}")
        if self.sample_count < 1:
            raise ArgumentError(
                f"sample_count must be >= 1, got {self.sample_count}"
            )
        if self.kind not in (KIND_FULL, KIND_DELTA):
            raise ArgumentError(f"unknown update kind {self.kind!r}")
        if self.kind == KIND_DELTA:
            if self.form not in (FORM_FACTORS, FORM_DENSE):
                raise ArgumentError(f"delta updates need a form, got {self.form!r}")
        elif self.form is not None:
            raise ArgumentError("full-model updates carry no delta form")


def _sorted_updates(updates: list[ClientUpdate], kind: str) -> list[ClientUpdate]:
    if not updates:
        raise ProtocolError("no updates to aggregate")
    rounds = {u.round for u in updates}
    if len(rounds) > 1:
        raise ProtocolError(f"updates span rounds {sorted(rounds)}")
    for u in updates:
        if u.kind != kind:
            raise ProtocolError(
                f"client {u.client_id} sent a {u.kind} update, expected {kind}"
            )
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        dup = sorted(i for i in set(ids) if ids.count(i) > 1)[0]
        raise ProtocolError(f"duplicate update from client {dup}")
    return sorted(updates, key=lambda u: u.client_id)


def _weights(updates: list[ClientUpdate], weighting: str) -> list[float]:
    if weighting == WEIGHT_UNIFORM:
        return [1.0 / len(updates)] * len(updates)
    if weighting == WEIGHT_SAMPLES:
        total = sum(u.sample_count for u in updates)
        return [u.sample_count / total for u in updates]
    raise ArgumentError(f"unknown weighting {weighting!r}")


def fedavg_aggregate(updates: list[ClientUpdate]) -> ParameterSet:
    """Sample-weighted mean of full models: sum (n_i / sum n_j) * theta_i.

    Trainable entries are averaged; frozen entries must agree bitwise across
    clients and are carried over, never recomputed.
    """
    updates = _sorted_updates(updates, KIND_FULL)
    first = updates[0].params
    for u in updates[1:]:
        check_compatible(first, u.params)
        if u.params.frozen_flat.tobytes() != first.frozen_flat.tobytes():
            frozen = set(first.names()) - set(first.trainable_names())
            name = min(n for n in frozen if u.params.array(n).tobytes() != first.array(n).tobytes())
            raise ProtocolError(
                f"frozen entry {name!r} differs between clients "
                f"{updates[0].client_id} and {u.client_id}"
            )
    trained = [u.params.trainable_subset() for u in updates]
    return first.with_trainable(weighted_sum(trained, _weights(updates, WEIGHT_SAMPLES)).trainable_flat)


def mean_delta(updates: list[ClientUpdate], weighting: str = WEIGHT_UNIFORM) -> ParameterSet:
    """Weighted entrywise mean of delta payloads (coverage not checked here)."""
    updates = _sorted_updates(updates, KIND_DELTA)
    forms = {u.form for u in updates}
    if len(forms) > 1:
        raise ProtocolError(f"updates mix delta forms {sorted(forms)}")
    return weighted_sum([u.params for u in updates], _weights(updates, weighting))


def check_coverage(want: Iterable[str], update: ClientUpdate, what: str) -> None:
    """Raise ProtocolError unless the update's entries are exactly `want`."""
    want, got = set(want), set(update.params.names())
    if want != got:
        raise ProtocolError(
            f"delta from client {update.client_id} in round {update.round} does "
            f"not cover the {what}: missing {sorted(want - got)}, extra {sorted(got - want)}"
        )


def gradualdiff_aggregate(
    global_: ParameterSet,
    updates: list[ClientUpdate],
    weighting: str = WEIGHT_UNIFORM,
) -> ParameterSet:
    """global + weighted mean of client deltas; frozen entries untouched."""
    checked = _sorted_updates(updates, KIND_DELTA)
    for u in checked:
        check_coverage(global_.trainable_names(), u, "trainable set")
    return add_delta(global_, mean_delta(checked, weighting))
