"""Server-side aggregation: sample-weighted FedAvg and delta averaging.

The rules only fold. Every update they get was checked on arrival against
the layout its round expects, by `protocol.fold_updates`; here it has that
layout. Both rules fold updates in client_id order so the result is bitwise
independent of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError, ProtocolError
from .params import ParameterSet, add_delta, weighted_sum

# The values accepted for a run's aggregation, delta_form and delta_weighting.
AGG_GRADUALDIFF = "gradualdiff"
AGG_FEDAVG = "fedavg"
FORM_FACTORS = "factors"
FORM_DENSE = "dense"
WEIGHT_UNIFORM = "uniform"
WEIGHT_SAMPLES = "samples"


@dataclass(frozen=True)
class ClientUpdate:
    """One client's decoded update of a round, laid out as the round expects."""

    client_id: int
    sample_count: int
    params: ParameterSet


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
    updates = sorted(updates, key=lambda u: u.client_id)
    first = updates[0].params
    for u in updates[1:]:
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
    """Weighted entrywise mean of delta payloads."""
    updates = sorted(updates, key=lambda u: u.client_id)
    return weighted_sum([u.params for u in updates], _weights(updates, weighting))


def gradualdiff_aggregate(
    global_: ParameterSet,
    updates: list[ClientUpdate],
    weighting: str = WEIGHT_UNIFORM,
) -> ParameterSet:
    """global + weighted mean of client deltas; frozen entries untouched."""
    return add_delta(global_, mean_delta(updates, weighting))
