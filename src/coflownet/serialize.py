"""Versioned JSON file formats for instances, schedules, and shop inputs.

All writers emit ``"format": 1`` and sort object keys, so identical data
produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .model import (
    AMOUNT_EPS,
    Coflow,
    Edge,
    Flow,
    Instance,
    Network,
    RateSchedule,
    RoutingModel,
)

FORMAT_VERSION = 1

#: Most dense values a schedule file may unpack to: ``slot_count`` times
#: the number of series (one per flow plus one per listed edge series).
#: At 8 bytes a value this is 160 MB; a larger file is refused before
#: anything is allocated.
MAX_SCHEDULE_VALUES = 20_000_000


class FormatError(ValueError):
    """Raised when a file does not match the expected schema/version."""


def _number(value, name: str) -> float:
    """A JSON number as a float. A string or a bool is refused, not
    converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON number with an integral value (``2`` or ``2.0``) as an int;
    ``2.7`` is refused, not truncated."""
    if not _number(value, name).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _array(value, name: str) -> list:
    """A JSON array as a list. A string or an object is refused, not
    iterated."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    """A JSON object as a dict. An array or a string is refused, not
    iterated."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {value!r}")
    return value


def _string(value, name: str) -> str:
    """A JSON string. A number or null is refused, not converted."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _check_version(data: dict, what: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{what}: expected a JSON object, got {type(data).__name__}")
    if data.get("format") != FORMAT_VERSION:
        raise FormatError(f"{what}: unsupported format {data.get('format')!r}")


# ---------------------------------------------------------------------------
# instances


def instance_to_dict(instance: Instance) -> dict:
    coflows = []
    for cf in instance.coflows:
        flows = []
        for fl in cf.flows:
            rec = {
                "src": fl.src,
                "dst": fl.dst,
                "demand": fl.demand,
                "release": fl.release,
            }
            if fl.path is not None:
                rec["path"] = list(fl.path)
            flows.append(rec)
        coflows.append({"weight": cf.weight, "flows": flows})
    return {
        "format": FORMAT_VERSION,
        "model": instance.model.value,
        "nodes": list(instance.network.nodes),
        "edges": [
            {"id": e.id, "src": e.src, "dst": e.dst, "cap": e.cap}
            for e in instance.network.edges
        ],
        "coflows": coflows,
    }


def _release_slot(value) -> int:
    """A release time as a slot index: fractional releases round up, so
    a flow never transmits before it is released (float noise such as
    ``2.0000000001`` is tolerated)."""
    return int(math.ceil(_number(value, "release") - 1e-9))


def instance_from_dict(data: dict) -> Instance:
    _check_version(data, "instance")
    try:
        model = RoutingModel(data["model"])
        network = Network(
            nodes=tuple(_string(v, "node name") for v in _array(data["nodes"], "nodes")),
            edges=tuple(
                Edge(
                    id=_string(e["id"], "edge id"),
                    src=_string(e["src"], "src"),
                    dst=_string(e["dst"], "dst"),
                    cap=_number(e["cap"], "cap"),
                )
                for e in _array(data["edges"], "edges")
            ),
        )
        coflows = tuple(
            Coflow(
                flows=tuple(
                    Flow(
                        src=_string(f["src"], "src"),
                        dst=_string(f["dst"], "dst"),
                        demand=_number(f["demand"], "demand"),
                        release=_release_slot(f.get("release", 0)),
                        path=(
                            tuple(_string(e, "path edge id") for e in _array(f["path"], "path"))
                            if "path" in f
                            else None
                        ),
                    )
                    for f in _array(cf["flows"], "flows")
                ),
                weight=_number(cf["weight"], "weight"),
            )
            for cf in _array(data["coflows"], "coflows")
        )
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise FormatError(f"instance: malformed record ({exc})") from exc
    return Instance(network=network, coflows=coflows, model=model)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps(instance_to_dict(instance)))


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# schedules


def _sparse(series: np.ndarray) -> list[list[float]]:
    return [[int(t) + 1, float(v)] for t, v in enumerate(series) if v > AMOUNT_EPS]


def _dense(pairs, slots: int, name: str) -> np.ndarray:
    out = np.zeros(slots)
    for t, v in _array(pairs, name):
        t = _integer(t, "slot")
        if not 1 <= t <= slots:
            raise FormatError(f"schedule: slot {t} outside 1..{slots}")
        v = _number(v, "amount")
        if not math.isfinite(v):
            raise FormatError(f"schedule: amount must be finite, got {v!r}")
        out[t - 1] = v
    return out


def schedule_to_dict(schedule: RateSchedule) -> dict:
    coflows = []
    for j, flows in enumerate(schedule.amounts):
        out_flows = []
        for i, amounts in enumerate(flows):
            rec: dict = {"amounts": _sparse(amounts)}
            if schedule.edge_amounts is not None:
                rec["edge_amounts"] = {
                    eid: _sparse(series)
                    for eid, series in sorted(schedule.edge_amounts[j][i].items())
                    if np.any(series > AMOUNT_EPS)
                }
            out_flows.append(rec)
        coflows.append({"flows": out_flows})
    return {
        "format": FORMAT_VERSION,
        "slot_count": schedule.slot_count,
        "coflows": coflows,
    }


def schedule_from_dict(data: dict) -> RateSchedule:
    _check_version(data, "schedule")
    amounts = []
    edge_amounts = []
    has_edges = False
    try:
        slots = _integer(data["slot_count"], "slot_count")
        coflows = [_array(cf["flows"], "flows") for cf in _array(data["coflows"], "coflows")]
        edge_series = [
            [_object(fl.get("edge_amounts", {}), "edge_amounts") for fl in flows] for flows in coflows
        ]
        series = sum(1 + len(edges) for flows in edge_series for edges in flows)
        if slots * series > MAX_SCHEDULE_VALUES:
            raise FormatError(
                f"schedule: {slots:,} slots x {series:,} series is more than "
                f"{MAX_SCHEDULE_VALUES:,} values"
            )
        for flows, flow_series in zip(coflows, edge_series):
            flow_amounts = []
            flow_edges = []
            for fl, series_of in zip(flows, flow_series):
                flow_amounts.append(_dense(fl["amounts"], slots, "amounts"))
                edges = {eid: _dense(pairs, slots, "edge amounts") for eid, pairs in series_of.items()}
                has_edges = has_edges or bool(edges)
                flow_edges.append(edges)
            amounts.append(tuple(flow_amounts))
            edge_amounts.append(tuple(flow_edges))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise FormatError(f"schedule: malformed record ({exc})") from exc
    return RateSchedule(
        slot_count=slots,
        amounts=tuple(amounts),
        edge_amounts=tuple(edge_amounts) if has_edges else None,
    )


def save_schedule(schedule: RateSchedule, path: str | Path) -> None:
    Path(path).write_text(dumps(schedule_to_dict(schedule)))


def load_schedule(path: str | Path) -> RateSchedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# open-shop inputs


def shop_to_dict(shop) -> dict:
    return {
        "format": FORMAT_VERSION,
        "machines": shop.machines,
        "jobs": [
            {"weight": w, "p": list(p)} for w, p in zip(shop.weights, shop.processing)
        ],
    }


def shop_from_dict(data: dict):
    from .openshop import OpenShopInstance

    _check_version(data, "shop")
    try:
        machines = _integer(data["machines"], "machines")
        processing = []
        weights = []
        for job in data["jobs"]:
            p = tuple(_number(v, "processing time") for v in job["p"])
            if len(p) != machines:
                raise FormatError("shop: job processing vector length != machines")
            processing.append(p)
            weights.append(_number(job["weight"], "weight"))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"shop: malformed record ({exc})") from exc
    return OpenShopInstance(
        machines=machines, processing=tuple(processing), weights=tuple(weights)
    )


def load_shop(path: str | Path):
    return shop_from_dict(json.loads(Path(path).read_text()))


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
