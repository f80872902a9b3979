"""Process-local, thread-safe metrics: counters, gauges and histograms.

Instruments live in named :class:`MetricsRegistry` instances (the
``"default"`` registry serves the whole instrumented stack).  Snapshots
are plain dicts — JSON-ready so they ride the existing result channels —
and :func:`merge_snapshots` folds any number of worker snapshots into
one fleet view.  The merge is **order-independent** (commutative and
associative): counters and histogram buckets add, gauges keep the max,
histogram min/max widen.  Histogram buckets are powers of two — a value
``v`` lands in the bucket whose key is the binary exponent ``e`` with
``2**(e-1) < v <= 2**e`` — so merging never requires rebinning.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "registry",
]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (fleet padding waste, peak chunk bytes, ...)."""

    kind = "gauge"
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Count/total/min/max plus power-of-two buckets of observed values."""

    kind = "histogram"
    __slots__ = ("_lock", "count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count: int = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        exponent = bucket_exponent(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # JSON objects have string keys; keep the snapshot JSON-ready
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
        }


def bucket_exponent(value: float) -> int:
    """Binary exponent ``e`` such that ``2**(e-1) < value <= 2**e``.

    Non-positive and non-finite values collapse into bucket 0 — the
    histograms here observe durations and sizes, where those are noise.
    """
    if not math.isfinite(value) or value <= 0:
        return 0
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    if mantissa == 0.5:  # exact power of two: frexp says 2**e = 0.5 * 2**(e+1)
        return exponent - 1
    return exponent


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named, thread-safe collection of metrics with dict snapshots."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _instrument(self, name: str, cls: type) -> Counter | Gauge | Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls()
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> dict:
        """A JSON-ready ``{"registry": ..., "metrics": {name: {...}}}`` dict."""
        with self._lock:
            items = list(self._metrics.items())
        return {
            "registry": self.name,
            "metrics": {name: metric.as_dict() for name, metric in items},
        }

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_REGISTRIES: dict[str, MetricsRegistry] = {}
_REGISTRIES_LOCK = threading.Lock()


def registry(name: str = "default") -> MetricsRegistry:
    """The process-wide registry with this name (created on first use)."""
    with _REGISTRIES_LOCK:
        instance = _REGISTRIES.get(name)
        if instance is None:
            instance = MetricsRegistry(name)
            _REGISTRIES[name] = instance
        return instance


def _merge_metric(merged: dict, incoming: dict, name: str) -> dict:
    kind = incoming.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
    if merged.get("kind") != kind:
        raise ValueError(
            f"metric {name!r} merges a {merged.get('kind')} with a {kind}"
        )
    if kind == "counter":
        merged["value"] += incoming["value"]
    elif kind == "gauge":
        merged["value"] = max(merged["value"], incoming["value"])
    else:
        merged["count"] += incoming["count"]
        merged["total"] += incoming["total"]
        for bound in ("min", "max"):
            ours, theirs = merged[bound], incoming[bound]
            if ours is None:
                merged[bound] = theirs
            elif theirs is not None:
                merged[bound] = (min if bound == "min" else max)(ours, theirs)
        buckets = merged["buckets"]
        for exponent, count in incoming["buckets"].items():
            buckets[exponent] = buckets.get(exponent, 0) + count
    return merged


def merge_snapshots(snapshots: Iterable[dict], name: str = "merged") -> dict:
    """Fold registry snapshots into one; commutative and associative.

    Counters and histogram contents add; gauges keep the maximum; the
    result is a snapshot-shaped dict named ``name``.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for metric_name, payload in snapshot.get("metrics", {}).items():
            incoming = {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in payload.items()
            }
            if metric_name not in merged:
                merged[metric_name] = incoming
            else:
                _merge_metric(merged[metric_name], incoming, metric_name)
    return {"registry": name, "metrics": merged}
