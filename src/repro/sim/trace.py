"""Measurement collection for simulation runs.

:class:`Tracer` records named time-series during a run (loss curves,
iteration timestamps, queue occupancy, ...); :class:`StatAccumulator`
keeps streaming summary statistics without storing samples.

Hot-path producers should grab a *channel* once
(``log = tracer.channel(f"iter/{wid}")``) and call it per event: the
key string is formatted and hashed exactly once, and when the channel
is disabled (a ``Tracer`` built with an allowlist of consumed
prefixes) the returned callable is a shared no-op, so unconsumed
series cost nothing per event.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _noop_log(time: float, value: object = None) -> None:
    """Shared sink for disabled tracer channels."""


class Tracer:
    """Records ``(time, value)`` samples under string keys.

    Args:
        channels: Optional allowlist of key *prefixes* (the part before
            the first ``/``).  ``None`` records everything; otherwise
            only series whose prefix is listed are stored and every
            other :meth:`log` / :meth:`channel` becomes a no-op.
    """

    __slots__ = ("_records", "_channels")

    def __init__(self, channels: Optional[Sequence[str]] = None) -> None:
        self._records: Dict[str, List[Tuple[float, object]]] = {}
        self._channels = None if channels is None else frozenset(channels)

    def enabled(self, key: str) -> bool:
        """Whether samples logged under ``key`` are stored."""
        if self._channels is None:
            return True
        return key.partition("/")[0] in self._channels

    def channel(self, key: str) -> Callable[..., None]:
        """A fast-path appender bound to one series.

        Returns ``log(time, value=None)``; a shared no-op when the
        series is disabled, so callers can log unconditionally.
        """
        if not self.enabled(key):
            return _noop_log
        append = self._records.setdefault(key, []).append

        def log(time: float, value: object = None) -> None:
            append((time, value))

        return log

    def log(self, key: str, time: float, value: object = None) -> None:
        """Append one sample to the series ``key``."""
        if not self.enabled(key):
            return
        records = self._records.get(key)
        if records is None:
            records = self._records[key] = []
        records.append((time, value))

    def keys(self) -> List[str]:
        return sorted(self._records.keys())

    def raw(self, key: str) -> List[Tuple[float, object]]:
        """All samples logged for ``key`` (empty list if none)."""
        return list(self._records.get(key, []))

    def count(self, key: str) -> int:
        return len(self._records.get(key, []))

    def last(self, key: str) -> Optional[Tuple[float, object]]:
        records = self._records.get(key)
        return records[-1] if records else None

    def series(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` arrays for a numeric series."""
        records = self._records.get(key, [])
        if not records:
            return np.array([]), np.array([])
        times = np.array([t for t, _ in records], dtype=float)
        values = np.array([v for _, v in records], dtype=float)
        return times, values

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's records into this one (stable order)."""
        for key, records in other._records.items():
            merged = self._records.setdefault(key, [])
            merged.extend(records)
            merged.sort(key=lambda tv: tv[0])

    def __repr__(self) -> str:
        return f"<Tracer keys={len(self._records)}>"


class StatAccumulator:
    """Streaming count/mean/min/max/variance (Welford) accumulator."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }

    def __repr__(self) -> str:
        if not self.count:
            return "<StatAccumulator empty>"
        return (
            f"<StatAccumulator n={self.count} mean={self.mean:.4g} "
            f"min={self.min:.4g} max={self.max:.4g}>"
        )
