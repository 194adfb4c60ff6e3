"""Process-wide counters, gauges, and a sampling RSS/CPU poller.

Counters are monotonically increasing tallies (records ingested, bins
closed, sketch collisions); gauges hold last-seen or peak values (queue
depth, straggler lag).  Both live behind one lock — they are touched
per chunk/bin, never per record, so contention is negligible.

Resource sampling uses only the standard library: resident set size
from ``/proc/self/statm`` (falling back to ``ru_maxrss`` where procfs
is unavailable) and CPU seconds from :func:`resource.getrusage`.  The
:class:`ResourcePoller` daemon thread samples on an interval and keeps
the peak, so a snapshot carries honest high-water marks instead of the
value at exit.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None  # type: ignore[assignment]

_STATM = "/proc/self/statm"
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_SIZE = 4096


def sample_rss_bytes() -> int:
    """Current resident set size in bytes (best effort, zero deps)."""
    try:
        with open(_STATM, "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    if _resource is not None:  # pragma: no cover - non-procfs fallback
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS.
        scale = 1 if usage.ru_maxrss > 1 << 32 else 1024
        return int(usage.ru_maxrss) * scale
    return 0  # pragma: no cover


def sample_cpu_seconds() -> Dict[str, float]:
    """User/system CPU seconds for this process (children excluded)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return {"utime_s": 0.0, "stime_s": 0.0}
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return {"utime_s": usage.ru_utime, "stime_s": usage.ru_stime}


class CounterSet:
    """Thread-safe named counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def get(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(name, default)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(sorted(self._gauges.items()))


def merge_counters(*snapshots: Dict[str, int]) -> Dict[str, int]:
    """Sum counter snapshots (counters are additive across shards)."""
    merged: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            merged[name] = merged.get(name, 0) + value
    return dict(sorted(merged.items()))


def merge_gauges(*snapshots: Dict[str, float]) -> Dict[str, float]:
    """Max-merge gauge snapshots (gauges report worst-case/peak)."""
    merged: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name not in merged or value > merged[name]:
                merged[name] = value
    return dict(sorted(merged.items()))


class ResourcePoller:
    """Daemon thread sampling RSS/CPU on an interval, tracking peaks.

    Safe to snapshot without starting (takes one synchronous sample),
    and safe to stop twice.  After :func:`os.fork` the thread does not
    exist in the child — build a fresh poller there instead of reusing
    the inherited object.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.n_samples = 0
        self.peak_rss_bytes = 0
        self._sample()

    def _sample(self) -> None:
        rss = sample_rss_bytes()
        with self._lock:
            self.n_samples += 1
            if rss > self.peak_rss_bytes:
                self.peak_rss_bytes = rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self) -> "ResourcePoller":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry-poller", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=1.0)
        self._thread = None

    def snapshot(self) -> Dict[str, float]:
        self._sample()
        with self._lock:
            out: Dict[str, float] = {
                "rss_bytes": sample_rss_bytes(),
                "peak_rss_bytes": self.peak_rss_bytes,
                "n_samples": self.n_samples,
                "poll_interval_s": self.interval_s,
            }
        out.update(sample_cpu_seconds())
        return out


def merge_resources(*snapshots: Dict[str, float]) -> Dict[str, float]:
    """Merge resource snapshots: peaks max, CPU seconds and samples sum."""
    merged: Dict[str, float] = {}
    for snap in snapshots:
        if not merged:
            merged = dict(snap)
            continue
        for key in ("rss_bytes", "peak_rss_bytes"):
            merged[key] = max(merged.get(key, 0), snap.get(key, 0))
        for key in ("n_samples", "utime_s", "stime_s"):
            merged[key] = merged.get(key, 0) + snap.get(key, 0)
        if "poll_interval_s" in snap:
            merged.setdefault("poll_interval_s", snap["poll_interval_s"])
    return merged
