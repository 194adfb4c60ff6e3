"""Span recorder and outside-in wrappers for the traced run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public callables: nothing under ``src/`` is edited.  A
span is ``[parent index, name, start, end, bin]`` in one in-memory
list (its index is its id); ``install`` wraps the callables named in
:data:`TARGETS` and ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PARENT, NAME, START, END, BIN = range(5)


class Recorder:
    """In-memory span list with a parent stack, plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str, bin_index=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if bin_index is None and parent >= 0:
            bin_index = self.spans[parent][BIN]
        self.spans.append([parent, name, time.perf_counter(), None, bin_index])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span ended out of order")

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``busy_s``, ``self_s``, ``max_s``.

        ``busy_s`` sums only spans with no same-named ancestor, so a
        wrapper nested in another wrapper of the same layer boundary is
        not counted twice.  ``self_s`` is every span's duration minus
        the part its direct children cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            )
            duration = span[END] - span[START]
            row["self_s"] += duration - child_time[index]
            ancestor = span[PARENT]
            while ancestor >= 0 and self.spans[ancestor][NAME] != span[NAME]:
                ancestor = self.spans[ancestor][PARENT]
            if ancestor < 0:
                row["calls"] += 1
                row["busy_s"] += duration
                row["max_s"] = max(row["max_s"], duration)
        return out

    def first_start(self, name: str) -> float | None:
        """Start time of the first span called ``name``."""
        for span in self.spans:
            if span[NAME] == name:
                return span[START]
        return None

    def dump(self) -> list[dict]:
        """Spans as JSON-ready rows, times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][START]
        return [
            {
                "id": index,
                "parent": span[PARENT],
                "name": span[NAME],
                "start_s": span[START] - origin,
                "end_s": span[END] - origin,
                "bin": span[BIN],
            }
            for index, span in enumerate(self.spans)
        ]


def _nbytes(obj) -> int:
    """Bytes of the arrays a replay call handed out (views count)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    slots = getattr(type(obj), "__slots__", ())
    return sum(_nbytes(getattr(obj, slot)) for slot in slots)


def _records(obj) -> int:
    """Records in a yielded chunk, ``(chunk, ods)`` pair or ``(ods, runids)``."""
    if isinstance(obj, tuple):
        obj = obj[0]
    return len(obj)


# -- wrap targets ---------------------------------------------------------
# (span name, module, dotted attribute, kind, counters)
#   kind "call": one span per call; "iter": one span per next() of the
#   iterator the call returns.
#   counters: {counter name: f(args, kwargs, result)} evaluated per
#   call (per yielded item for "iter", with result = the item).

_REPLAY_COUNTS = {
    "io.replay.records": lambda a, k, r: _records(r),
    "io.replay.bytes": lambda a, k, r: _nbytes(r),
}

TARGETS = (
    ("net.attribute", "repro.net.routing", "Router.resolve_ods_mixed", "call",
     {"net.attribute.records": lambda a, k, r: len(r)}),
    ("traffic.synth", "repro.pipeline.sources", "ScenarioSource.batches", "iter",
     {"traffic.synth.records": lambda a, k, r: _records(r)}),
    ("io.replay", "repro.stream.chunks", "trace_record_stream", "iter", _REPLAY_COUNTS),
    # Nested in trace_record_stream on the stream path (not counted
    # twice, see Recorder.totals); outermost on the cluster shard scan,
    # where cluster.shard_scan is the boundary that counts records.
    ("io.replay", "repro.io.trace", "TraceReader.iter_chunks", "iter", {}),
    ("io.replay", "repro.io.trace", "TraceReader.read_derived_bin", "call", _REPLAY_COUNTS),
    ("flows.anonymize", "repro.flows.records", "FlowRecordBatch.anonymized", "call", {}),
    ("flows.sketch.update", "repro.flows.sketches", "SketchBank.update", "call",
     {"flows.sketch.updates": lambda a, k, r: len(a[3])}),
    ("flows.sketch.query", "repro.flows.sketches", "SketchBank.query_runs", "call", {}),
    ("flows.sketch.query", "repro.flows.sketches", "entropy_from_sketch_runs", "call", {}),
    ("flows.aggregate", "repro.flows.odflows", "ODFlowAggregator.aggregate_stream", "call", {}),
    ("kernels.group_reduce", "repro.kernels.grouped", "group_reduce", "call",
     {"kernels.group_reduce.rows": lambda a, k, r: len(a[0])}),
    ("kernels.grouped_entropy", "repro.kernels.grouped", "grouped_entropy", "call", {}),
    ("kernels.merge_histograms", "repro.kernels.grouped", "merge_histograms", "call", {}),
    ("stream.ingest", "repro.stream.window", "StreamFeatureStage.ingest", "call", {}),
    ("stream.finalize", "repro.stream.window", "BinAccumulator.finalize", "call", {}),
    ("stream.replay", "repro.stream.replay", "bin_summary_from_derived", "call", {}),
    ("pipeline.bank.observe", "repro.pipeline.bank", "DetectorBank.observe", "call", {}),
    ("core.multiway.observe", "repro.core.online", "OnlineMultiwayDetector.observe", "call", {}),
    ("core.multiway.warm_up", "repro.core.online", "OnlineMultiwayDetector.warm_up", "call", {}),
    ("core.volume.observe", "repro.core.online", "OnlineVolumeDetector.observe", "call", {}),
    ("core.identify", "repro.core.identification", "identify_flows", "call", {}),
    ("core.classifier.assign", "repro.core.online", "OnlineClassifier.assign", "call", {}),
    ("cluster.shard_scan", "repro.pipeline.sources", "TraceSource.shard_batches", "iter", {}),
    ("cluster.export", "repro.cluster.summary", "ShardBinSummary.from_accumulator", "call", {}),
    ("cluster.to_bytes", "repro.cluster.summary", "ShardBinSummary.to_bytes", "call",
     {"cluster.bytes_shipped": lambda a, k, r: len(r)}),
    ("cluster.from_bytes", "repro.cluster.summary", "ShardBinSummary.from_bytes", "call", {}),
    ("cluster.merge", "repro.cluster.summary", "ShardBinSummary.merge", "call", {}),
    ("cluster.merge", "repro.cluster.summary", "merge_summaries", "call", {}),
    ("cluster.to_bin_summary", "repro.cluster.summary", "ShardBinSummary.to_bin_summary", "call", {}),
    ("cluster.coordinator", "repro.cluster.coordinator", "ClusterCoordinator.add_serialized", "call", {}),
    ("cluster.coordinator", "repro.cluster.coordinator", "ClusterCoordinator.close_shard", "call", {}),
)

#: The only wrappers installed in the parent of the real 2-process run.
COORDINATOR_ONLY = ("cluster.coordinator",)

_COUNT_ERRORS = (TypeError, IndexError, AttributeError, KeyError)


def _bin_of(args):
    """Bin index from a call's arguments, where one is recognisable:
    ``finalize(self, bin_index)`` or ``observe(self, summary)``."""
    if len(args) >= 2:
        second = args[1]
        if isinstance(second, int):
            return second
        bin_index = getattr(second, "bin", None)
        if isinstance(bin_index, int):
            return bin_index
    return None


def _wrap(recorder: Recorder, name: str, fn, kind: str, counters: dict, broken: set):
    def count(args, kwargs, result):
        for counter, extract in counters.items():
            try:
                recorder.counts[counter] += extract(args, kwargs, result)
            except _COUNT_ERRORS:
                broken.add(counter)

    if kind == "call":
        tag_bin = name in ("stream.finalize", "pipeline.bank.observe")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name, _bin_of(args) if tag_bin else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            count(args, kwargs, result)
            return result

        return wrapper

    @functools.wraps(fn)
    def iter_wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        done = object()
        while True:
            # Only the time inside next() belongs to the producer.
            index = recorder.begin(name)
            try:
                item = next(iterator, done)
            finally:
                recorder.end(index)
            if item is done:
                return
            count(args, kwargs, item)
            yield item

    return iter_wrapper


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes it."""

    def __init__(self) -> None:
        self.missing: list[str] = []  # targets a refactor renamed away
        self.broken_counters: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._rebound: list[tuple[object, object]] = []  # (original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        # A module imported while wrappers were installed may have
        # copied one with ``from x import f``: sweep those too.
        for original, wrapper in self._rebound:
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, key, original)
        self._undo.clear()
        self._rebound.clear()


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: Recorder, only: tuple[str, ...] | None = None) -> Installed:
    """Wrap every :data:`TARGETS` callable (or those named in ``only``).

    Methods are replaced on their class; a module-level function is
    rebound in every ``repro.*`` module global that ``is`` the
    original, so ``from x import f`` copies are traced too.  A target
    that no longer exists is listed in ``Installed.missing`` and its
    metrics read 0 — never a failed benchmark.
    """
    handle = Installed()
    for name, module_name, dotted, kind, counters in TARGETS:
        if only is not None and name not in only:
            continue
        label = f"{module_name}.{dotted}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            handle.missing.append(label)
            continue
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, attr):
            handle.missing.append(label)
            continue
        if owner is module:
            original = getattr(module, attr)
            wrapper = _wrap(recorder, name, original, kind, counters, handle.broken_counters)
            for mod in _repro_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        handle._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
            handle._rebound.append((original, wrapper))
            continue
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            inner = _wrap(recorder, name, static.__func__, kind, counters, handle.broken_counters)
            wrapper = type(static)(inner)
        else:
            wrapper = _wrap(recorder, name, static, kind, counters, handle.broken_counters)
        handle._undo.append((owner, attr, static))
        setattr(owner, attr, wrapper)
    return handle
