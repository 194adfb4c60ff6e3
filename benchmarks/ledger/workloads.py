"""The six workloads: input building, one timed pass of each, the child.

A workload is measured in a fresh child process (clean RSS, clean
allocator).  The end-to-end passes depend on five public entry points
only — ``ScenarioSource``, ``TraceSource``, ``DetectionPipeline.run``,
``StreamingDetectionEngine.process_precomputed``, ``StreamConfig`` —
plus ``upgrade_trace`` for set-up.  Load shape: closed loop, one
client; the pipeline pulls records from its source, so a slower system
simply finishes later.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import time
from dataclasses import dataclass, field

from repro.io.trace import TraceReader, upgrade_trace
from repro.pipeline import DetectionPipeline
from repro.pipeline.sources import ScenarioSource, TraceSource
from repro.stream.engine import StreamConfig, StreamingDetectionEngine

import recorder as rec
import spec

# -- inputs ---------------------------------------------------------------


@dataclass
class Inputs:
    """What one run's workloads consume, and what building it cost."""

    seed: int
    scale: str
    n_bins: int
    warmup_bins: int
    records_per_od: int
    labels: dict[int, str]
    trace_path: str | None = None
    trace_records: int = 0
    trace_bytes: int = 0
    setup_samples: list[float] = field(default_factory=list)
    write_samples: list[float] = field(default_factory=list)
    derive_samples: list[float] = field(default_factory=list)


def _scenario_source(cls, n_bins: int, seed: int, records_per_od: int):
    return cls(
        spec.SCENARIO,
        network=spec.NETWORK,
        n_bins=n_bins,
        seed=seed,
        max_records_per_od=records_per_od,
    )


def build_trace_inputs(seed: int, scale_name: str, workdir: str) -> Inputs:
    """Write + upgrade the shared version-2 trace, ``scale.setups`` times.

    Every build starts from nothing (the previous file is removed), so
    each sample is a full set-up; ``setup_s`` is their median.
    """
    scale = spec.SCALES[scale_name]
    path = os.path.join(workdir, f"shared-seed{seed}.trace")
    samples, writes, derives = [], [], []
    for _ in range(scale.setups):
        if os.path.exists(path):
            os.remove(path)
        t0 = time.perf_counter()
        source = _scenario_source(
            ScenarioSource, scale.trace_bins, seed, scale.trace_records_per_od
        )
        source.write_trace(path)
        t1 = time.perf_counter()
        info = upgrade_trace(path)
        t2 = time.perf_counter()
        samples.append(t2 - t0)
        writes.append(t1 - t0)
        derives.append(t2 - t1)
    return Inputs(
        seed=seed,
        scale=scale_name,
        n_bins=scale.trace_bins,
        warmup_bins=source.scenario.scaled_warmup(scale.trace_bins),
        records_per_od=scale.trace_records_per_od,
        labels=source.labels_by_bin(),
        trace_path=path,
        trace_records=int(info.n_records),
        trace_bytes=os.path.getsize(path),
        setup_samples=samples,
        write_samples=writes,
        derive_samples=derives,
    )


def build_synth_inputs(seed: int, scale_name: str) -> Inputs:
    """``synth-inline`` needs no trace: set-up is constructing the source
    and its ground-truth schedule (topology, events, labels)."""
    scale = spec.SCALES[scale_name]
    samples = []
    # The schedule is cheap, so take more samples than the trace build
    # gets; build 0 pays the lazy imports and is not a sample.
    for build in range(1 + max(5, scale.setups)):
        t0 = time.perf_counter()
        source = _scenario_source(
            ScenarioSource, scale.synth_bins, seed, scale.synth_records_per_od
        )
        labels = source.labels_by_bin()
        if build:
            samples.append(time.perf_counter() - t0)
    return Inputs(
        seed=seed,
        scale=scale_name,
        n_bins=scale.synth_bins,
        warmup_bins=source.scenario.scaled_warmup(scale.synth_bins),
        records_per_od=scale.synth_records_per_od,
        labels=labels,
        setup_samples=samples,
    )


# -- one pass -------------------------------------------------------------


def _config(inputs: Inputs, exact: bool) -> StreamConfig:
    return StreamConfig(
        warmup_bins=inputs.warmup_bins,
        n_components=spec.N_COMPONENTS,
        refit_every=0,
        exact_histograms=exact,
    )


class _Handover:
    """Source mixin: stamps the first chunk of every bin as it is handed
    to the pipeline — the moment the previous bin's last record has been
    delivered, which is where verdict latency starts."""

    def batches(self, chunk_records=None):
        self.handover = handover = {}
        start, width = self.spec.bin_start, self.spec.bin_width
        for chunk in super().batches(chunk_records):
            if len(chunk):
                b = int((chunk.timestamp[0] - start) // width)
                if b not in handover:
                    handover[b] = time.perf_counter()
            yield chunk


class TimedTraceSource(_Handover, TraceSource):
    pass


class TimedScenarioSource(_Handover, ScenarioSource):
    pass


class TimedReader(TraceReader):
    """Precomputed replay pulls bins from the reader, not from chunks:
    bin *b* is delivered when ``read_derived_bin(b)`` returns, and its
    verdict is out when the engine comes back for bin *b+1*."""

    def __init__(self, path):
        super().__init__(path)
        self.delivered: dict[int, float] = {}
        self.asked: dict[int, float] = {}

    def bin_range(self, b):
        if b not in self.asked:
            self.asked[b] = time.perf_counter()
        return super().bin_range(b)

    def read_derived_bin(self, b):
        out = super().read_derived_bin(b)
        self.delivered[b] = time.perf_counter()
        return out


def _verdict(d) -> tuple:
    return (
        int(d.bin),
        bool(d.detected_by_entropy),
        bool(d.detected_by_volume),
        tuple(sorted(int(f.od) for f in d.flows)),
        float(d.spe_entropy),
    )


def _run_row(report, n_records, restarts=0, degraded=False) -> dict:
    return {
        "verdicts": [_verdict(d) for d in report.detections],
        "n_records": int(n_records),
        "n_bins_scored": int(report.n_bins_scored),
        "late_records": int(report.late_records),
        "restarts": int(restarts),
        "degraded": bool(degraded),
    }


def _pipeline_pass(inputs, source, mode, exact, cadence=False, **run_kwargs) -> dict:
    """One ``DetectionPipeline.run`` with the verdict clock attached."""
    pipeline = DetectionPipeline(_config(inputs, exact))
    verdict_at: dict[int, float] = {}

    def on_detection(verdict):
        verdict_at[verdict.bin] = time.perf_counter()

    t0 = time.perf_counter()
    result = pipeline.run(source, mode=mode, on_detection=on_detection, **run_kwargs)
    wall = time.perf_counter() - t0
    if cadence:
        # Cluster workers read the trace themselves, so no hand-over is
        # visible from here: the latency clock for bin b starts when
        # the previous verdict left (closed loop, input always ready).
        stamps = [verdict_at[b] for b in sorted(verdict_at)]
        latencies = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    else:
        handover = source.handover
        latencies = [
            (at - handover[b + 1]) * 1e3
            for b, at in sorted(verdict_at.items())
            if b + 1 in handover
        ]
    return {
        "wall_s": wall,
        "n_records": int(result.n_records),
        "latencies_ms": latencies,
        "shard_records": {int(k): int(v) for k, v in result.shard_records.items()},
        "runs": [_run_row(result.report, result.n_records, result.restarts, result.degraded)],
    }


def _trace_pass(inputs, mode, exact, **kw):
    return _pipeline_pass(inputs, TimedTraceSource(inputs.trace_path), mode, exact, **kw)


def stream_exact(inputs):
    return _trace_pass(inputs, "stream", True)


def stream_sketch(inputs):
    return _trace_pass(inputs, "stream", False)


def batch_exact(inputs):
    return _trace_pass(inputs, "batch", True)


def cluster_2shard(inputs):
    return _trace_pass(inputs, "cluster", True, cadence=True, n_shards=spec.N_SHARDS)


def synth_inline(inputs):
    source = _scenario_source(
        TimedScenarioSource, inputs.n_bins, inputs.seed, inputs.records_per_od
    )
    return _pipeline_pass(inputs, source, "stream", True)


def precomputed_replay(inputs):
    """``replay_passes`` back-to-back passes, a fresh engine each."""
    config = _config(inputs, True)
    topology = TraceSource(inputs.trace_path).topology
    runs, latencies, n_records = [], [], 0
    t0 = time.perf_counter()
    for _ in range(spec.SCALES[inputs.scale].replay_passes):
        engine = StreamingDetectionEngine(topology, config)
        reader = TimedReader(inputs.trace_path)
        report = engine.process_precomputed(reader)
        reader.close()
        n_records += report.n_records
        runs.append(_run_row(report, report.n_records))
        latencies.extend(
            (reader.asked[b + 1] - reader.delivered[b]) * 1e3
            for b in range(inputs.warmup_bins, inputs.n_bins - 1)
        )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "n_records": int(n_records),
        "latencies_ms": latencies,
        "shard_records": {},
        "runs": runs,
    }


def cluster_inprocess_drive(inputs):
    """Both shards driven in turn in this process, over the wire format —
    the path ``tests/test_cluster.py`` pins as equivalent to the real
    run; it is what lets the worker-side layers be traced from outside."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.shard import ShardMonitor

    source = TraceSource(inputs.trace_path)
    config = _config(inputs, True)
    engine = StreamingDetectionEngine(
        source.topology, config,
        bin_width=source.spec.bin_width, start=source.spec.bin_start,
    )
    coordinator = ClusterCoordinator(engine, shard_ids=range(spec.N_SHARDS))
    for shard in range(spec.N_SHARDS):
        monitor = ShardMonitor(
            source.topology,
            bin_width=source.spec.bin_width,
            start=source.spec.bin_start,
            exact=True,
            shard_id=shard,
        )
        chunks = source.shard_batches(
            shard, spec.N_SHARDS, router=monitor.router,
            chunk_records=config.chunk_records,
        )
        for chunk, ods in chunks:
            for summary in monitor.ingest(chunk, ods=ods):
                coordinator.add_serialized(shard, summary.to_bytes())
        for summary in monitor.flush():
            coordinator.add_serialized(shard, summary.to_bytes())
        coordinator.close_shard(shard)
    report = coordinator.finish()
    return _run_row(report, report.n_records)


RUNNERS = {
    "stream-exact": stream_exact,
    "stream-sketch": stream_sketch,
    "batch-exact": batch_exact,
    "precomputed-replay": precomputed_replay,
    "cluster-2shard": cluster_2shard,
    "synth-inline": synth_inline,
}

# -- traced pass ----------------------------------------------------------

#: per-layer metric -> (span name, field of Recorder.totals(), multiplier)
SPAN_METRICS = {
    "net.attribute.busy_s": ("net.attribute", "busy_s", 1),
    "traffic.synth.busy_s": ("traffic.synth", "busy_s", 1),
    "io.replay.busy_s": ("io.replay", "busy_s", 1),
    "flows.anonymize.busy_s": ("flows.anonymize", "busy_s", 1),
    "flows.sketch.update_s": ("flows.sketch.update", "busy_s", 1),
    "flows.sketch.query_s": ("flows.sketch.query", "busy_s", 1),
    "flows.aggregate.self_s": ("flows.aggregate", "self_s", 1),
    "kernels.group_reduce.busy_s": ("kernels.group_reduce", "busy_s", 1),
    "kernels.group_reduce.calls": ("kernels.group_reduce", "calls", 1),
    "kernels.grouped_entropy.busy_s": ("kernels.grouped_entropy", "busy_s", 1),
    "kernels.merge_histograms.busy_s": ("kernels.merge_histograms", "busy_s", 1),
    "stream.ingest.busy_s": ("stream.ingest", "busy_s", 1),
    "stream.ingest.self_s": ("stream.ingest", "self_s", 1),
    "stream.chunks": ("stream.ingest", "calls", 1),
    "stream.finalize.busy_s": ("stream.finalize", "busy_s", 1),
    "stream.bins_closed": ("stream.finalize", "calls", 1),
    "stream.replay.busy_s": ("stream.replay", "busy_s", 1),
    "pipeline.bank.observe_s": ("pipeline.bank.observe", "busy_s", 1),
    "pipeline.bank.observe_max_ms": ("pipeline.bank.observe", "max_s", 1e3),
    "pipeline.glue.self_s": ("pipeline.run", "self_s", 1),
    "core.multiway.observe_s": ("core.multiway.observe", "busy_s", 1),
    "core.multiway.warm_up_s": ("core.multiway.warm_up", "busy_s", 1),
    "core.volume.observe_s": ("core.volume.observe", "busy_s", 1),
    "core.identify.busy_s": ("core.identify", "busy_s", 1),
    "core.classifier.assign_s": ("core.classifier.assign", "busy_s", 1),
    "cluster.shard_scan.busy_s": ("cluster.shard_scan", "busy_s", 1),
    "cluster.export.busy_s": ("cluster.export", "busy_s", 1),
    "cluster.to_bytes.busy_s": ("cluster.to_bytes", "busy_s", 1),
    "cluster.from_bytes.busy_s": ("cluster.from_bytes", "busy_s", 1),
    "cluster.merge.busy_s": ("cluster.merge", "busy_s", 1),
    "cluster.to_bin_summary.busy_s": ("cluster.to_bin_summary", "busy_s", 1),
}

COUNTER_METRICS = (
    "net.attribute.records",
    "traffic.synth.records",
    "io.replay.records",
    "io.replay.bytes",
    "flows.sketch.updates",
    "kernels.group_reduce.rows",
    "cluster.bytes_shipped",
)


def layer_values(recorder: rec.Recorder) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced pass."""
    totals = recorder.totals()
    values = {
        metric: totals[span][key] * factor if span in totals else 0.0
        for metric, (span, key, factor) in SPAN_METRICS.items()
    }
    for counter in COUNTER_METRICS:
        values[counter] = recorder.counts.get(counter, 0)
    return values


def _traced(fn, inputs, only=None):
    """Run ``fn(inputs)`` under a root span with wrappers installed."""
    recorder = rec.Recorder()
    handle = rec.install(recorder, only)
    try:
        root = recorder.begin("pipeline.run")
        try:
            result = fn(inputs)
        finally:
            recorder.end(root)
    finally:
        handle.restore()
    return recorder, handle, result


def traced_pass(workload: str, inputs: Inputs) -> dict:
    """One traced pass: per-layer values, the pass itself, the spans."""
    if workload != "cluster-2shard":
        recorder, handle, result = _traced(RUNNERS[workload], inputs)
        return {
            "pass": result,
            "layers": layer_values(recorder),
            "missing": handle.missing + sorted(handle.broken_counters),
            "spans": recorder.dump(),
        }
    # (a) worker-side layers from the in-process drive of both shards;
    # (b) the real 2-process run with only the coordinator wrapped.
    drive_rec, drive_handle, drive_run = _traced(cluster_inprocess_drive, inputs)
    layers = layer_values(drive_rec)
    real_rec, _, result = _traced(
        cluster_2shard, inputs, only=rec.COORDINATOR_ONLY
    )
    result["runs"].append(drive_run)  # the drive must agree with the real run
    root = real_rec.spans[0]
    wall = root[rec.END] - root[rec.START]
    busy = real_rec.totals().get("cluster.coordinator", {"busy_s": 0.0})["busy_s"]
    first = real_rec.first_start("cluster.coordinator")
    shard_records = list(result["shard_records"].values())
    layers.update({
        "cluster.coordinator.busy_s": busy,
        "cluster.coordinator.wait_share": 1.0 - busy / wall,
        "cluster.first_summary_s": first - root[rec.START] if first is not None else 0.0,
        "cluster.shard_skew": (
            max(shard_records) / min(shard_records)
            if shard_records and min(shard_records) > 0 else 0.0
        ),
        "cluster.restarts": result["runs"][0]["restarts"],
    })
    return {
        "pass": result,
        "layers": layers,
        "missing": drive_handle.missing + sorted(drive_handle.broken_counters),
        "spans": {"in_process_drive": drive_rec.dump(), "real_run": real_rec.dump()},
    }


# -- the child ------------------------------------------------------------


def _timed_passes(fn, seconds: float, min_passes: int) -> list:
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < min_passes or time.perf_counter() < deadline:
        out.append(fn())
    return out


def _peak_rss_mb() -> float:
    """This process's RSS high-water mark.  ``VmHWM`` restarts at exec;
    ``ru_maxrss`` does not (it carries the parent's RSS at fork across
    the exec), so it is only the fallback."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(job: dict) -> dict:
    """Everything one child does: warm-up, timed passes, traced passes.

    ``job`` keys: ``workload``, ``inputs`` (:class:`Inputs`), ``seconds``,
    ``trace``, ``min_passes``, ``warm_up``, ``spans_path``.
    """
    workload, inputs = job["workload"], job["inputs"]
    runner = RUNNERS[workload]
    if job["warm_up"]:
        runner(inputs)  # page cache, lazy imports, thread pools: untimed
    gc.collect()
    # With tracing on, a third of the time still goes to plain passes:
    # trace_overhead_pct needs an untraced median from the same process.
    plain_seconds = job["seconds"] / 3 if job["trace"] else job["seconds"]
    passes = _timed_passes(lambda: runner(inputs), plain_seconds, job["min_passes"])
    out = {
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(),
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "traced": [],
    }
    if job["trace"]:
        last = {}

        def one():
            row = traced_pass(workload, inputs)
            last["spans"] = row.pop("spans")  # keep only the latest pass's spans
            return row

        out["traced"] = _timed_passes(
            one, job["seconds"] - plain_seconds, job["min_passes"]
        )
        with open(job["spans_path"], "w") as fh:
            json.dump({"workload": workload, "spans": last["spans"]}, fh)
    return out


def child_main(job_path: str, result_path: str) -> int:
    """Child entry point (``run.py --child``): job file in, result file out."""
    with open(job_path, "rb") as fh:
        job = pickle.load(fh)  # written by the parent run.py, nobody else
    result = measure(job)
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0
