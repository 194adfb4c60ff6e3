"""DetectionPipeline: one composable engine behind every deployment mode.

The paper's method is a single pipeline — records → binned feature
distributions → entropy → (multiway) subspace detection → diagnosis —
and this module is its one execution engine::

    RecordSource  →  BinReducer  →  DetectorBank  →  report
    (synthetic,      (StreamFeature-  (entropy multiway,
     trace replay,    Stage / ODFlow-  volume baseline,
     scenario,        Aggregator /     online classifier)
     cluster ingest)  ShardMonitor)

:meth:`DetectionPipeline.run` drives the same stages in three modes:

* ``"stream"`` — the online deployment: chunks roll through a
  :class:`repro.stream.window.StreamFeatureStage`, every closed bin is
  scored immediately (bounded memory, zero detection latency);
* ``"batch"`` — the paper's offline deployment: the whole stream is
  reduced into a :class:`repro.flows.odflows.TrafficCube` first (one
  kernel pass over composite ``bin*p+od`` keys), then the *same*
  detector bank scores the bins in order;
* ``"cluster"`` — the sharded deployment: worker processes finish
  their OD-flow slices into per-bin entropy rows and ship them over one
  framed link each (local workers, or remote ones dialling in to
  ``listen``), and the coordinator scatters and scores them with the
  same bank (:func:`repro.cluster.runner.run_cluster_source`).

Because every mode reduces the same records with the same kernels and
scores them with the same bank, exact-histogram detections are
identical across all three — the parity contract
``tests/test_pipeline.py`` pins for every registered scenario.

The pre-existing entry points — ``StreamingDetectionEngine``,
``AnomalyDiagnosis`` — remain as thin configurations of these same
stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry as tel
from repro.pipeline.report import StreamDetection, StreamingReport
from repro.pipeline.sources import RecordSource, SourceSpec, TraceSource, build_source
from repro.stream.window import BinSummary

__all__ = ["DetectionPipeline", "PipelineResult", "MODES"]

MODES = ("batch", "stream", "cluster")


@dataclass
class PipelineResult:
    """Outcome of one :meth:`DetectionPipeline.run`.

    Attributes:
        report: The accumulated :class:`StreamingReport` (same shape in
            every mode; ``to_diagnosis_report()`` applies).
        mode: The deployment mode that produced it.
        n_records: Records ingested end-to-end.
        elapsed: Wall-clock seconds for the whole run.
        shard_records: Per-shard record counts (cluster mode only).
        degraded: The run completed without one or more shards, whose
            missing bins are gaps (cluster mode; mirrored in meta).
        restarts: Worker restarts the supervisor performed (cluster
            mode).
    """

    report: StreamingReport
    mode: str
    n_records: int
    elapsed: float
    shard_records: dict[int, int] = field(default_factory=dict)
    degraded: bool = False
    restarts: int = 0

    @property
    def records_per_sec(self) -> float:
        """End-to-end ingest throughput."""
        return self.n_records / self.elapsed if self.elapsed > 0 else float("inf")

    @property
    def meta(self) -> dict:
        """The report's provenance metadata."""
        return self.report.meta


class _CountingChunks:
    """Pass-through iterator counting records and per-bin occupancy."""

    def __init__(self, chunks, bins):
        self._chunks = chunks
        self._bins = bins
        self.n_records = 0
        self.bin_counts = np.zeros(bins.n_bins, dtype=np.int64)

    def __iter__(self):
        for chunk in self._chunks:
            self.n_records += len(chunk)
            idx = self._bins.indices(chunk.timestamp)
            idx = idx[idx >= 0]
            if idx.size:
                self.bin_counts += np.bincount(idx, minlength=self._bins.n_bins)
            yield chunk


class DetectionPipeline:
    """The detector bank runnable over any source in any mode.

    Usage::

        pipeline = DetectionPipeline(StreamConfig(warmup_bins=48))
        result = pipeline.run(ScenarioSource("ddos-burst"), mode="stream")
        result = pipeline.run("abilene.trace", mode="batch")
        result = pipeline.run(trace_source, mode="cluster", n_shards=4)

    Args:
        config: A :class:`repro.stream.engine.StreamConfig` (all knobs:
            warm-up, subspace dimensions, sketch geometry, chunking).
    """

    def __init__(self, config=None) -> None:
        from repro.stream.engine import StreamConfig

        self.config = config or StreamConfig()

    # -- engine assembly -------------------------------------------------

    def _engine(self, source: RecordSource, mode: str, meta: dict | None):
        from repro.stream.engine import StreamingDetectionEngine

        engine = StreamingDetectionEngine(
            source.topology,
            self.config,
            bin_width=source.spec.bin_width,
            start=source.spec.bin_start,
        )
        engine.meta.update(source.provenance)
        engine.meta["mode"] = mode
        engine.meta.update(meta or {})
        return engine

    @staticmethod
    def _normalize(source) -> RecordSource:
        if isinstance(source, RecordSource):
            return source
        if isinstance(source, SourceSpec):
            return build_source(source)
        if isinstance(source, (str, Path)):
            return TraceSource(source)
        raise ValueError(
            f"cannot interpret {type(source).__name__} as a record source; "
            "pass a RecordSource, a SourceSpec, or a trace path"
        )

    # -- modes -----------------------------------------------------------

    def run(
        self,
        source,
        mode: str = "stream",
        n_shards: int = 2,
        on_detection: Callable[[StreamDetection], None] | None = None,
        meta: dict | None = None,
        resilience=None,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        chaos=None,
        listen=None,
    ) -> PipelineResult:
        """Run the full pipeline over a source in the chosen mode.

        Args:
            source: A :class:`RecordSource`, a :class:`SourceSpec`, or
                a trace-file path.
            mode: ``"batch"``, ``"stream"``, or ``"cluster"``.
            n_shards: Worker processes (cluster mode).
            on_detection: Callback invoked with each verdict as bins
                are scored (all modes).
            meta: Extra provenance merged into the report metadata.
            resilience: A :class:`repro.resilience.ResiliencePolicy`
                governing restarts, deadlines, and degraded completion
                (cluster mode only).
            checkpoint: Path the coordinator spills closed bins to
                (cluster mode only).
            resume: Replay ``checkpoint`` before spawning workers
                (cluster mode only).
            chaos: A :class:`repro.resilience.FaultPlan` or spec string
                injecting deterministic worker faults (cluster mode
                only; testing aid).
            listen: ``HOST:PORT`` to await external ``repro worker``
                processes instead of spawning local ones (cluster mode
                only; see :mod:`repro.cluster.transport`).

        Returns:
            A :class:`PipelineResult`; exact-histogram detections are
            identical whichever mode ran.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if mode != "cluster":
            cluster_only = {
                "resilience": resilience,
                "checkpoint": checkpoint,
                "chaos": chaos,
                "resume": resume or None,
                "listen": listen,
            }
            given = [k for k, v in cluster_only.items() if v is not None]
            if given:
                raise ValueError(
                    f"{', '.join(given)} only apply to cluster mode "
                    f"(mode={mode!r} runs in-process; there are no workers "
                    "to supervise)"
                )
        source = self._normalize(source)
        if mode == "cluster":
            from repro.cluster.runner import run_cluster_source

            return run_cluster_source(
                source,
                n_shards=n_shards,
                config=self.config,
                on_detection=on_detection,
                meta=meta,
                resilience=resilience,
                checkpoint=checkpoint,
                resume=resume,
                chaos=chaos,
                listen=listen,
            )
        if mode == "batch":
            return self._run_batch(source, on_detection, meta)
        return self._run_stream(source, on_detection, meta)

    def _run_stream(self, source, on_detection, meta) -> PipelineResult:
        engine = self._engine(source, "stream", meta)
        start = time.perf_counter()
        chunks = tel.timed_iter(source.batches(), "stage.source")
        for verdict in engine.events(chunks):
            if on_detection is not None:
                on_detection(verdict)
        with tel.span("stage.report"):
            report = engine.finish()
        elapsed = time.perf_counter() - start
        return PipelineResult(
            report=report,
            mode="stream",
            n_records=report.n_records,
            elapsed=elapsed,
        )

    def _run_batch(self, source, on_detection, meta) -> PipelineResult:
        from repro.flows.odflows import ODFlowAggregator

        engine = self._engine(source, "batch", meta)
        start = time.perf_counter()
        bins = source.bins
        counted = _CountingChunks(
            source.batches(chunk_records=self.config.chunk_records), bins
        )
        # stage.source nests inside stage.reduce here (the aggregator
        # pulls chunks); span child-credits keep the stats additive.
        chunks = tel.timed_iter(counted, "stage.source")
        with tel.span("stage.reduce"):
            cube = ODFlowAggregator(source.topology).aggregate_stream(chunks, bins)
        # Same summaries the feature stage would emit, scored by the
        # same bank — only the reduction order differed.
        for b in range(cube.n_bins):
            summary = BinSummary(
                bin=b,
                entropy=cube.entropy[b],
                packets=cube.packets[b],
                bytes=cube.bytes[b],
                n_records=int(counted.bin_counts[b]),
            )
            verdict = engine.observe_summary(summary)
            if verdict is not None and on_detection is not None:
                on_detection(verdict)
        with tel.span("stage.report"):
            report = engine.finish()
        report.n_records = counted.n_records
        elapsed = time.perf_counter() - start
        return PipelineResult(
            report=report,
            mode="batch",
            n_records=counted.n_records,
            elapsed=elapsed,
        )
