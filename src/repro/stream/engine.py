"""The streaming detection engine: records in, diagnosed anomalies out.

This is the online pipeline the paper names as the key open problem in
Section 8.  Since the ``repro.pipeline`` refactor the engine is a thin
composition of two shared pieces — it owns no scoring logic of its own:

1. **features** — :class:`repro.stream.window.StreamFeatureStage`, the
   bin reducer rolling time-ordered record chunks into per-bin
   ``(p, 4)`` entropy matrices (Count-Min sketches or exact
   kernel-reduced histograms);
2. **detection + classification** —
   :class:`repro.pipeline.bank.DetectorBank`, the scoring core
   (multiway entropy subspace, volume baseline, online classifier)
   shared with batch mode and the cluster coordinator.

The engine either warms up from a historical
:class:`repro.flows.odflows.TrafficCube` or accumulates its first
``warmup_bins`` summaries from the stream itself; afterwards every
closed bin produces a :class:`StreamDetection` verdict, and
:meth:`StreamingReport.to_diagnosis_report` renders the accumulated run
in the same :class:`repro.core.detector.DiagnosisReport` shape the
batch pipeline emits — so tables, exports and tests work on either.
(`StreamDetection`/`StreamingReport` live in
:mod:`repro.pipeline.report` and are re-exported here.)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.subspace import DEFAULT_ALPHA, DEFAULT_N_COMPONENTS
from repro.flows.binning import BIN_SECONDS
from repro.flows.odflows import TrafficCube
from repro.flows.records import FlowRecordBatch
from repro.net.topology import Topology
from repro.pipeline.bank import DetectorBank
from repro.pipeline.report import StreamDetection, StreamingReport
from repro.stream.chunks import DEFAULT_CHUNK_RECORDS, iter_record_chunks
from repro.stream.window import BinSummary, StreamFeatureStage

__all__ = ["StreamConfig", "StreamDetection", "StreamingReport", "StreamingDetectionEngine"]


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming engine.

    Attributes:
        warmup_bins: Bins accumulated before fitting when warming up
            from the stream itself, and the length of every detector's
            sliding refit buffer (a historical cube passed to
            :meth:`StreamingDetectionEngine.warm_up` seeds it with its
            trailing ``warmup_bins`` bins).
        refit_every: Clean bins between refits (0 freezes the model).
        n_components: Normal-subspace dimension (paper default 10).
        alpha: Q-statistic confidence level (paper default 0.999).
        drift_reset_after: Consecutive detections treated as concept
            drift (absorb + refit); 0 disables.
        volume_transform / volume_detrend: Stabilisers for the online
            volume path (see
            :class:`repro.core.online.OnlineVolumeDetector`); the
            defaults make short sub-diurnal warm-ups usable.  Set both
            to ``"none"`` (and ``calibration_margin=0``) to score
            volumes exactly like the batch baseline.
        calibration_margin: Empirical threshold floor for the entropy
            detector — margin * max in-window SPE; 0 keeps the pure
            Q_alpha threshold.
        volume_calibration_margin: Same floor for the volume detectors.
            Volume anomalies sit orders of magnitude above the noise, so
            a much larger margin costs no sensitivity and silences
            post-attack forecast echoes.
        sketch_width / sketch_depth / sketch_seed: Count-Min geometry.
        exact_histograms: Bypass sketches (exact per-value histograms).
        chunk_records: Re-chunking bound for :meth:`process`.
    """

    warmup_bins: int = 288
    refit_every: int = 288
    n_components: int | None = DEFAULT_N_COMPONENTS
    alpha: float = DEFAULT_ALPHA
    drift_reset_after: int = 12
    volume_transform: str = "sqrt"
    volume_detrend: str = "holt"
    calibration_margin: float = 1.25
    volume_calibration_margin: float = 2.5
    sketch_width: int = 2048
    sketch_depth: int = 4
    sketch_seed: int = 0
    exact_histograms: bool = False
    chunk_records: int = DEFAULT_CHUNK_RECORDS


class StreamingDetectionEngine:
    """Chunked, sketch-backed online anomaly diagnosis.

    Usage (cold start, warming up from the stream itself)::

        engine = StreamingDetectionEngine(abilene(), StreamConfig(warmup_bins=96))
        report = engine.process(record_chunks)

    or with a historical cube::

        engine.warm_up(history_cube)
        for chunk in live_chunks:
            for verdict in engine.ingest(chunk):
                ...
        report = engine.finish()
    """

    def __init__(
        self,
        topology: Topology,
        config: StreamConfig | None = None,
        bin_width: float = BIN_SECONDS,
        start: float = 0.0,
    ) -> None:
        self.topology = topology
        self.config = config or StreamConfig()
        cfg = self.config
        self.stage = StreamFeatureStage(
            topology,
            bin_width=bin_width,
            start=start,
            width=cfg.sketch_width,
            depth=cfg.sketch_depth,
            sketch_seed=cfg.sketch_seed,
            exact=cfg.exact_histograms,
        )
        self.bank = DetectorBank(cfg)
        #: Free-form provenance copied onto the final report (scenario
        #: name, source kind, trace path, mode ...).
        self.meta: dict = {}
        self._n_records = 0

    # -- warm-up ---------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """Whether the detection models are fitted."""
        return self.bank.is_warm

    def warm_up(self, cube: TrafficCube) -> "StreamingDetectionEngine":
        """Fit the detection models on a historical cube.

        The multiway detector freezes on the cube's entropy tensor (its
        sliding buffer seeded with the trailing window) and one volume
        subspace model is fitted per metric, matching the batch
        pipeline's volume baseline.
        """
        self.bank.warm_up_cube(cube)
        return self

    def seed_classifier(self, centroids: np.ndarray) -> None:
        """Seed the online classifier with offline cluster centroids."""
        self.bank.seed_classifier(centroids)

    # -- ingestion -------------------------------------------------------

    def ingest(self, batch: FlowRecordBatch) -> list[StreamDetection]:
        """Feed one time-ordered record chunk; returns bin verdicts.

        Warm-up bins are absorbed silently (no verdict); every scored
        bin afterwards yields one :class:`StreamDetection`.
        """
        self._n_records += len(batch)
        verdicts = (self.bank.observe(s) for s in self.stage.ingest(batch))
        return [v for v in verdicts if v is not None]

    def observe_summary(self, summary: BinSummary) -> StreamDetection | None:
        """Score one already-built bin summary (coordinator/batch entry)."""
        return self.bank.observe(summary)

    # -- driving ---------------------------------------------------------

    def finish(self) -> StreamingReport:
        """Flush the open bin and return the accumulated report."""
        for summary in self.stage.flush():
            self.bank.observe(summary)
        return self.bank.finish(
            n_records=self._n_records,
            late_records=self.stage.late_records,
            meta=self.meta,
        )

    def process(
        self, source: FlowRecordBatch | Iterable[FlowRecordBatch]
    ) -> StreamingReport:
        """Run a whole record stream end-to-end (re-chunked, bounded).

        A recorded trace enters through
        :class:`repro.pipeline.TraceSource` or :meth:`process_precomputed`.
        """
        for chunk in iter_record_chunks(source, self.config.chunk_records):
            self.ingest(chunk)
        return self.finish()

    def process_precomputed(
        self, trace: "str | Path | TraceReader"
    ) -> StreamingReport:
        """Run exact detection straight from a trace's derived columns.

        The precomputed fast path: per-bin summaries are rebuilt from
        the trace's stored OD/run-id columns — no longest-prefix
        attribution, no per-bin (od, value) sort — and scored through
        the same detector bank, so the report is bit-identical to
        :meth:`process` over the trace's records.

        Args:
            trace: Trace path, or an already-open
                :class:`~repro.io.trace.TraceReader`.

        Raises:
            ValueError: In sketch mode — sketches hash raw feature
                values, which the derived columns do not store.
            TraceError: The trace is a tail recovered from a truncated
                file (``allow_partial``), which lost its derived columns:
                replay its records with :meth:`process` instead.
        """
        from repro.io.trace import TraceReader
        from repro.stream.replay import iter_precomputed_summaries

        if not self.config.exact_histograms:
            raise ValueError(
                "precomputed replay requires exact_histograms=True "
                "(sketch mode hashes raw feature values, which the "
                "derived columns do not carry)"
            )
        reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
        try:
            reader.info.ensure_compatible(
                network=self.topology.name,
                bin_width=self.stage.bin_width,
                start=self.stage.start,
            )
            self.meta.setdefault("source", "trace")
            self.meta.setdefault("trace_path", str(reader.path))
            for summary in iter_precomputed_summaries(reader, self.topology):
                self._n_records += summary.n_records
                self.bank.observe(summary)
        finally:
            if reader is not trace:
                reader.close()
        return self.bank.finish(
            n_records=self._n_records, late_records=0, meta=self.meta
        )

    def events(
        self, source: FlowRecordBatch | Iterable[FlowRecordBatch]
    ) -> Iterator[StreamDetection]:
        """Iterate bin verdicts as the stream is consumed (lazy)."""
        for chunk in iter_record_chunks(source, self.config.chunk_records):
            yield from self.ingest(chunk)
        for summary in self.stage.flush():
            verdict = self.bank.observe(summary)
            if verdict is not None:
                yield verdict
