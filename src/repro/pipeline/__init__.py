"""Composable detection pipeline: one engine behind batch/stream/cluster.

``RecordSource → BinReducer → DetectorBank → report``: the paper's
method as four swappable stages.  :class:`DetectionPipeline` drives
them in any deployment mode over any source; the stage adapters live in
:mod:`repro.pipeline.sources` (where records come from),
:mod:`repro.pipeline.bank` (the pluggable per-bin detector registry),
and :mod:`repro.pipeline.report` (verdicts and reports with end-to-end
provenance).  Registered end-to-end workloads runnable through the
pipeline live in :mod:`repro.scenarios`.
"""

from repro.pipeline.bank import (
    BinDetector,
    DetectorBank,
    DetectorVerdict,
    detector_names,
    register_detector,
)
from repro.pipeline.pipeline import MODES, DetectionPipeline, PipelineResult
from repro.pipeline.report import StreamDetection, StreamingReport
from repro.pipeline.sources import (
    RecordSource,
    ScenarioSource,
    SourceSpec,
    TraceSource,
    build_source,
)

__all__ = [
    "BinDetector",
    "DetectionPipeline",
    "DetectorBank",
    "DetectorVerdict",
    "MODES",
    "PipelineResult",
    "RecordSource",
    "ScenarioSource",
    "SourceSpec",
    "StreamDetection",
    "StreamingReport",
    "TraceSource",
    "build_source",
    "detector_names",
    "register_detector",
]
