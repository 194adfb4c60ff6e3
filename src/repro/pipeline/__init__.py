"""Composable detection pipeline: one engine behind batch/stream/cluster.

``RecordSource → BinReducer → DetectorBank → report``: the paper's
method as four stages.  :class:`DetectionPipeline` drives them in any
deployment mode over any source; the stages live in
:mod:`repro.pipeline.sources` (where records come from),
:mod:`repro.pipeline.bank` (the paper's two per-bin detectors and the
online classifier), and :mod:`repro.pipeline.report` (verdicts and
reports with end-to-end provenance).  Registered end-to-end workloads runnable through the
pipeline live in :mod:`repro.scenarios`.
"""

from repro.pipeline.bank import DetectorBank
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
    "DetectionPipeline",
    "DetectorBank",
    "MODES",
    "PipelineResult",
    "RecordSource",
    "ScenarioSource",
    "SourceSpec",
    "StreamDetection",
    "StreamingReport",
    "TraceSource",
    "build_source",
]
