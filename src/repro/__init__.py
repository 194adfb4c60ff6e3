"""repro — reproduction of "Mining Anomalies Using Traffic Feature Distributions".

Lakhina, Crovella & Diot, SIGCOMM 2005 (BUCS-TR-2005-002).

The package implements the paper's full pipeline plus every substrate
it depends on:

* :mod:`repro.net` — backbone topologies (Abilene, Geant), addressing,
  longest-prefix routing and egress resolution.
* :mod:`repro.flows` — flow records, 5-minute binning, packet sampling,
  feature histograms, OD-flow aggregation into traffic cubes.
* :mod:`repro.traffic` — synthetic network-wide traffic generation
  (diurnal cycles, gravity OD matrix, Zipf feature distributions).
* :mod:`repro.anomalies` — the Table-1 anomaly zoo, trace thinning,
  k-way DDOS splitting, and injection machinery.
* :mod:`repro.core` — sample entropy, the (multiway) subspace method,
  multi-attribute identification, clustering, and unsupervised
  classification; plus online extensions.
* :mod:`repro.datasets` — labeled Abilene/Geant-like datasets with
  ground-truth schedules.
* :mod:`repro.stream` — the online pipeline (paper Section 8): chunked
  record ingestion, sketch-backed per-bin features, streaming multiway
  detection and incremental classification.
* :mod:`repro.cluster` — the sharded deployment (paper Section 8):
  per-shard monitors finish their OD flows into per-bin entropy and
  volume rows; a central coordinator scatters them and drives the
  streaming engine across worker processes.
* :mod:`repro.experiments` — one module per paper table and figure.

Quickstart::

    from repro import abilene_dataset, AnomalyDiagnosis

    data = abilene_dataset(weeks=1)
    report = AnomalyDiagnosis().diagnose(data.cube, labels_by_bin=data.labels_by_bin)
    print(report.counts())
"""

import os

# OpenBLAS sizes its pool once, when numpy first loads it, and its idle
# worker then busy-waits through every scored bin on a core the cluster
# workers need; a 48 x 484 fit gains nothing from a second thread.  So
# this runs ahead of the first numpy-importing import below.  A value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cluster import (
    ClusterCoordinator,
    ShardBinSummary,
    ShardMonitor,
    run_cluster_source,
)
from repro.core import (
    AnomalyDiagnosis,
    DiagnosisReport,
    MultiwaySubspaceDetector,
    SubspaceDetector,
    hierarchical,
    kmeans,
    sample_entropy,
)
from repro.datasets import abilene_dataset, geant_dataset, make_labeled_dataset
from repro.flows import FEATURES, TimeBins, TrafficCube
from repro.io import TraceReader, TraceWriter, trace_info
from repro.net import Topology, abilene, geant
from repro.pipeline import (
    DetectionPipeline,
    PipelineResult,
    ScenarioSource,
    TraceSource,
)
from repro.scenarios import Scenario, get_scenario, scenario_names
from repro.stream import StreamConfig, StreamingDetectionEngine, StreamingReport
from repro.traffic import GeneratorConfig, TrafficGenerator

__version__ = "1.0.0"

__all__ = [
    "AnomalyDiagnosis",
    "DiagnosisReport",
    "MultiwaySubspaceDetector",
    "SubspaceDetector",
    "hierarchical",
    "kmeans",
    "sample_entropy",
    "abilene_dataset",
    "geant_dataset",
    "make_labeled_dataset",
    "FEATURES",
    "TimeBins",
    "TrafficCube",
    "Topology",
    "abilene",
    "geant",
    "DetectionPipeline",
    "PipelineResult",
    "Scenario",
    "ScenarioSource",
    "TraceSource",
    "get_scenario",
    "scenario_names",
    "StreamConfig",
    "StreamingDetectionEngine",
    "StreamingReport",
    "ClusterCoordinator",
    "ShardBinSummary",
    "ShardMonitor",
    "run_cluster_source",
    "GeneratorConfig",
    "TrafficGenerator",
    "__version__",
]
