"""Shared, memoised datasets for the experiment suite.

Several experiments (and the paper scorecard, which runs them all in
one process) consume the same labeled datasets; generating one takes
tens of seconds, so they are built once per process and reused.
Scales follow docs/ARCHITECTURE.md ("Paper experiments"): Abilene at
the paper's full 3 weeks, Geant at 1 week (its 484 OD flows make the
full 3 weeks ~5x more expensive; the experiment modules accept
``weeks`` overrides for full-scale runs).
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.labeled import LabeledDataset, abilene_dataset, geant_dataset
from repro.flows.binning import TimeBins
from repro.net.topology import abilene
from repro.traffic.generator import TrafficGenerator

__all__ = [
    "ABILENE_WEEKS",
    "GEANT_WEEKS",
    "get_abilene",
    "get_geant",
    "get_clean_abilene_week",
]

ABILENE_WEEKS = 3.0
GEANT_WEEKS = 1.0


@lru_cache(maxsize=2)
def get_abilene(weeks: float = ABILENE_WEEKS, seed: int = 0) -> LabeledDataset:
    """The labeled Abilene-like dataset (memoised)."""
    return abilene_dataset(weeks=weeks, seed=seed)


@lru_cache(maxsize=2)
def get_geant(weeks: float = GEANT_WEEKS, seed: int = 100) -> LabeledDataset:
    """The labeled Geant-like dataset (memoised)."""
    return geant_dataset(weeks=weeks, seed=seed)


@lru_cache(maxsize=2)
def get_abilene_diagnosis(alpha: float = 0.999, n_clusters: int = 10):
    """Full diagnosis (detect + identify + classify) of the Abilene dataset."""
    from repro.core.detector import AnomalyDiagnosis

    data = get_abilene()
    diag = AnomalyDiagnosis(alpha=alpha, n_clusters=n_clusters)
    return diag.diagnose(data.cube, labels_by_bin=data.labels_by_bin)


@lru_cache(maxsize=2)
def get_geant_diagnosis(alpha: float = 0.999, n_clusters: int = 10):
    """Full diagnosis of the Geant dataset."""
    from repro.core.detector import AnomalyDiagnosis

    data = get_geant()
    diag = AnomalyDiagnosis(alpha=alpha, n_clusters=n_clusters)
    return diag.diagnose(data.cube, labels_by_bin=data.labels_by_bin)


@lru_cache(maxsize=1)
def get_clean_abilene_week(seed: int = 7):
    """A clean (anomaly-free) 1-week Abilene cube + its generator.

    Used by the injection sweeps (Figures 5-7), which need a clean
    baseline to fit detectors on.
    """
    generator = TrafficGenerator(abilene(), TimeBins.for_weeks(1), seed=seed)
    cube = generator.generate()
    return cube, generator
