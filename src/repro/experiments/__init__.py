"""Experiments: one module per table and figure of the paper.

Each module exposes ``run(...)`` returning a structured result and
``format_report(result)`` returning the paper-style rows as text.
:data:`EXPERIMENTS` is the one name -> module registry: ``repro
experiment NAME`` runs an entry, and the paper scorecard
(``benchmarks/paper_claims.py``) checks every entry's claims as rows
whose ids start with its name.  The mapping from paper artefacts to
modules is in docs/ARCHITECTURE.md ("Paper experiments"); the measured
outcomes are the scorecard's ``benchmarks/results/paper_claims.json``.
Modules load on first use, so importing this package stays cheap.
"""

from __future__ import annotations

import importlib
from types import ModuleType

__all__ = ["EXPERIMENTS", "EXTENSIONS", "load"]

#: Experiment name -> module under ``repro.experiments``, in paper order.
EXPERIMENTS = {
    "table2": "table2_detections",
    "table3": "table3_breakdown",
    "table4": "table4_traces",
    "table5": "table5_thinning",
    "table6": "table6_label_space",
    "table7": "table7_abilene_clusters",
    "table8": "table8_geant_clusters",
    "fig1": "fig1_histograms",
    "fig2": "fig2_timeseries",
    "fig4": "fig4_volume_vs_entropy",
    "fig5": "fig5_detection_rate",
    "fig6": "fig6_multiflow",
    "fig7": "fig7_known_clusters",
    "fig8": "fig8_abilene_space",
    "fig9": "fig9_geant_space",
    "fig10": "fig10_cluster_selection",
    "anonymization": "anonymization_check",
    "ablations": "ablations",
    "baseline_comparison": "baseline_comparison",
    "ablation_metrics": "ablation_metrics",
}

#: Entries that go beyond the paper: their scorecard rows are marked
#: ``extension`` and carry no paper value.
EXTENSIONS = frozenset({"ablations", "baseline_comparison", "ablation_metrics"})


def load(name: str) -> ModuleType:
    """The module of experiment ``name`` (a key of :data:`EXPERIMENTS`)."""
    return importlib.import_module(f"repro.experiments.{EXPERIMENTS[name]}")
