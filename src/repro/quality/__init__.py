"""Detection-quality harness: fuzzed workloads, labeled scoring, grids.

The perf side of the repo (``benchmarks/`` + ``tools/check_perf.py``)
answers "did it get slower?"; this package answers "did it get
*worse*?".  Three pieces:

* :mod:`repro.quality.fuzzer` — seeded random scenarios (anomaly type,
  intensity, duration, OD placement, flow-size mix, thinning) that
  reduce to picklable specs and run through every pipeline mode;
* :mod:`repro.quality.score` — precision/recall/F1, detection latency,
  and OD-identification accuracy per detection channel;
* :mod:`repro.quality.grid` — the labeled accuracy grid over
  intensity × sketch width × sampling rate, and the bit-reproducible
  baseline payload ``tools/check_quality.py`` gates CI on;
* :mod:`repro.quality.calibration` — the null-calibration curve: the
  measured per-channel false-alarm rate on attack-free traffic against
  alpha and the calibration margins, with Clopper–Pearson intervals.
"""

from repro.quality.calibration import clopper_pearson, null_calibration
from repro.quality.fuzzer import (
    FuzzSpec,
    FuzzedScenarioSource,
    fuzz_scenario,
    fuzz_sources,
)
from repro.quality.grid import (
    QUALITY_SEED,
    quality_config,
    quality_payload,
    run_grid,
    run_source,
)
from repro.quality.score import CHANNELS, DetectorScore, match_bins, score_report

__all__ = [
    "CHANNELS",
    "DetectorScore",
    "FuzzSpec",
    "FuzzedScenarioSource",
    "QUALITY_SEED",
    "clopper_pearson",
    "fuzz_scenario",
    "fuzz_sources",
    "match_bins",
    "null_calibration",
    "quality_config",
    "quality_payload",
    "run_grid",
    "run_source",
    "score_report",
]
