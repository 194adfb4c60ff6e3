"""Null calibration: the measured false-alarm rate against alpha.

Both subspace detectors threshold SPE at the Jackson–Mudholkar Q_alpha,
so on attack-free traffic each channel should alarm on about ``1 −
alpha`` of its scored bins — before any empirical calibration floor
(``calibration_margin`` for the entropy channel,
``volume_calibration_margin`` for the volume channel) raises the
threshold further.  Recall means little at an unknown false-alarm
rate, so this experiment measures that rate.

Per seed, the attack-free ``baseline-diurnal`` scenario is reduced
*once* into exact-histogram :class:`~repro.stream.window.BinSummary`
rows at the ledger's shape (72 bins, the scenario's scaled 48-bin
warm-up, 60 records per OD-bin, six normal components, no periodic
refit).  The same rows are then scored by one fresh
:class:`~repro.pipeline.bank.DetectorBank` per cell of
``alpha × margin``: each margin in :data:`NULL_MARGINS` sets both
channels' calibration margins, and the engine defaults get their own
row.  Per channel and cell the payload reports alarms, scored bins,
the rate, its 95 % Clopper–Pearson interval and the nominal ``1 −
alpha``.  It is a pure function of its arguments, so a committed
result diffs meaningfully; no default is derived from it here.
"""

from __future__ import annotations

from scipy import stats

from repro.pipeline.bank import DetectorBank
from repro.pipeline.sources import ScenarioSource
from repro.stream.engine import StreamConfig
from repro.stream.window import StreamFeatureStage

__all__ = [
    "NULL_ALPHAS",
    "NULL_MARGINS",
    "clopper_pearson",
    "null_calibration",
    "null_summaries",
]

NULL_SCENARIO = "baseline-diurnal"
NULL_N_BINS = 72
NULL_MAX_RECORDS = 60
NULL_N_COMPONENTS = 6
NULL_ALPHAS = (0.99, 0.995, 0.999)
NULL_MARGINS = (0.0, 1.0, 1.5)
CHANNELS = ("entropy", "volume")


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact 95 % binomial interval for ``k`` successes in ``n`` trials."""
    if not 0 <= k <= n or n <= 0:
        raise ValueError(f"need 0 <= k <= n and n > 0, got k={k}, n={n}")
    lower = 0.0 if k == 0 else float(stats.beta.ppf(0.025, k, n - k + 1))
    upper = 1.0 if k == n else float(stats.beta.ppf(0.975, k + 1, n - k))
    return lower, upper


def null_summaries(
    seed: int, n_bins: int = NULL_N_BINS, max_records_per_od: int = NULL_MAX_RECORDS
) -> tuple[list, int]:
    """One seed's attack-free bins, reduced once: ``(summaries, warm-up)``."""
    source = ScenarioSource(
        NULL_SCENARIO, n_bins=n_bins, seed=seed, max_records_per_od=max_records_per_od
    )
    if source.events:
        raise ValueError(f"{NULL_SCENARIO!r} must schedule no anomalies")
    stage = StreamFeatureStage(
        source.topology,
        bin_width=source.spec.bin_width,
        start=source.spec.bin_start,
        exact=True,
    )
    summaries = [s for chunk in source.batches() for s in stage.ingest(chunk)]
    summaries.extend(stage.flush())
    return summaries, source.scenario.scaled_warmup(n_bins)


def _margin_rows() -> list[tuple[str, float, float]]:
    """``(label, entropy margin, volume margin)`` per row, defaults last."""
    defaults = StreamConfig()
    rows = [(f"{m:g}", float(m), float(m)) for m in NULL_MARGINS]
    rows.append(
        ("default", defaults.calibration_margin, defaults.volume_calibration_margin)
    )
    return rows


def null_calibration(
    seeds,
    n_bins: int = NULL_N_BINS,
    max_records_per_od: int = NULL_MAX_RECORDS,
) -> dict:
    """The false-alarm curve over ``NULL_ALPHAS × margin rows``, pooled over seeds."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("null calibration needs at least one seed")
    rows = _margin_rows()
    keys = [(a, label) for a in NULL_ALPHAS for label, _, _ in rows]
    alarms = {(a, label, ch): 0 for a, label in keys for ch in CHANNELS}
    scored = dict.fromkeys(keys, 0)
    for seed in seeds:
        summaries, warmup = null_summaries(seed, n_bins, max_records_per_od)
        for alpha in NULL_ALPHAS:
            for label, entropy_margin, volume_margin in rows:
                bank = DetectorBank(
                    StreamConfig(
                        warmup_bins=warmup,
                        n_components=NULL_N_COMPONENTS,
                        refit_every=0,
                        exact_histograms=True,
                        alpha=alpha,
                        calibration_margin=entropy_margin,
                        volume_calibration_margin=volume_margin,
                    )
                )
                for summary in summaries:
                    bank.observe(summary)
                scored[alpha, label] += bank.n_bins_scored
                for d in bank.detections:
                    alarms[alpha, label, "entropy"] += int(d.detected_by_entropy)
                    alarms[alpha, label, "volume"] += int(d.detected_by_volume)
    cells = []
    for alpha in NULL_ALPHAS:
        for label, entropy_margin, volume_margin in rows:
            n = scored[alpha, label]
            channels = {}
            for ch in CHANNELS:
                k = alarms[alpha, label, ch]
                lower, upper = clopper_pearson(k, n)
                channels[ch] = {
                    "alarms": k,
                    "scored_bins": n,
                    "rate": k / n,
                    "ci95": [lower, upper],
                }
            cells.append(
                {
                    "alpha": alpha,
                    "nominal_rate": round(1.0 - alpha, 12),
                    "margin": label,
                    "calibration_margin": entropy_margin,
                    "volume_calibration_margin": volume_margin,
                    "channels": channels,
                }
            )
    return {
        "schema": 1,
        "scenario": NULL_SCENARIO,
        "seeds": seeds,
        "shape": {
            "n_bins": int(n_bins),
            "warmup_bins": warmup,
            "max_records_per_od": int(max_records_per_od),
            "n_components": NULL_N_COMPONENTS,
            "refit_every": 0,
            "exact_histograms": True,
        },
        "cells": cells,
    }
