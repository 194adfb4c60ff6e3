"""Entropy–volume coupling: does feature entropy track the sample size?

The paper's point is that feature entropy sees what volume misses.
That holds only if entropy does not quietly follow volume — through
the traffic model (busier OD flows drawn with more hosts and ports) or
through the plug-in estimator, whose downward bias shrinks as the
sample grows.  Two statistics per feature, over an entropy tensor
``H`` of shape ``(t, p, k)`` and the matching ``(t, p)`` packet counts:

* **within** — the median over OD flows of |corr(H, log packets)|
  across bins: does an OD's entropy rise and fall with its volume?
* **across** — |corr| over OD flows of the per-OD mean entropy and the
  per-OD mean log packets: do busier OD flows read higher entropy?

:func:`entropy_volume_coupling` computes both on two paths over the
same scenario and seed — the generator's population histograms (the
cube path, :meth:`repro.traffic.generator.TrafficGenerator.od_stream`)
and the exact stream stage over the sampled records — so a coupling
the sample adds shows as the difference between them.  Reported, not
gated.
"""

from __future__ import annotations

import numpy as np

from repro.flows.features import FEATURES
from repro.pipeline.sources import ScenarioSource
from repro.stream.window import StreamFeatureStage
from repro.traffic.generator import TrafficGenerator

__all__ = ["coupling_stats", "entropy_volume_coupling"]

COUPLING_SCENARIO = "baseline-diurnal"
COUPLING_N_BINS = 72
COUPLING_SEED = 7
#: Records per OD-bin on the record path: the benchmark ledger's shape.
COUPLING_RECORDS_PER_OD = 60


def _abs_corr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of ``x`` and ``y`` along axis 0; NaN where
    either side is constant."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    num = (xc * yc).sum(axis=0)
    den = np.sqrt((xc * xc).sum(axis=0) * (yc * yc).sum(axis=0))
    out = np.full(np.shape(num), np.nan)
    np.divide(num, den, out=out, where=den > 0)
    return np.abs(out)


def coupling_stats(entropy: np.ndarray, packets: np.ndarray) -> dict:
    """The "within" and "across" statistics, one value per feature.

    Args:
        entropy: ``(t, p, k)`` per-bin, per-OD feature entropies.
        packets: ``(t, p)`` per-bin, per-OD packet counts.  Only OD
            flows with packets in every bin count (log packets must
            exist); ``ods`` reports how many did.

    Returns:
        ``{"within": [k floats], "across": [k floats], "ods": int}``;
        an OD flow whose entropy or volume is constant over the bins
        drops out of "within" for that feature.
    """
    entropy = np.asarray(entropy, dtype=np.float64)
    packets = np.asarray(packets, dtype=np.float64)
    keep = (packets > 0).all(axis=0)
    if keep.sum() < 3:
        raise ValueError("need at least 3 OD flows with packets in every bin")
    log_packets = np.log(packets[:, keep])
    h = entropy[:, keep, :]
    within, across = [], []
    for k in range(h.shape[2]):
        per_od = _abs_corr(h[:, :, k], log_packets)
        finite = per_od[np.isfinite(per_od)]
        within.append(float(np.median(finite)) if len(finite) else float("nan"))
        across.append(float(_abs_corr(h[:, :, k].mean(axis=0),
                                      log_packets.mean(axis=0))))
    return {"within": within, "across": across, "ods": int(keep.sum())}


def entropy_volume_coupling(
    scenario: str = COUPLING_SCENARIO,
    n_bins: int = COUPLING_N_BINS,
    seed: int = COUPLING_SEED,
    max_records_per_od: int = COUPLING_RECORDS_PER_OD,
) -> dict:
    """The coupling statistics on the cube path and the record path.

    Both paths use the generator the scenario's records are drawn from;
    the record path reduces them through the exact stream stage
    (plug-in entropy of the anonymised, sampled records).
    """
    source = ScenarioSource(scenario, n_bins=n_bins, seed=seed,
                            max_records_per_od=max_records_per_od)
    topology = source.topology
    generator = TrafficGenerator(topology, source.bins, seed=seed)
    streams = [generator.od_stream(od) for od in range(topology.n_od_flows)]
    cube = coupling_stats(
        np.stack([s.entropy for s in streams], axis=1),
        np.stack([s.packets for s in streams], axis=1),
    )
    stage = StreamFeatureStage(topology, bin_width=source.spec.bin_width,
                               start=source.spec.bin_start, exact=True)
    summaries = [s for chunk in source.batches() for s in stage.ingest(chunk)]
    summaries.extend(stage.flush())
    records = coupling_stats(
        np.stack([s.entropy for s in summaries]),
        np.stack([s.packets for s in summaries]),
    )
    return {
        "scenario": scenario,
        "n_bins": int(n_bins),
        "seed": int(seed),
        "max_records_per_od": int(max_records_per_od),
        "features": list(FEATURES),
        "paths": {"cube": cube, "records": records},
    }
