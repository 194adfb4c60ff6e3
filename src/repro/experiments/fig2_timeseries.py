"""Figure 2: a port scan seen through volume vs. entropy timeseries.

The paper's Figure 2 plots, around the port-scan anomaly of Figure 1,
four timeseries of the containing OD flow: #bytes, #packets, H(dstIP),
H(dstPort).  The scan is invisible in the volume series but produces a
sharp dip in destination-IP entropy and a sharp spike in
destination-port entropy.

The experiment reports the four series plus z-scores of the anomalous
bin within each series — the quantitative version of "stands out
clearly".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.builders import port_scan
from repro.anomalies.injector import inject_trace
from repro.experiments.cache import get_clean_abilene_week
from repro.flows.features import DST_IP, DST_PORT

__all__ = ["Fig2Result", "run", "format_report"]


@dataclass
class Fig2Result:
    """The four timeseries and the anomaly's z-score in each."""

    bytes: np.ndarray
    packets: np.ndarray
    h_dst_ip: np.ndarray
    h_dst_port: np.ndarray
    anomaly_index: int
    z_scores: dict[str, float]
    od: int


def _zscore(series: np.ndarray, index: int) -> float:
    others = np.delete(series, index)
    std = others.std()
    if std == 0:
        return 0.0
    return float((series[index] - others.mean()) / std)


def run(
    od: int | None = None,
    b: int = 700,
    scan_pps: float = 60.0,
    window: int = 144,
    seed: int = 3,
) -> Fig2Result:
    """Inject the Figure-1 port scan and extract surrounding timeseries.

    Args:
        od: Target OD flow; defaults to the quietest one (see Figure 1).
        window: Half-width (in bins) of the reported window around the
            anomaly (144 bins = 12 hours each side).
    """
    cube, generator = get_clean_abilene_week()
    if od is None:
        od = int(np.argmin(generator.mean_rates))
    dirty = cube.copy()
    trace = port_scan(np.random.default_rng(seed), pps=scan_pps, victim_rank=0)
    inject_trace(dirty, generator, od, b, trace)

    lo, hi = max(0, b - window), min(dirty.n_bins, b + window)
    idx = b - lo
    series = {
        "bytes": dirty.bytes[lo:hi, od],
        "packets": dirty.packets[lo:hi, od],
        "H(dstIP)": dirty.entropy[lo:hi, od, DST_IP],
        "H(dstPort)": dirty.entropy[lo:hi, od, DST_PORT],
    }
    z = {name: _zscore(s, idx) for name, s in series.items()}
    return Fig2Result(
        bytes=series["bytes"],
        packets=series["packets"],
        h_dst_ip=series["H(dstIP)"],
        h_dst_port=series["H(dstPort)"],
        anomaly_index=idx,
        z_scores=z,
        od=od,
    )


def format_report(result: Fig2Result) -> str:
    """Summary matching the paper's qualitative reading of Figure 2."""
    lines = [
        f"Figure 2 — port scan viewed in volume vs entropy (OD {result.od})",
        "z-score of the anomalous bin within each timeseries:",
    ]
    for name, z in result.z_scores.items():
        visibility = "stands out" if abs(z) > 4 else "buried in noise"
        lines.append(f"  {name:<11} z = {z:+7.2f}   ({visibility})")
    return "\n".join(lines)
