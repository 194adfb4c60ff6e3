"""Figure 1: feature-distribution change induced by a port scan.

The paper's Figure 1 shows rank-ordered histograms of destination ports
(upper) and destination addresses (lower) for a normal 5-minute bin and
for the bin containing a port-scan anomaly: ports disperse (many more
distinct ports at similar per-port counts) while addresses concentrate
(one address jumps an order of magnitude above the rest).

We reproduce it by injecting a port scan into a synthetic Abilene OD
flow and reporting the same four histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.builders import port_scan
from repro.anomalies.injector import combined_counts
from repro.experiments.cache import get_clean_abilene_week
from repro.flows.features import DST_IP, DST_PORT

__all__ = ["Fig1Result", "run", "format_report"]


@dataclass
class Fig1Result:
    """Rank-ordered histograms before/during the port scan.

    Each array holds packet counts in decreasing rank order.
    """

    dst_port_normal: np.ndarray
    dst_port_anomalous: np.ndarray
    dst_ip_normal: np.ndarray
    dst_ip_anomalous: np.ndarray
    od: int
    bin_normal: int
    bin_anomalous: int
    scan_pps: float


def _rank_ordered(counts: np.ndarray) -> np.ndarray:
    counts = counts[counts > 0]
    return np.sort(counts)[::-1]


def run(
    od: int | None = None, b: int = 700, scan_pps: float = 60.0, seed: int = 3
) -> Fig1Result:
    """Build the Figure-1 histograms.

    Args:
        od: Target OD flow; defaults to the quietest OD flow — the
            paper's example is a low-volume flow where the scan
            dominates the bin (its histogram counts peak around 30).
        b: Bin receiving the scan; ``b - 12`` (one hour earlier) serves
            as the "normal" bin.
        scan_pps: Port-scan intensity.
        seed: Scan construction seed.
    """
    cube, generator = get_clean_abilene_week()
    if od is None:
        od = int(np.argmin(generator.mean_rates))
    stream = generator.od_stream(od)
    b_normal = b - 12
    # victim_rank=0: the scan probes the OD flow's most popular host,
    # so the destination-address distribution concentrates sharply.
    trace = port_scan(np.random.default_rng(seed), pps=scan_pps, victim_rank=0)

    port_bg = stream.histograms[DST_PORT][b]
    ip_bg = stream.histograms[DST_IP][b]
    return Fig1Result(
        dst_port_normal=_rank_ordered(stream.histograms[DST_PORT][b_normal].copy()),
        dst_port_anomalous=_rank_ordered(
            combined_counts(port_bg, trace.contributions[DST_PORT])
        ),
        dst_ip_normal=_rank_ordered(stream.histograms[DST_IP][b_normal].copy()),
        dst_ip_anomalous=_rank_ordered(
            combined_counts(ip_bg, trace.contributions[DST_IP])
        ),
        od=od,
        bin_normal=b_normal,
        bin_anomalous=b,
        scan_pps=scan_pps,
    )


def _summary(name: str, counts: np.ndarray) -> str:
    return (
        f"  {name:<28} distinct={len(counts):>6}  max={counts.max():>9}  "
        f"median={int(np.median(counts)):>6}  total={counts.sum():>9}"
    )


def format_report(result: Fig1Result) -> str:
    """Paper-style summary of the four histograms."""
    lines = [
        "Figure 1 — distribution changes induced by a port scan "
        f"(OD {result.od}, scan {result.scan_pps:.0f} pps)",
        _summary("dstPort  normal", result.dst_port_normal),
        _summary("dstPort  during scan", result.dst_port_anomalous),
        _summary("dstIP    normal", result.dst_ip_normal),
        _summary("dstIP    during scan", result.dst_ip_anomalous),
        "shape check: ports disperse (many more distinct ports), "
        "addresses concentrate (max count explodes):",
        f"  distinct ports  x{len(result.dst_port_anomalous) / len(result.dst_port_normal):.1f}",
        f"  max ip count    x{result.dst_ip_anomalous.max() / result.dst_ip_normal.max():.1f}",
    ]
    return "\n".join(lines)
