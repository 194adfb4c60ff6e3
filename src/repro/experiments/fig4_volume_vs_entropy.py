"""Figure 4: residual entropy vs. residual volume — disjoint detections.

The paper's Figure 4 scatters, per timepoint, the squared residual of
the multiway entropy state against the squared residual of byte counts
(a) and packet counts (b), with detection thresholds at alpha = 0.999.
The point: the anomaly sets detected by volume and by entropy are
largely disjoint — many entropy anomalies carry negligible volume.

This experiment computes the same scatter on one week of the labeled
Abilene dataset and reports the quadrant counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multiway import MultiwaySubspaceDetector
from repro.core.subspace import SubspaceDetector
from repro.experiments.cache import get_abilene

__all__ = ["Fig4Result", "run", "format_report"]


@dataclass
class Fig4Result:
    """Scatter data + quadrant counts for Figure 4.

    Attributes:
        spe_entropy / spe_bytes / spe_packets: ``(t,)`` residual norms.
        thr_entropy / thr_bytes / thr_packets: alpha=0.999 thresholds.
        quadrants_bytes / quadrants_packets: ``{"neither", "volume_only",
            "entropy_only", "both"}`` bin counts against each volume
            metric.
    """

    spe_entropy: np.ndarray
    spe_bytes: np.ndarray
    spe_packets: np.ndarray
    thr_entropy: float
    thr_bytes: float
    thr_packets: float
    quadrants_bytes: dict[str, int]
    quadrants_packets: dict[str, int]


def _quadrants(spe_vol, thr_vol, spe_ent, thr_ent) -> dict[str, int]:
    vol = spe_vol > thr_vol
    ent = spe_ent > thr_ent
    return {
        "neither": int((~vol & ~ent).sum()),
        "volume_only": int((vol & ~ent).sum()),
        "entropy_only": int((~vol & ent).sum()),
        "both": int((vol & ent).sum()),
    }


def run(weeks: float = 1.0, alpha: float = 0.999) -> Fig4Result:
    """Compute the Figure-4 scatter on a slice of the Abilene dataset."""
    data = get_abilene()
    n_bins = int(weeks * 2016)
    cube = data.cube.slice_bins(0, min(n_bins, data.cube.n_bins))

    entropy_det = MultiwaySubspaceDetector(identify=False).fit(cube.entropy)
    ent = entropy_det.score(cube.entropy)
    bytes_det = SubspaceDetector().fit(cube.bytes)
    byt = bytes_det.detect(cube.bytes, alpha=alpha)
    packets_det = SubspaceDetector().fit(cube.packets)
    pkt = packets_det.detect(cube.packets, alpha=alpha)

    thr_ent = entropy_det.model.threshold(alpha)
    return Fig4Result(
        spe_entropy=ent.spe,
        spe_bytes=byt.spe,
        spe_packets=pkt.spe,
        thr_entropy=thr_ent,
        thr_bytes=byt.threshold,
        thr_packets=pkt.threshold,
        quadrants_bytes=_quadrants(byt.spe, byt.threshold, ent.spe, thr_ent),
        quadrants_packets=_quadrants(pkt.spe, pkt.threshold, ent.spe, thr_ent),
    )


def format_report(result: Fig4Result) -> str:
    """Quadrant counts (the quantitative content of the scatter)."""
    lines = ["Figure 4 — entropy vs volume residuals (Abilene, 1 week, alpha=0.999)"]
    for name, quad in (
        ("bytes", result.quadrants_bytes),
        ("packets", result.quadrants_packets),
    ):
        lines.append(
            f"  vs {name:<8} neither={quad['neither']:>5}  "
            f"volume_only={quad['volume_only']:>4}  "
            f"entropy_only={quad['entropy_only']:>4}  both={quad['both']:>4}"
        )
    return "\n".join(lines)
