"""Figure 5: detection rate vs. thinning for the injected known anomalies.

The paper injects each known trace (single DOS, multi DOS, worm scan)
into every Abilene OD flow in turn, at each thinning factor, and
reports the detection rate over OD flows — for volume metrics alone and
for volume+entropy, at detection thresholds alpha = 0.999 and 0.995.

Key shapes to reproduce: all traces detected at full intensity; at low
intensities entropy sustains high detection rates where volume-alone
collapses (most dramatically for the worm scan, which volume metrics
essentially never see).

Detectors are fit once on the clean cube and injections scored against
the frozen subspaces (docs/ARCHITECTURE.md, "Paper experiments",
fixed-subspace note).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anomalies.builders import known_traces
from repro.anomalies.injector import InjectionScorer
from repro.experiments.cache import get_clean_abilene_week
from repro.experiments.table5_thinning import THINNING_GRID

__all__ = ["Fig5Point", "Fig5Result", "run", "format_report"]

DEFAULT_ALPHAS = (0.999, 0.995)


@dataclass
class Fig5Point:
    """Detection rates for one (trace, thinning, alpha) setting."""

    trace: str
    thinning: int
    pps: float
    alpha: float
    rate_volume_alone: float
    rate_volume_plus_entropy: float
    n_injections: int


@dataclass
class Fig5Result:
    """All curve points of Figure 5 (a), (b), (c)."""

    points: list[Fig5Point] = field(default_factory=list)

    def curve(self, trace: str, alpha: float, which: str) -> list[tuple[int, float]]:
        """(thinning, rate) series for one curve of the figure."""
        out = []
        for p in self.points:
            if p.trace == trace and p.alpha == alpha:
                rate = (
                    p.rate_volume_alone
                    if which == "volume"
                    else p.rate_volume_plus_entropy
                )
                out.append((p.thinning, rate))
        return sorted(out)


def run(
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    injection_bin: int = 400,
    seed: int = 0,
    od_stride: int = 1,
) -> Fig5Result:
    """Run the full injection sweep.

    Args:
        alphas: Detection confidence levels.
        injection_bin: Clean bin receiving the injections.
        seed: Trace construction / thinning seed.
        od_stride: Inject into every ``od_stride``-th OD flow (1 = all
            121, as in the paper; larger strides for quick runs).
    """
    cube, generator = get_clean_abilene_week()
    scorer = InjectionScorer(cube, generator, alphas=alphas)
    traces = known_traces(seed=seed)
    ods = range(0, cube.n_od_flows, od_stride)
    points = []
    for name, grid in THINNING_GRID.items():
        base = traces[name]
        for factor in grid:
            thinned = base.thin(factor, seed=seed)
            if thinned.packets == 0:
                continue
            outcomes = {alpha: [0, 0] for alpha in alphas}
            n = 0
            for od in ods:
                n += 1
                for alpha in alphas:
                    out = scorer.score(injection_bin, [(od, thinned)], alpha=alpha)
                    outcomes[alpha][0] += out.detected_volume
                    outcomes[alpha][1] += out.detected_any
            for alpha in alphas:
                vol, any_ = outcomes[alpha]
                points.append(
                    Fig5Point(
                        trace=name,
                        thinning=factor,
                        pps=thinned.pps,
                        alpha=alpha,
                        rate_volume_alone=vol / n,
                        rate_volume_plus_entropy=any_ / n,
                        n_injections=n,
                    )
                )
    return Fig5Result(points=points)


def format_report(result: Fig5Result) -> str:
    """Figure-5 curves as rows."""
    lines = [
        "Figure 5 — detection rate vs thinning (injections into every OD flow)",
        f"{'Trace':<6} {'Thin':>7} {'pps':>11} {'alpha':>6} "
        f"{'VolAlone':>9} {'Vol+Ent':>8}",
    ]
    for p in result.points:
        lines.append(
            f"{p.trace:<6} {p.thinning:>7} {p.pps:>11.4g} {p.alpha:>6} "
            f"{p.rate_volume_alone:>9.2f} {p.rate_volume_plus_entropy:>8.2f}"
        )
    return "\n".join(lines)
