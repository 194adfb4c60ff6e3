"""Table 5: injected anomaly intensity at each thinning factor.

The paper thins each known trace by keeping 1 of every N packets and
reports the resulting intensity in pps and as a percentage of the
average OD flow's traffic (2068 pps for the chosen Abilene timebin).
The thinning grid differs per trace: the worm (already tiny) uses
{0, 10, 100, 500, 1000}; the DOS traces go to 1e5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anomalies.builders import known_traces
from repro.experiments.cache import get_clean_abilene_week

__all__ = ["Table5Cell", "Table5Result", "THINNING_GRID", "run", "format_report"]

#: Thinning factors per trace, as in the paper's Table 5 (0 = no thinning).
THINNING_GRID: dict[str, tuple[int, ...]] = {
    "dos": (1, 10, 100, 1000, 10_000, 100_000),
    "ddos": (1, 10, 100, 1000, 10_000, 100_000),
    "worm": (1, 10, 100, 500, 1000),
}


@dataclass
class Table5Cell:
    """Intensity of one (trace, thinning) combination."""

    trace: str
    thinning: int
    pps: float
    percent_of_od: float


@dataclass
class Table5Result:
    """All Table-5 cells plus the background OD rate used."""

    cells: list[Table5Cell] = field(default_factory=list)
    mean_od_pps: float = 0.0


def run(seed: int = 0) -> Table5Result:
    """Thin each known trace over its grid and compute intensities."""
    cube, _ = get_clean_abilene_week()
    mean_pps = cube.mean_od_pps()
    traces = known_traces(seed=seed)
    cells = []
    for name, grid in THINNING_GRID.items():
        trace = traces[name]
        for factor in grid:
            thinned = trace.thin(factor, seed=seed)
            pps = thinned.pps
            cells.append(
                Table5Cell(
                    trace=name,
                    thinning=factor,
                    pps=pps,
                    percent_of_od=100.0 * pps / (pps + mean_pps),
                )
            )
    return Table5Result(cells=cells, mean_od_pps=mean_pps)


def format_report(result: Table5Result) -> str:
    """Table-5 layout: per thinning factor, pps and % of OD traffic."""
    lines = [
        "Table 5 — intensity of injected anomalies vs thinning "
        f"(mean OD rate {result.mean_od_pps:.0f} pps; paper: 2068 pps)",
        f"{'Trace':<8} {'Thinning':>9} {'pps':>12} {'% of OD':>9}",
    ]
    for cell in result.cells:
        lines.append(
            f"{cell.trace:<8} {cell.thinning:>9} {cell.pps:>12.4g} "
            f"{cell.percent_of_od:>8.3g}%"
        )
    return "\n".join(lines)
