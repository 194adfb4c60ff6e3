"""Table 4: the known anomaly traces used for injection.

The paper injects three documented attack traces (Table 4): a
single-source DOS at 3.47e5 pps and a multi-source DDOS at 2.75e4 pps
(both from Los Nettos, Hussain et al. [11]) and a worm scan at 141 pps
(Utah ISP, Schechter et al. [32]).  We rebuild each as a parametric
trace at the documented intensity (docs/ARCHITECTURE.md, "Paper
experiments") and verify the documented structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anomalies.builders import known_traces
from repro.flows.features import DST_IP, SRC_IP

__all__ = ["Table4Row", "run", "format_report"]

_SOURCES = {
    "dos": "Los Nettos 2003 [11] (rebuilt parametrically)",
    "ddos": "Los Nettos 2003 [11] (rebuilt parametrically)",
    "worm": "Utah ISP April 2003 [32] (rebuilt parametrically)",
}

_PAPER_PPS = {"dos": 3.47e5, "ddos": 2.75e4, "worm": 141.0}


@dataclass
class Table4Row:
    """One known trace's headline properties."""

    name: str
    pps: float
    packets: int
    n_sources: int
    n_destinations: int
    data_source: str


def run(seed: int = 0) -> list[Table4Row]:
    """Materialise the Table-4 traces and summarise their structure."""
    rows = []
    for name, trace in known_traces(seed=seed).items():
        rows.append(
            Table4Row(
                name=name,
                pps=trace.pps,
                packets=trace.packets,
                n_sources=trace.contributions[SRC_IP].n_values,
                n_destinations=trace.contributions[DST_IP].n_values,
                data_source=_SOURCES[name],
            )
        )
    return rows


def verify_intensities(rows: list[Table4Row], tolerance: float = 0.01) -> bool:
    """Whether the rebuilt traces match the paper's intensities."""
    for row in rows:
        expected = _PAPER_PPS[row.name]
        if abs(row.pps - expected) / expected > tolerance:
            return False
    return True


def format_report(rows: list[Table4Row]) -> str:
    """Table-4 layout: type, intensity, data source."""
    lines = [
        "Table 4 — known anomaly traces injected",
        f"{'Anomaly':<22} {'pps':>10} {'packets/bin':>12} {'srcs':>6} {'dsts':>6}  source",
    ]
    names = {
        "dos": "Single-Source DOS",
        "ddos": "Multi-Source DDOS",
        "worm": "Worm scan",
    }
    for row in rows:
        lines.append(
            f"{names[row.name]:<22} {row.pps:>10.4g} {row.packets:>12} "
            f"{row.n_sources:>6} {row.n_destinations:>6}  {row.data_source}"
        )
    lines.append(
        f"intensity check vs paper (3.47e5 / 2.75e4 / 141 pps): "
        f"{'PASS' if verify_intensities(rows) else 'FAIL'}"
    )
    return "\n".join(lines)
