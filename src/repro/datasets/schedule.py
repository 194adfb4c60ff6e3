"""Ground-truth anomaly schedules for labeled datasets.

The paper's Abilene labels came from manual inspection of 444
detections.  Our substitute (docs/ARCHITECTURE.md, "Paper
experiments"): datasets are generated with a *known* schedule of
anomalies — which types, when, in which OD flows, at what intensity —
so every detection can be scored against ground truth and the
classification experiments have labels.

Type proportions follow the paper's Table 6 Abilene counts; intensity
ranges are chosen so each type spans its realistic detectability
regime (alpha flows and DOS reach volume-detectable rates; scans and
point-to-multipoint stay low-volume, detectable only via entropy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.anomalies.base import AnomalyTrace, OutageEvent, TrafficSurge
from repro.anomalies.builders import BUILDERS
from repro.flows.binning import TimeBins
from repro.net.routing import Router
from repro.net.topology import Topology

__all__ = ["ScheduledAnomaly", "AnomalySchedule", "DEFAULT_MIX", "make_schedule"]


@dataclass
class ScheduledAnomaly:
    """One ground-truth anomaly event.

    Attributes:
        bin: Time-bin index of the event.
        ods: OD flows involved (one for most types; several for
            outages and split DDOS).
        label: Anomaly type.
        trace: Additive trace (None for outages/surges).
        outage: Outage event (None otherwise).
        surge: Uniform volume surge (None otherwise) — the
            entropy-invisible alpha variant.
        pps: Intensity in packets/second (0 for outages/surges).
    """

    bin: int
    ods: list[int]
    label: str
    trace: AnomalyTrace | None = None
    outage: OutageEvent | None = None
    surge: TrafficSurge | None = None
    pps: float = 0.0


@dataclass
class AnomalySchedule:
    """The full ground truth of a labeled dataset."""

    events: list[ScheduledAnomaly] = field(default_factory=list)

    def labels_by_bin(self) -> dict[int, str]:
        """Bin -> label map (first event wins; bins are unique by construction)."""
        return {e.bin: e.label for e in self.events}

    def events_by_od(self) -> dict[int, list[ScheduledAnomaly]]:
        """OD flow -> events map (outages appear under every affected OD)."""
        by_od: dict[int, list[ScheduledAnomaly]] = {}
        for event in self.events:
            for od in event.ods:
                by_od.setdefault(od, []).append(event)
        return by_od

    def count(self, label: str) -> int:
        """Number of scheduled events with a given label."""
        return sum(1 for e in self.events if e.label == label)

    def __len__(self) -> int:
        return len(self.events)


#: Per-3-weeks event counts, scaled from the paper's Abilene Table 6
#: (alpha 221, dos 27, flash 9, port scan 30, net scan 28, outage 15,
#: point-to-multipoint 7 — unknowns/false alarms arise on their own).
DEFAULT_MIX: dict[str, int] = {
    "alpha": 221,
    "dos": 20,
    "ddos": 7,
    "flash_crowd": 9,
    "port_scan": 30,
    "network_scan": 20,
    "worm": 8,
    "outage": 15,
    "point_multipoint": 7,
}

#: Intensity ranges in pps (log-uniform).  Low-volume types sit well
#: below the ~2068 pps mean OD rate; alpha/DOS span up to rates that
#: volume metrics catch.
_PPS_RANGES: dict[str, tuple[float, float]] = {
    "alpha": (150.0, 3_000.0),
    "dos": (2_000.0, 120_000.0),
    "ddos": (2_000.0, 40_000.0),
    "flash_crowd": (1_500.0, 10_000.0),
    "port_scan": (80.0, 500.0),
    "network_scan": (80.0, 500.0),
    "worm": (80.0, 500.0),
    "point_multipoint": (200.0, 2_000.0),
}

#: Fraction of scheduled alpha flows that are uniform volume surges
#: (entropy-invisible, volume-detectable) rather than additive
#: concentrated flows.  This split reproduces the paper's Table 3:
#: many alphas found in volume, many *additional* ones only in entropy.
SURGE_ALPHA_FRACTION = 0.4


def _scaled_mix(mix: dict[str, int], n_bins: int) -> dict[str, int]:
    """Scale a per-3-weeks mix to the dataset length (>=1 per type)."""
    three_weeks = 3 * 2016
    factor = n_bins / three_weeks
    return {label: max(1, int(round(n * factor))) for label, n in mix.items()}


def make_schedule(
    topology: Topology,
    bins: TimeBins,
    seed: int = 0,
    mix: dict[str, int] | None = None,
    intensity_scale: float = 1.0,
) -> AnomalySchedule:
    """Draw a random ground-truth schedule.

    Each event occupies its own bin (no co-occurrence, so bin labels are
    unambiguous) at a uniformly random OD flow.  Outages affect all OD
    flows routed over a randomly chosen backbone link.

    Args:
        topology: Network to schedule on.
        bins: Time grid; events avoid the first/last 2 bins.
        seed: RNG seed (independent of the traffic generator's).
        mix: Per-3-weeks counts by label; defaults to
            :data:`DEFAULT_MIX`, scaled to the dataset length.
        intensity_scale: Multiplier on all intensity ranges (used by
            sensitivity ablations).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xABE]))
    counts = _scaled_mix(mix or DEFAULT_MIX, bins.n_bins)
    total_events = sum(counts.values())
    usable = np.arange(2, bins.n_bins - 2)
    if total_events > len(usable):
        raise ValueError(
            f"schedule of {total_events} events does not fit in {bins.n_bins} bins"
        )
    event_bins = rng.choice(usable, size=total_events, replace=False)
    router = Router(topology)
    links = list(topology.graph.edges())

    events: list[ScheduledAnomaly] = []
    cursor = 0
    for label, n in sorted(counts.items()):
        for _ in range(n):
            b = int(event_bins[cursor])
            cursor += 1
            if label == "outage":
                link = links[rng.integers(len(links))]
                ods = router.link_load_ods(link)
                severity = rng.uniform(0.0, 0.15)
                events.append(
                    ScheduledAnomaly(
                        bin=b,
                        ods=ods,
                        label="outage",
                        outage=OutageEvent(
                            head_ranks=int(rng.integers(5, 20)),
                            head_survival=severity,
                            tail_survival=rng.uniform(0.4, 0.8),
                        ),
                    )
                )
                continue
            od = int(rng.integers(topology.n_od_flows))
            if label == "alpha" and rng.random() < SURGE_ALPHA_FRACTION:
                events.append(
                    ScheduledAnomaly(
                        bin=b,
                        ods=[od],
                        label="alpha",
                        surge=TrafficSurge(factor=float(rng.uniform(3.0, 9.0))),
                    )
                )
                continue
            lo, hi = _PPS_RANGES[label]
            pps = float(
                np.exp(rng.uniform(np.log(lo), np.log(hi))) * intensity_scale
            )
            builder = BUILDERS[label]
            trace = builder(rng, pps=pps)
            events.append(
                ScheduledAnomaly(bin=b, ods=[od], label=label, trace=trace, pps=pps)
            )
    events.sort(key=lambda e: e.bin)
    return AnomalySchedule(events=events)
