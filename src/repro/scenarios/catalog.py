"""The scenario registry: named end-to-end workloads.

A :class:`Scenario` is a complete, reproducible workload — a network,
a bin-grid length, a warm-up split, and a deterministic schedule of
anomaly events composed from the Table-1 zoo
(:mod:`repro.anomalies.builders`) — runnable through
:class:`repro.pipeline.DetectionPipeline` on any source (inline
synthesis, a recorded trace) in any deployment mode (batch, stream,
cluster).  Scenarios echo the workload-stress framing of the related
evaluation literature: one system, many structurally different traffic
regimes.

The registry ships with six workloads:

========================  ====================================================
``baseline-diurnal``      clean diurnal background — the false-alarm floor
``ddos-burst``            a distributed DOS burst plus a single-source echo
``port-scan-sweep``       low-volume port scans sweeping across OD flows
``flash-crowd``           legitimate demand spikes onto one service
``worm-outbreak``         escalating worm + network scanning
``mixed-anomaly-day``     one of each major type across a day of traffic
========================  ====================================================

Register more with :func:`register_scenario`; every registered scenario
is runnable via ``repro run <name>`` and automatically covered by the
mode-parity matrix in ``tests/test_pipeline.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.anomalies.base import AnomalyTrace
from repro.anomalies.builders import BUILDERS
from repro.flows.records import FlowRecordBatch
from repro.net.topology import Topology
from repro.scenarios.records import anomaly_record_batch
from repro.stream.chunks import synthetic_record_stream

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioEvent",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_record_batches",
]


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled ground-truth anomaly of a scenario run.

    Attributes:
        bin: Target bin index.
        od: Target OD flow.
        label: Anomaly type (a :data:`BUILDERS` key).
        trace: The built :class:`AnomalyTrace`.
    """

    bin: int
    od: int
    label: str
    trace: AnomalyTrace


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible end-to-end workload.

    Attributes:
        name: Registry key (also the ``repro run`` argument).
        description: One-line summary shown by ``repro scenarios list``.
        network: Default topology.
        n_bins: Default run length (warm-up included).
        warmup_bins: Default bins accumulated before scoring.
        max_records_per_od: Default record cap per (OD flow, bin).
        salt: Per-scenario seed component keeping schedules independent
            across scenarios at the same user seed.
        build_events: ``(topology, n_bins, warmup_bins, rng) -> events``
            — the deterministic schedule builder.
    """

    name: str
    description: str
    build_events: Callable = field(repr=False)
    network: str = "abilene"
    n_bins: int = 72
    warmup_bins: int = 48
    max_records_per_od: int = 120
    salt: int = 0

    def scaled_warmup(self, n_bins: int) -> int:
        """The warm-up split scaled to a run of ``n_bins`` bins.

        The scenario's ``warmup_bins`` is relative to its default
        length; runs (and schedules) on a different grid keep the
        proportion.
        """
        warmup = int(round(self.warmup_bins * int(n_bins) / self.n_bins))
        return max(1, min(warmup, int(n_bins) - 1))

    def events_for(
        self,
        topology: Topology,
        n_bins: int | None = None,
        warmup_bins: int | None = None,
        seed: int = 0,
    ) -> list[ScenarioEvent]:
        """The scenario's ground-truth events on a concrete grid.

        Deterministic for ``(scenario, topology, n_bins, seed)``: any
        process — a cluster worker, a trace writer, an inline run —
        rebuilds the identical schedule.  When ``warmup_bins`` is not
        given, the scenario's warm-up split scales proportionally with
        ``n_bins`` (the same rule ``repro run`` applies), so events
        stay inside the scored window at any run length.
        """
        n_bins = self.n_bins if n_bins is None else int(n_bins)
        if n_bins < 2:
            raise ValueError(f"n_bins: a scenario needs at least 2 bins, got {n_bins}")
        if warmup_bins is None:
            warmup = self.scaled_warmup(n_bins)
        else:
            warmup = int(warmup_bins)
        warmup = max(1, min(warmup, n_bins - 1))
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), self.salt, 0x5CE])
        )
        events = list(self.build_events(topology, n_bins, warmup, rng))
        for event in events:
            if not 0 <= event.bin < n_bins:
                raise ValueError(
                    f"scenario {self.name!r} schedules bin {event.bin} "
                    f"outside [0, {n_bins})"
                )
            if not 0 <= event.od < topology.n_od_flows:
                raise ValueError(
                    f"scenario {self.name!r} schedules OD {event.od} "
                    f"outside the {topology.name} topology"
                )
        events.sort(key=lambda e: (e.bin, e.od))
        return events


def scenario_record_batches(
    generator,
    events: Sequence[ScenarioEvent],
    bins: Sequence[int],
    ods: Sequence[int] | None = None,
    max_records_per_od: int = 120,
    seed: int = 0,
    event_record_cap: int = 4000,
) -> Iterator[FlowRecordBatch]:
    """The scenario's record stream: background with events merged in.

    One time-sorted batch per bin, exactly like
    :func:`repro.stream.chunks.synthetic_record_stream`, with each
    scheduled event's records
    (:func:`repro.scenarios.records.anomaly_record_batch`) merged into
    its bin.  When ``ods`` restricts the stream to an OD slice (a
    cluster shard), only events targeting owned ODs are materialised —
    the union over any partition equals the unsharded stream record for
    record.
    """
    owned = None if ods is None else set(int(od) for od in ods)
    by_bin: dict[int, list[ScenarioEvent]] = {}
    for event in events:
        if owned is not None and event.od not in owned:
            continue
        by_bin.setdefault(event.bin, []).append(event)
    background = synthetic_record_stream(
        generator, bins, ods=ods, max_records_per_od=max_records_per_od, seed=seed
    )
    for b, batch in zip(bins, background):
        staged = by_bin.get(int(b))
        if staged:
            # Events thinned to zero packets (heavy sampling in the
            # quality harness) stay in the ground-truth schedule but
            # materialise no records — exactly what a sampled export
            # would show.
            parts = [batch] + [
                anomaly_record_batch(
                    generator, e.od, e.bin, e.trace,
                    salt=seed, max_records=event_record_cap,
                )
                for e in staged
                if e.trace.packets >= 1
            ]
            if len(parts) > 1:
                batch = FlowRecordBatch.concat(parts).sort_by_time()
        yield batch


# -- registry ------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name must be unused)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; raises ``ValueError`` naming the registry."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ValueError(f"unknown scenario {name!r}; registered: {known}") from None


# -- built-in workloads --------------------------------------------------


def _live_bins(n_bins: int, warmup: int, k: int) -> list[int]:
    """``k`` bins spread evenly across the scored (post-warm-up) window."""
    live = n_bins - warmup
    positions = np.linspace(0.2, 0.9, k)
    return sorted({warmup + int(round(p * (live - 1))) for p in positions})


def _pick_ods(topology: Topology, rng: np.random.Generator, k: int) -> list[int]:
    """``k`` distinct OD flows, uniformly at random."""
    return [int(od) for od in rng.choice(topology.n_od_flows, size=k, replace=False)]


def _event(b: int, od: int, label: str, rng: np.random.Generator,
           pps: float, **kwargs) -> ScenarioEvent:
    return ScenarioEvent(
        bin=int(b), od=int(od), label=label,
        trace=BUILDERS[label](rng, pps=pps, **kwargs),
    )


def _baseline_events(topology, n_bins, warmup, rng):
    return []


def _ddos_events(topology, n_bins, warmup, rng):
    bins = _live_bins(n_bins, warmup, 2)
    ods = _pick_ods(topology, rng, len(bins))
    events = [_event(bins[0], ods[0], "ddos", rng, pps=2.75e4)]
    if len(bins) > 1:
        # The single-source echo the paper's Los Nettos trace shows
        # after the distributed phase, at a tenth of its rate.
        events.append(_event(bins[1], ods[1], "dos", rng, pps=3.5e4))
    return events


def _port_scan_events(topology, n_bins, warmup, rng):
    bins = _live_bins(n_bins, warmup, 3)
    ods = _pick_ods(topology, rng, len(bins))
    return [
        _event(b, od, "port_scan", rng, pps=float(rng.uniform(120.0, 320.0)),
               dispersed_src_ports=bool(i % 2 == 0))
        for i, (b, od) in enumerate(zip(bins, ods))
    ]


def _flash_crowd_events(topology, n_bins, warmup, rng):
    bins = _live_bins(n_bins, warmup, 2)
    ods = _pick_ods(topology, rng, len(bins))
    return [
        _event(b, od, "flash_crowd", rng, pps=float(rng.uniform(4_000.0, 9_000.0)))
        for b, od in zip(bins, ods)
    ]


def _worm_events(topology, n_bins, warmup, rng):
    bins = _live_bins(n_bins, warmup, 3)
    ods = _pick_ods(topology, rng, len(bins))
    events = []
    pps = 150.0
    for i, (b, od) in enumerate(zip(bins, ods)):
        label = "network_scan" if i == 0 else "worm"
        events.append(_event(b, od, label, rng, pps=pps))
        pps *= 2.0  # the outbreak escalates as infected hosts scan
    return events


def _mixed_events(topology, n_bins, warmup, rng):
    kinds = (
        ("alpha", 2_500.0),
        ("ddos", 2.2e4),
        ("port_scan", 220.0),
        ("worm", 300.0),
        ("point_multipoint", 900.0),
    )
    bins = _live_bins(n_bins, warmup, len(kinds))
    ods = _pick_ods(topology, rng, len(bins))
    return [
        _event(b, od, label, rng, pps=pps)
        for (label, pps), b, od in zip(kinds, bins, ods)
    ]


register_scenario(Scenario(
    name="baseline-diurnal",
    description="clean diurnal background, no scheduled anomalies "
                "(the false-alarm floor)",
    build_events=_baseline_events,
    salt=1,
))
register_scenario(Scenario(
    name="ddos-burst",
    description="a 27.5k pps distributed DOS burst with a single-source "
                "echo (paper Table 4 rates)",
    build_events=_ddos_events,
    salt=2,
))
register_scenario(Scenario(
    name="port-scan-sweep",
    description="three low-volume port scans sweeping across OD flows "
                "(both source-port variants)",
    build_events=_port_scan_events,
    salt=3,
))
register_scenario(Scenario(
    name="flash-crowd",
    description="legitimate demand spikes converging on one existing "
                "service",
    build_events=_flash_crowd_events,
    salt=4,
))
register_scenario(Scenario(
    name="worm-outbreak",
    description="escalating worm/network scanning at doubling probe "
                "rates",
    build_events=_worm_events,
    salt=5,
))
register_scenario(Scenario(
    name="mixed-anomaly-day",
    description="one of each major anomaly type spread across the "
                "scored window",
    build_events=_mixed_events,
    salt=6,
))
