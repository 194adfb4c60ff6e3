"""Labeled datasets: synthetic Abilene/Geant with ground-truth anomalies.

A :class:`LabeledDataset` bundles a generated traffic cube (with the
schedule's anomalies injected) together with the schedule itself, the
clean cube, and the generator — everything the experiments need to
score detections, attribute labels, and re-derive background
histograms.

Injection rides the generator's own OD loop: each OD's scheduled
events go in while the stream built for the clean cube is still in
hand, so a labelled build realises every OD stream exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.schedule import AnomalySchedule, ScheduledAnomaly, make_schedule
from repro.anomalies.injector import inject_outage, inject_trace
from repro.flows.binning import TimeBins
from repro.flows.odflows import TrafficCube
from repro.net.topology import Topology, abilene, geant
from repro.traffic.generator import GeneratorConfig, TrafficGenerator

__all__ = [
    "LabeledDataset",
    "make_labeled_dataset",
    "abilene_dataset",
    "geant_dataset",
]


@dataclass
class LabeledDataset:
    """A generated network trace with ground truth.

    Attributes:
        topology: The network.
        cube: Traffic cube *with* anomalies injected.
        clean_cube: The cube before injection (for injection sweeps and
            ablations).
        schedule: Ground-truth anomaly schedule.
        generator: The traffic generator (deterministic background
            histogram regeneration).
    """

    topology: Topology
    cube: TrafficCube
    clean_cube: TrafficCube
    schedule: AnomalySchedule
    generator: TrafficGenerator

    @property
    def labels_by_bin(self) -> dict[int, str]:
        """Ground-truth label per anomalous bin."""
        return self.schedule.labels_by_bin()

    def event_at(self, b: int) -> ScheduledAnomaly | None:
        """The scheduled event at bin ``b``, if any."""
        for event in self.schedule.events:
            if event.bin == b:
                return event
        return None


def make_labeled_dataset(
    topology: Topology,
    weeks: float = 3.0,
    seed: int = 0,
    mix: dict[str, int] | None = None,
    config: GeneratorConfig | None = None,
    intensity_scale: float = 1.0,
) -> LabeledDataset:
    """Generate a labeled dataset for a topology.

    Args:
        topology: Network (e.g. :func:`repro.net.topology.abilene`).
        weeks: Trace length; the paper uses 3 weeks per network.
        seed: Master seed — controls both traffic and the schedule.
        mix: Anomaly mix override (per 3 weeks; scaled to ``weeks``).
        config: Generator configuration override.
        intensity_scale: Multiplier on anomaly intensity ranges (larger
            networks carry proportionally larger anomalies).
    """
    bins = TimeBins.for_weeks(weeks)
    generator = TrafficGenerator(topology, bins, config=config, seed=seed)
    schedule = make_schedule(
        topology, bins, seed=seed + 1, mix=mix, intensity_scale=intensity_scale
    )
    by_od = schedule.events_by_od()
    cube = TrafficCube.zeros(bins, topology.n_od_flows, network=topology.name)

    def inject(clean: TrafficCube, od: int) -> None:
        # Scheduled anomalies are real traffic, sampled like the rest:
        # inject_trace thins a trace's histogram side by the network's
        # sampling factor and adds its full packets to the volumes (the
        # paper-protocol sweeps of InjectionScorer do not sample).
        cube.packets[:, od] = clean.packets[:, od]
        cube.bytes[:, od] = clean.bytes[:, od]
        cube.entropy[:, od] = clean.entropy[:, od]
        for event in by_od.get(od, ()):
            scaler = event.outage or event.surge
            if scaler is not None:
                inject_outage(cube, generator, [od], event.bin, scaler)
            else:
                inject_trace(cube, generator, od, event.bin, event.trace)

    clean = generator._generate(inject)
    return LabeledDataset(
        topology=topology,
        cube=cube,
        clean_cube=clean,
        schedule=schedule,
        generator=generator,
    )


def abilene_dataset(
    weeks: float = 3.0, seed: int = 0, mix: dict[str, int] | None = None
) -> LabeledDataset:
    """Labeled Abilene-like dataset (11 PoPs, 121 OD flows)."""
    return make_labeled_dataset(abilene(), weeks=weeks, seed=seed, mix=mix)


def geant_dataset(
    weeks: float = 3.0, seed: int = 100, mix: dict[str, int] | None = None
) -> LabeledDataset:
    """Labeled Geant-like dataset (22 PoPs, 484 OD flows).

    Geant's flow export is sampled 1/1000 (vs Abilene's 1/100); its OD
    flows carry roughly 10x the raw traffic, so the *sampled* histogram
    mass per bin matches Abilene's and anomaly intensities scale up by
    the same factor.
    """
    config = GeneratorConfig(mean_od_pps=20_680.0, seed=seed)
    return make_labeled_dataset(
        geant(), weeks=weeks, seed=seed, mix=mix, config=config, intensity_scale=10.0
    )
