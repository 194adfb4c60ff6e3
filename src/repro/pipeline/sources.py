"""RecordSource adapters: every way records enter the pipeline.

A :class:`RecordSource` abstracts where flow records come from so the
same :class:`repro.pipeline.DetectionPipeline` (and every deployment
mode behind it) can consume any of them:

* :class:`ScenarioSource` — the one synthesiser: a registered
  end-to-end workload from :mod:`repro.scenarios`, i.e. background
  records from a :class:`repro.traffic.generator.TrafficGenerator`
  (counter-based draws keyed on ``(seed, od, bin, record index)``) with
  the scenario's anomaly events materialised as records and merged in.
  ``baseline-diurnal`` schedules no events, so it is the plain
  background stream; :meth:`ScenarioSource.write_trace` is the one way
  synthesised records become a trace file;
* :class:`TraceSource` — zero-copy mmap replay of a recorded columnar
  trace (:mod:`repro.io.trace`).

Every source reduces to a picklable :class:`SourceSpec` description, so
cluster workers rebuild *their* view of the same source in another
process (:func:`build_source`) and — because every record draw is a
pure function of ``(seed, OD flow, bin, record index)``, independent of
the partition, the bin grouping and where a restart resumes — see
records bit-identical to an unsharded sweep of the same source.  That is the
contract that keeps exact-mode detections identical across batch,
stream, and cluster modes at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.flows.binning import BIN_SECONDS, TimeBins
from repro.flows.records import FlowRecordBatch
from repro.net.topology import Topology, abilene, geant
from repro.stream.chunks import DEFAULT_CHUNK_RECORDS, iter_record_chunks

__all__ = [
    "RecordSource",
    "ScenarioSource",
    "SourceSpec",
    "TraceSource",
    "build_source",
    "shard_mask",
    "shard_ods",
]

_NETWORKS = ("abilene", "geant")


def _build_topology(network: str) -> Topology:
    if network not in _NETWORKS:
        raise ValueError(
            f"unknown network {network!r}; expected one of {_NETWORKS}"
        )
    return abilene() if network == "abilene" else geant()


def shard_ods(n_od_flows: int, n_shards: int, shard_id: int) -> list[int]:
    """Round-robin OD-flow partition: shard ``s`` owns ``od % n_shards == s``.

    Round-robin (rather than contiguous ranges) balances load because
    the gravity model makes OD-flow rates heavy-tailed in OD index.
    The single definition of the partition — :func:`shard_mask` is its
    vectorised membership test, and every source's ``shard_batches``
    uses one of the two; exact-mode cluster correctness rests on all
    shards agreeing on ownership.
    """
    if not 0 <= shard_id < n_shards:
        raise ValueError("shard_id must be in [0, n_shards)")
    return list(range(shard_id, n_od_flows, n_shards))


def shard_mask(ods: np.ndarray, n_shards: int, shard_id: int) -> np.ndarray:
    """Membership mask of :func:`shard_ods` over a resolved-OD array."""
    if not 0 <= shard_id < n_shards:
        raise ValueError("shard_id must be in [0, n_shards)")
    return ods % n_shards == shard_id


@dataclass(frozen=True)
class SourceSpec:
    """Picklable description of a record source.

    Rebuilding a source from its spec (:func:`build_source`) in any
    process yields the same records — the cluster runner ships specs to
    workers instead of sources.

    Attributes:
        kind: ``"trace"``, ``"scenario"``, or ``"fuzzed"``.
        network: Topology name ("abilene"/"geant").
        n_bins: Bins the source covers (for traces: bins to replay).
        seed: Generator + record-draw seed (unused for traces).
        max_records_per_od: Record cap per (OD flow, bin) (synthesis).
        trace_path: The trace file (``kind="trace"`` only).
        scenario: Registered scenario name (``kind="scenario"``) or the
            fuzzed scenario's derived name (``kind="fuzzed"``).
        bin_width / bin_start: The bin grid (traces carry their own).
        fuzz: The :class:`repro.quality.fuzzer.FuzzSpec` a fuzzed
            scenario rebuilds from (``kind="fuzzed"`` only).
    """

    kind: str
    network: str = "abilene"
    n_bins: int = 72
    seed: int = 0
    max_records_per_od: int = 400
    trace_path: str | None = None
    scenario: str | None = None
    bin_width: float = BIN_SECONDS
    bin_start: float = 0.0
    fuzz: object = None


class RecordSource:
    """Base class: a described, re-buildable stream of record chunks."""

    def __init__(self, spec: SourceSpec) -> None:
        self.spec = spec
        self._topology: Topology | None = None

    @property
    def topology(self) -> Topology:
        """The backbone this source's records belong to (built lazily)."""
        if self._topology is None:
            self._topology = _build_topology(self.spec.network)
        return self._topology

    @property
    def bins(self) -> TimeBins:
        """The bin grid the records are binned on."""
        return TimeBins(
            n_bins=self.spec.n_bins,
            width=self.spec.bin_width,
            start=self.spec.bin_start,
        )

    @property
    def provenance(self) -> dict:
        """Report-ready provenance: source kind plus its identifiers."""
        out = {"source": self.spec.kind, "network": self.spec.network}
        if self.spec.trace_path:
            out["trace_path"] = self.spec.trace_path
        if self.spec.scenario:
            out["scenario"] = self.spec.scenario
        return out

    def batches(
        self, chunk_records: int | None = None
    ) -> Iterator[FlowRecordBatch]:
        """The full record stream, in time order.

        Args:
            chunk_records: Optional re-chunking bound (memory envelope);
                None yields the source's natural batches.
        """
        raise NotImplementedError

    def shard_batches(
        self,
        shard_id: int,
        n_shards: int,
        router,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> Iterator[tuple[FlowRecordBatch, np.ndarray | None]]:
        """One shard's ``(chunk, ods)`` pairs.

        The split is the round-robin OD partition (``od % n_shards``,
        :func:`shard_ods`): each shard owns every record of its ODs, so
        every OD's records meet one shard's histograms or sketches.

        ``ods`` is the per-record OD attribution when the source
        already resolved it (trace replay, where attribution doubles
        as the shard filter), else None and the consumer's stage
        resolves.
        """
        raise NotImplementedError

    def _rechunk(self, stream, chunk_records):
        if chunk_records is None:
            return stream
        return iter_record_chunks(stream, chunk_records)


class TraceSource(RecordSource):
    """Zero-copy replay of a recorded columnar trace file.

    The trace's own bin grid and network win: ``network``/``n_bins``
    arguments are validated against the header
    (:meth:`repro.io.trace.TraceInfo.ensure_compatible`), never used to
    re-bin.  The file must open whole: a truncated trace raises
    :class:`~repro.io.trace.TraceError` here, and any header but the one
    format version raises it naming ``repro trace write``.
    """

    def __init__(
        self,
        path: str | Path,
        network: str | None = None,
        n_bins: int | None = None,
    ) -> None:
        from repro.io.trace import trace_info

        info = trace_info(path)
        recorded = info.network.lower() if info.network else None
        if network is not None:
            info.ensure_compatible(network=network)
        network = network or recorded
        if network not in _NETWORKS:
            raise ValueError(
                f"trace {path} records network {info.network!r}, which is "
                f"not a known topology; pass network= explicitly"
            )
        if n_bins is None:
            n_bins = info.n_bins
        info.ensure_compatible(min_bins=n_bins)
        self.info = info
        super().__init__(
            SourceSpec(
                kind="trace",
                network=network,
                n_bins=int(n_bins),
                trace_path=str(path),
                bin_width=info.bins.width,
                bin_start=info.bins.start,
            )
        )

    def batches(self, chunk_records=None):
        from repro.stream.chunks import trace_record_stream

        return trace_record_stream(
            self.spec.trace_path,
            bins=range(self.spec.n_bins),
            chunk_records=chunk_records or DEFAULT_CHUNK_RECORDS,
        )

    def shard_batches(self, shard_id, n_shards, router,
                      chunk_records=DEFAULT_CHUNK_RECORDS):
        from repro.io.trace import TraceReader

        reader = TraceReader(self.spec.trace_path)
        # The trace stores the resolved OD per record; bins replay
        # contiguously and in record order, so a running offset maps
        # every yielded chunk onto the stored column.  It doubles as
        # the shard filter and is fed to the monitor, so no LPM pass
        # runs anywhere.
        stored = reader.derived_column("od")
        offset = reader.bin_range(0)[0] if self.spec.n_bins else 0
        for chunk in reader.iter_chunks(
            chunk_records=chunk_records, bins=range(self.spec.n_bins)
        ):
            ods = np.asarray(stored[offset:offset + len(chunk)], dtype=np.int64)
            offset += len(chunk)
            if n_shards > 1:
                mask = shard_mask(ods, n_shards, shard_id)
                if not mask.any():
                    continue
                chunk = chunk.select(mask)
                ods = ods[mask]
            yield chunk, ods


class ScenarioSource(RecordSource):
    """A registered end-to-end workload: background + anomaly records.

    The scenario's schedule is rebuilt deterministically from
    ``(scenario name, topology, n_bins, seed)`` in whichever process
    consumes the source; background records are counter-based draws
    and each event's records come from a per-(OD, bin) seeded stream —
    so shards regenerate exactly the records their OD slice owns, and
    the union over shards equals the unsharded stream.
    """

    def __init__(
        self,
        scenario,
        network: str | None = None,
        n_bins: int | None = None,
        seed: int = 0,
        max_records_per_od: int | None = None,
    ) -> None:
        from repro.scenarios import get_scenario

        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        self.scenario = scenario
        # None means "the scenario's default"; zero is not None.
        if n_bins is None:
            n_bins = scenario.n_bins
        if max_records_per_od is None:
            max_records_per_od = scenario.max_records_per_od
        for name, value in (("n_bins", n_bins), ("max_records_per_od", max_records_per_od)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        super().__init__(
            SourceSpec(
                kind="scenario",
                network=network or scenario.network,
                n_bins=int(n_bins),
                seed=int(seed),
                max_records_per_od=int(max_records_per_od),
                scenario=scenario.name,
            )
        )
        self._events = None

    @property
    def events(self):
        """The scenario's ground-truth events on this source's grid."""
        if self._events is None:
            self._events = self.scenario.events_for(
                self.topology, n_bins=self.spec.n_bins, seed=self.spec.seed
            )
        return self._events

    def labels_by_bin(self) -> dict[int, str]:
        """Ground-truth labels keyed by bin (for scored reports)."""
        return {e.bin: e.label for e in self.events}

    def _stream(self, ods=None):
        from repro.scenarios import scenario_record_batches
        from repro.traffic.generator import TrafficGenerator

        generator = TrafficGenerator(self.topology, self.bins, seed=self.spec.seed)
        return scenario_record_batches(
            generator,
            self.events,
            range(self.spec.n_bins),
            ods=ods,
            max_records_per_od=self.spec.max_records_per_od,
            seed=self.spec.seed,
        )

    def batches(self, chunk_records=None):
        return self._rechunk(self._stream(), chunk_records)

    def shard_batches(self, shard_id, n_shards, router,
                      chunk_records=DEFAULT_CHUNK_RECORDS):
        ods = shard_ods(self.topology.n_od_flows, n_shards, shard_id)
        for chunk in iter_record_chunks(self._stream(ods=ods), chunk_records):
            yield chunk, None

    def write_trace(self, path: str | Path):
        """Record this scenario's full stream to a columnar trace file.

        The written trace replays bit-identical to :meth:`batches`, so
        any mode fed from it sees exactly the inline records; the
        scenario name, seed and record-synthesis scheme land in the
        trace header's provenance (the seed regenerates these records
        only under a build of the same scheme).

        Returns:
            The written trace's :class:`repro.io.trace.TraceInfo`.
        """
        from repro.io.trace import TraceWriter
        from repro.traffic.generator import SYNTHESIS_SCHEME

        spec = self.spec
        with TraceWriter(
            path,
            n_bins=spec.n_bins,
            bin_width=spec.bin_width,
            start=spec.bin_start,
            network=self.topology.name,
            topology=self.topology,
            meta={
                "scenario": spec.scenario,
                "seed": spec.seed,
                "max_records_per_od": spec.max_records_per_od,
                "synthesis": SYNTHESIS_SCHEME,
            },
        ) as writer:
            for b, batch in zip(range(spec.n_bins), self._stream()):
                writer.append(b, batch)
        return writer.info


def build_source(spec: SourceSpec) -> RecordSource:
    """Rebuild a source from its picklable description."""
    if spec.kind == "trace":
        if spec.trace_path is None:
            raise ValueError("trace source spec needs trace_path")
        return TraceSource(
            spec.trace_path, network=spec.network, n_bins=spec.n_bins
        )
    if spec.kind == "scenario":
        if spec.scenario is None:
            raise ValueError("scenario source spec needs a scenario name")
        return ScenarioSource(
            spec.scenario,
            network=spec.network,
            n_bins=spec.n_bins,
            seed=spec.seed,
            max_records_per_od=spec.max_records_per_od,
        )
    if spec.kind == "fuzzed":
        if spec.fuzz is None:
            raise ValueError("fuzzed source spec needs its FuzzSpec")
        from repro.quality.fuzzer import FuzzedScenarioSource

        return FuzzedScenarioSource(spec.fuzz)
    raise ValueError(f"unknown source kind {spec.kind!r}")
