"""OD-flow aggregation and the TrafficCube.

The paper constructs, for every Origin-Destination flow and every
5-minute bin, six views of traffic: byte count, packet count, and the
sample entropy of the four traffic features.  :class:`TrafficCube`
holds exactly those views:

* ``packets`` and ``bytes`` — ``(t, p)`` volume matrices, and
* ``entropy`` — the three-way matrix ``H(t, p, k)`` of Section 4.2
  (time x OD flow x feature).

:class:`ODFlowAggregator` builds a cube from raw flow-record batches by
resolving each record's egress PoP (via :class:`repro.net.routing.Router`)
and accumulating per-OD feature histograms.  The synthetic traffic
generator (:mod:`repro.traffic.generator`) builds cubes directly — same
container, faster path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flows.binning import TimeBins
from repro.flows.features import FEATURES, N_FEATURES
from repro.flows.records import FlowRecordBatch
from repro.kernels import group_reduce, group_sums
from repro.net.routing import Router
from repro.net.topology import Topology

__all__ = ["TrafficCube", "ODFlowAggregator"]


@dataclass
class TrafficCube:
    """Network-wide OD-flow traffic views.

    Attributes:
        bins: The time-bin grid (t bins).
        n_od_flows: Number p of OD flows.
        packets: ``(t, p)`` packet counts.
        bytes: ``(t, p)`` byte counts.
        entropy: ``(t, p, 4)`` sample entropies, feature order
            :data:`repro.flows.features.FEATURES`.
        network: Optional name of the generating network.
    """

    bins: TimeBins
    n_od_flows: int
    packets: np.ndarray
    bytes: np.ndarray
    entropy: np.ndarray
    network: str = ""

    def __post_init__(self) -> None:
        t, p = self.bins.n_bins, self.n_od_flows
        self.packets = np.asarray(self.packets, dtype=np.float64)
        self.bytes = np.asarray(self.bytes, dtype=np.float64)
        self.entropy = np.asarray(self.entropy, dtype=np.float64)
        if self.packets.shape != (t, p):
            raise ValueError(f"packets shape {self.packets.shape} != {(t, p)}")
        if self.bytes.shape != (t, p):
            raise ValueError(f"bytes shape {self.bytes.shape} != {(t, p)}")
        if self.entropy.shape != (t, p, N_FEATURES):
            raise ValueError(
                f"entropy shape {self.entropy.shape} != {(t, p, N_FEATURES)}"
            )

    @classmethod
    def zeros(cls, bins: TimeBins, n_od_flows: int, network: str = "") -> "TrafficCube":
        """An all-zero cube of the given shape."""
        t = bins.n_bins
        return cls(
            bins=bins,
            n_od_flows=n_od_flows,
            packets=np.zeros((t, n_od_flows)),
            bytes=np.zeros((t, n_od_flows)),
            entropy=np.zeros((t, n_od_flows, N_FEATURES)),
            network=network,
        )

    @property
    def n_bins(self) -> int:
        """Number of time bins t."""
        return self.bins.n_bins

    def copy(self) -> "TrafficCube":
        """Deep copy (used by the anomaly injector)."""
        return TrafficCube(
            bins=self.bins,
            n_od_flows=self.n_od_flows,
            packets=self.packets.copy(),
            bytes=self.bytes.copy(),
            entropy=self.entropy.copy(),
            network=self.network,
        )

    def feature_matrix(self, feature: int) -> np.ndarray:
        """The ``(t, p)`` entropy matrix of one feature (paper Fig. 3)."""
        if not 0 <= feature < N_FEATURES:
            raise ValueError(f"feature index out of range: {feature}")
        return self.entropy[:, :, feature]

    def od_timeseries(self, od: int) -> dict[str, np.ndarray]:
        """All six views of one OD flow, keyed by view name."""
        series = {
            "packets": self.packets[:, od],
            "bytes": self.bytes[:, od],
        }
        for k, name in enumerate(FEATURES):
            series[f"H({name})"] = self.entropy[:, od, k]
        return series

    def slice_bins(self, start: int, stop: int) -> "TrafficCube":
        """Cube restricted to bins ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_bins:
            raise ValueError("invalid bin slice")
        sub_bins = TimeBins(
            n_bins=stop - start,
            width=self.bins.width,
            start=self.bins.start + start * self.bins.width,
        )
        return TrafficCube(
            bins=sub_bins,
            n_od_flows=self.n_od_flows,
            packets=self.packets[start:stop].copy(),
            bytes=self.bytes[start:stop].copy(),
            entropy=self.entropy[start:stop].copy(),
            network=self.network,
        )

    def mean_od_pps(self) -> float:
        """Average OD-flow traffic intensity in packets/second.

        The paper quotes 2068 pps for the average Abilene OD flow in the
        injection timebin; this is the cube-wide analogue.
        """
        return float(self.packets.mean() / self.bins.width)


@dataclass
class ODFlowAggregator:
    """Build a :class:`TrafficCube` from raw flow-record batches.

    Records are attributed to OD flows by (ingress PoP, resolved egress
    PoP) and aggregated into packet-weighted feature histograms per
    (bin, OD flow); entropy is computed per histogram.  Everything runs
    through the grouped-reduction kernel (:mod:`repro.kernels`) on the
    composite ``bin * p + od`` group key: OD attribution is one
    vectorised longest-prefix lookup, histogramming one sort +
    ``reduceat`` per feature, and all per-(bin, OD) entropies fall out
    of a single grouped pass — no per-OD Python loop anywhere.

    Attributes:
        topology: The backbone (defines p and per-PoP prefixes).
        router: Egress resolution; built from the topology when omitted.
        apply_anonymization: When True, the topology's anonymisation
            (e.g. Abilene's 11 bits) is applied to record addresses
            *before* histogramming — anonymisation happens at the
            collector, so this is the realistic default.
    """

    topology: Topology
    router: Router | None = None
    apply_anonymization: bool = True
    _parts: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.router is None:
            self.router = Router(self.topology)

    def aggregate(self, batch: FlowRecordBatch, bins: TimeBins) -> TrafficCube:
        """Aggregate one batch spanning the whole bin grid."""
        self._parts.clear()
        try:
            self._accumulate(batch, bins)
            return self._finalize(bins)
        finally:
            # Don't pin the record columns past the call (success or
            # not): the cube is small, the stash is the whole trace.
            self._parts.clear()

    def aggregate_stream(self, chunks, bins: TimeBins) -> TrafficCube:
        """Aggregate any iterable of record batches into one cube.

        The whole-trace reduction behind the batch pipeline mode:
        chunks are attributed and stashed one at a time, then reduced
        in a single kernel pass over the composite ``bin * p + od``
        keys — memory is bounded by the stashed key/value columns, not
        by per-(bin, OD) state.

        Args:
            chunks: Iterable of :class:`FlowRecordBatch` (any chunking;
                order does not matter for the exact reduction).
            bins: The bin grid to aggregate on.

        Returns:
            The same cube :meth:`aggregate` builds from the equivalent
            concatenated batch.
        """
        self._parts.clear()
        try:
            for chunk in chunks:
                self._accumulate(chunk, bins)
            return self._finalize(bins)
        finally:
            self._parts.clear()

    def _accumulate(self, batch: FlowRecordBatch, bins: TimeBins) -> None:
        """Attribute one batch to (bin, OD) groups and stash the columns."""
        if len(batch) == 0:
            return
        idx = bins.indices(batch.timestamp)
        in_range = idx >= 0
        if not in_range.all():
            # Records outside the grid are dropped, mirroring collectors
            # that discard records outside the export window.
            batch = batch.select(in_range)
            idx = idx[in_range]
            if len(batch) == 0:
                return
        ods = self.router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip)
        if self.apply_anonymization and self.topology.anonymization_bits:
            batch = batch.anonymized(self.topology.anonymization_bits)
        groups = idx * self.topology.n_od_flows + ods
        self._parts.append((groups, batch))

    def _finalize(self, bins: TimeBins) -> TrafficCube:
        cube = TrafficCube.zeros(bins, self.topology.n_od_flows, self.topology.name)
        if not self._parts:
            return cube
        p = self.topology.n_od_flows
        n_groups = bins.n_bins * p
        groups = (
            self._parts[0][0]
            if len(self._parts) == 1
            else np.concatenate([g for g, _ in self._parts])
        )
        column = lambda name: (
            getattr(self._parts[0][1], name)
            if len(self._parts) == 1
            else np.concatenate([getattr(b, name) for _, b in self._parts])
        )
        packets = column("packets")
        cube.packets[:] = group_sums(groups, packets, n_groups).reshape(-1, p)
        cube.bytes[:] = group_sums(groups, column("bytes"), n_groups).reshape(-1, p)
        entropy_flat = cube.entropy.reshape(n_groups, N_FEATURES)
        for k, name in enumerate(FEATURES):
            runs = group_reduce(groups, column(name), packets)
            entropy_flat[runs.group_ids, k] = runs.entropies()
        return cube
