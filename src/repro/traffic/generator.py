"""Synthetic network-wide traffic generation.

Produces :class:`repro.flows.odflows.TrafficCube` objects that stand in
for the paper's sampled NetFlow datasets.  Design constraints, in order
of importance:

1. **Statistical fidelity to what the methods consume.** Normal OD-flow
   traffic must be low-dimensional across the ensemble (shared diurnal
   basis), feature distributions heavy-tailed with volume-coupled
   support sizes (so entropy co-varies with volume, as the paper
   observes), and per-bin histograms noisy like sampled flow data
   (Poissonised multinomial sampling).
2. **Deterministic regeneration.** The anomaly injector must recover
   the exact background histogram of any (OD flow, bin) to superimpose
   anomaly packets onto it.  Every quantity of the cube therefore
   derives from ``SeedSequence([seed, od, tag])`` streams: regenerating
   an OD's stream yields bit-identical histograms, so the cube stores
   only entropies and volumes (storing all histograms for 3 weeks x 484
   ODs would be gigabytes).  Flow *records* go one step further: each
   uniform a background record consumes is a pure function of ``(seed,
   salt, od, bin, record index, draw slot)`` (:func:`record_uniforms`,
   a counter-based splitmix64 read), so any process, OD partition, bin
   grouping or restart that materialises a record draws it identically
   — no generator object, hence no draw order, exists to disagree on.
3. **Speed.** The model and the histograms are vectorised over time
   (three Abilene-weeks, 6048 x 121 bins x 4 features, take seconds); a
   bin group of records is array passes over every OD flow at once,
   sorted once.  Only the seeded per-OD draws and one small rank search
   per OD loop in Python.  Every pass is elementwise or per row, so the
   records are bit-identical to a per-OD loop's.

OD flows are built in two steps: :meth:`TrafficGenerator._model` (rates,
per-feature concentration and support — everything random short of
sampling) and a realisation of it.  :meth:`TrafficGenerator.od_stream`
realises Poisson histograms for the cube and the injector;
:meth:`TrafficGenerator.materialize_bin_group` realises flow records
straight from the model's pmf rows (the record draw *is* the sampling
step), so the record-level pipeline (records -> binning -> OD
aggregation -> cube) can be exercised end-to-end.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.entropy import entropy_rows
from repro.flows.binning import TimeBins
from repro.flows.features import DST_IP, DST_PORT, N_FEATURES, SRC_IP, SRC_PORT
from repro.flows.odflows import TrafficCube
from repro.flows.records import FlowRecordBatch
from repro.net.addressing import EPHEMERAL_PORT_START, AddressPool, well_known_ports
from repro.net.topology import Topology
from repro.traffic.distributions import active_support, port_pmf
from repro.traffic.diurnal import DiurnalBasis, ar1_draws, ar1_recursion, ar1_series
from repro.traffic.gravity import od_mean_rates

__all__ = ["FeatureModel", "GeneratorConfig", "ODStream", "SYNTHESIS_SCHEME",
           "TrafficGenerator", "record_uniforms"]

#: Version of the record-synthesis scheme, written into trace provenance:
#: a seed regenerates a trace's records only under the scheme that wrote
#: it (1: per-(OD, bin) ``default_rng`` streams; 2: :func:`record_uniforms`).
SYNTHESIS_SCHEME = 2
# Tags for independent random streams per OD flow.
_TAG_RATE, _TAG_DRIFT, _TAG_COUNTS, _TAG_BYTES, _TAG_WEIGHTS, _TAG_GLITCH = range(6)
# Pseudo-OD ids for network-wide (shared) random streams.
_GLOBAL_OD = 1 << 21
#: Uniforms one background record consumes, in slot order: flow weight,
#: the four feature ranks, timestamp.
_DRAWS = 2 + N_FEATURES
#: Rank draws and cdf tables are compared as integers of this many bits,
#: so a rank cannot depend on how a row offset rounds in floating point.
_RANK_BITS = 40
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: What draw slot ``s`` adds to a record's splitmix64 state.
_SLOT_STEPS = np.arange(1, _DRAWS + 1, dtype=np.uint64) * _GOLDEN


@dataclass(frozen=True)
class FeatureModel:
    """Distribution model for one traffic feature of one OD flow.

    Attributes:
        support: Base number of distinct feature values (ranks).
        alpha: Base Zipf exponent (concentration).
        alpha_amplitude: Slow sinusoidal drift amplitude of alpha.
        alpha_sigma: AR(1) jitter of alpha.
        volume_exponent: Coupling of active support to volume (0
            decouples entropy from volume).
        kind: ``"zipf"`` for addresses, ``"port"`` for the
            well-known-head port profile.
    """

    support: int
    alpha: float
    alpha_amplitude: float = 0.15
    alpha_sigma: float = 0.002
    volume_exponent: float = 0.35
    kind: str = "zipf"

    def __post_init__(self) -> None:
        if self.support < 4:
            raise ValueError("support must be >= 4")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.kind not in ("zipf", "port"):
            raise ValueError(f"unknown feature kind {self.kind!r}")


#: Default per-feature models, ordered like FEATURES.  Supports are the
#: typical number of distinct values in a sampled 5-minute OD-flow bin.
DEFAULT_FEATURE_MODELS = (
    FeatureModel(support=96, alpha=0.9),                       # src_ip
    FeatureModel(support=72, alpha=0.6, kind="port"),          # src_port
    FeatureModel(support=96, alpha=1.0),                       # dst_ip
    FeatureModel(support=72, alpha=0.8, kind="port"),          # dst_port
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic traffic model.

    Attributes:
        mean_od_pps: Network-wide average OD-flow rate in packets/second
            *before* flow sampling.  The paper quotes ~2068 pps for the
            average Abilene OD flow on this scale.
        histogram_sampling: Packet-sampling factor applied when building
            feature histograms (None: use the topology's sampling rate,
            e.g. 100 for Abilene, 1000 for Geant).  Volume counters stay
            on the pre-sampling scale (as the paper reports them), but
            the histograms — and therefore entropy — see only sampled
            packets, exactly like histograms built from NetFlow records.
            This scale split is what makes the paper's injection
            protocol (unsampled attack packets superimposed on sampled
            background) so sensitive; see docs/ARCHITECTURE.md, "Paper
            experiments".
        feature_models: Per-feature distribution models.
        mean_packet_size: Average bytes per packet.
        packet_size_sigma: Lognormal sigma of per-bin mean packet size.
        rate_noise_rho / rate_noise_sigma: *Idiosyncratic* (per-OD)
            AR(1) noise of OD rates.  Kept small: backbone OD flows at
            5-minute bins are smooth, and this is the noise floor that
            sets volume-detection sensitivity.
        shared_load_rho / shared_load_sigma: Network-wide AR(1) load
            factor applied to every OD flow.  Shared variation is
            PCA-compressible, so it adds realism (and normal-subspace
            dimensions) without hurting sensitivity — this is what
            makes normal traffic low-dimensional, per the paper's
            premise.
        drift_sigma: AR(1) sigma of the *global* per-feature
            distribution drift (shared across OD flows; each OD applies
            a private gain to it).
        gravity_sigma: Spread of PoP masses in the gravity model.
        glitch_rate: Per-(OD, bin) probability of a benign single-bin
            distribution excursion (a transient that is not a scheduled
            anomaly).  These are the population behind the paper's
            ~10% false-alarm share: detections with no identifiable
            cause.  Set 0 to disable.
        glitch_magnitude: Range of the excursion's |delta alpha|.
        seed: Master seed; everything derives from it.
    """

    mean_od_pps: float = 2068.0
    histogram_sampling: int | None = None
    feature_models: tuple[FeatureModel, ...] = DEFAULT_FEATURE_MODELS
    mean_packet_size: float = 500.0
    packet_size_sigma: float = 0.02
    rate_noise_rho: float = 0.9
    rate_noise_sigma: float = 0.03
    shared_load_rho: float = 0.99
    shared_load_sigma: float = 0.08
    drift_sigma: float = 0.05
    gravity_sigma: float = 0.75
    glitch_rate: float = 5e-5
    glitch_magnitude: tuple[float, float] = (0.25, 0.6)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.feature_models) != N_FEATURES:
            raise ValueError(f"need {N_FEATURES} feature models")
        if self.mean_od_pps <= 0:
            raise ValueError("mean_od_pps must be positive")

    def scaled(self, factor: float) -> "GeneratorConfig":
        """Copy with the overall traffic level scaled by ``factor``."""
        return replace(self, mean_od_pps=self.mean_od_pps * factor)


def _rng(seed: int, od: int, tag: int) -> np.random.Generator:
    """Independent, reproducible stream for (seed, od, tag)."""
    return np.random.default_rng(np.random.SeedSequence([seed, od, tag]))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function on a ``uint64`` *array* (array
    arithmetic wraps silently; numpy warns on wrapping scalars)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _record_keys(seed: int, salt: int, ods, bins) -> np.ndarray:
    """``(len(ods), len(bins))`` keys: seed, salt, od, bin folded in turn."""
    mask = (1 << 64) - 1
    key = np.zeros(1, dtype=np.uint64)
    for word in (seed, salt):
        key = _mix64(key + np.uint64(int(word) & mask) + _GOLDEN)
    key = _mix64(key + np.asarray(ods).astype(np.uint64) + _GOLDEN)
    return _mix64(key[:, None] + np.asarray(bins).astype(np.uint64) + _GOLDEN)


def _record_counters(keys: np.ndarray, index: np.ndarray) -> np.ndarray:
    """splitmix64 state of record ``index`` of a row, before its slot."""
    return keys + np.asarray(index).astype(np.uint64) * np.uint64(_DRAWS) * _GOLDEN


def _slot_uniforms(counters: np.ndarray, slot: int) -> np.ndarray:
    """Draw ``slot`` of every record whose state :func:`_record_counters` gave."""
    return (_mix64(counters + _SLOT_STEPS[slot]) >> np.uint64(11)) * 2.0 ** -53


def record_uniforms(
    seed: int, salt: int, od: int, bins: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Counter-based uniforms of background records: ``(6, n)`` in [0, 1).

    ``out[s, i]`` is a pure function of ``(seed, salt, od, bins[i],
    index[i], s)``: the four key words are folded into a 64-bit key and
    draw ``6 * index + s`` of the splitmix64 sequence started there is
    kept to 53 bits.  No generator object exists, so whoever
    materialises record ``index[i]`` of ``(od, bins[i])`` — any shard,
    bin grouping or restart — reads the same six draws.
    """
    counters = _record_counters(_record_keys(seed, salt, [od], bins)[0], index)
    return np.stack([_slot_uniforms(counters, s) for s in range(_DRAWS)])


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` from the default (SIMD) sort:
    every run of equal keys it leaves is re-sorted by input position."""
    order = np.argsort(keys)
    tied = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if len(tied):
        member = np.union1d(tied, tied + 1)  # whole runs, in key order
        part = order[member]
        order[member] = part[np.lexsort((part, keys[part]))]
    return order


@dataclass
class ODStream:
    """Everything the generator computes for one OD flow.

    Attributes:
        od: OD-flow index.
        packets: ``(t,)`` packet counts per bin.
        bytes: ``(t,)`` byte counts per bin.
        entropy: ``(t, 4)`` per-feature sample entropies.
        histograms: Per-feature ``(t, n_f)`` count matrices (the
            background histograms injection superimposes onto).
    """

    od: int
    packets: np.ndarray
    bytes: np.ndarray
    entropy: np.ndarray
    histograms: tuple[np.ndarray, ...]


class TrafficGenerator:
    """Synthesise a network's OD-flow traffic cube.

    Usage::

        gen = TrafficGenerator(abilene(), TimeBins.for_weeks(1), seed=7)
        cube = gen.generate()
        hist = gen.od_stream(od).histograms    # exact background counts

    All outputs are deterministic functions of (topology, bins, config).
    """

    def __init__(
        self,
        topology: Topology,
        bins: TimeBins,
        config: GeneratorConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.topology = topology
        self.bins = bins
        config = config or GeneratorConfig()
        if seed is not None:
            config = replace(config, seed=seed)
        self.config = config
        master = np.random.default_rng(np.random.SeedSequence([config.seed, 1 << 20]))
        self.mean_rates = od_mean_rates(
            topology, config.mean_od_pps, master, sigma=config.gravity_sigma
        )
        self.basis = DiurnalBasis(bins.n_bins)
        sampling = config.histogram_sampling
        if sampling is None:
            sampling = max(topology.sampling_rate, 1)
        self.histogram_sampling = sampling
        self._stream_cache: OrderedDict[int, ODStream] = OrderedDict()
        self._cache_limit = 16
        self._pools: dict[int, AddressPool] = {}
        # Network-wide shared series (deterministic given the seed).
        t = bins.n_bins
        load_rng = _rng(config.seed, _GLOBAL_OD, _TAG_RATE)
        self.shared_load = ar1_series(
            t, config.shared_load_rho, config.shared_load_sigma, load_rng
        )
        drift_rng = _rng(config.seed, _GLOBAL_OD, _TAG_DRIFT)
        day = 288.0
        drifts = []
        for model in config.feature_models:
            phase = drift_rng.uniform(0, 2 * np.pi)
            period = drift_rng.uniform(2.5 * day, 5 * day)
            slow = model.alpha_amplitude * np.sin(
                2 * np.pi * np.arange(t) / period + phase
            )
            wander = ar1_series(t, 0.98, config.drift_sigma, drift_rng)
            drifts.append(slow + wander)
        self.global_drift = np.vstack(drifts)  # (4, t)

    # -- the model: every OD flow at once ---------------------------------

    def _feature_pmf_rows(
        self, model: FeatureModel, alphas: np.ndarray, supports: np.ndarray,
        n_max: int,
    ) -> np.ndarray:
        """Per-bin pmfs ``(t, n_max)`` with drifting alpha and support.

        ``n_max`` is the widest support of the OD's *whole* stream, also
        when only some of its bins are asked for, so a row's values do
        not depend on which other rows came with it.
        """
        ranks = np.arange(1, n_max + 1, dtype=np.float64)
        if model.kind == "port":
            base = port_pmf(n_max)
            # Drift modulates the tail steepness around the base shape.
            log_base = np.log(base)
            rows = np.exp(log_base[None, :] * (alphas[:, None] / model.alpha))
        else:
            rows = np.exp(-np.outer(alphas, np.log(ranks)))
        # Deactivate ranks beyond the per-bin support.
        mask = ranks[None, :] <= supports[:, None]
        rows = rows * mask
        rows /= rows.sum(axis=1, keepdims=True)
        return rows

    def _model(self, ods) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(packets, alphas, supports)``: OD flows ``ods`` before sampling.

        Everything random about a flow short of a realisation: ``(P, t)``
        packet counts and ``(4, P, t)`` per-feature Zipf concentration and
        active support.  Only the seeded per-OD streams are drawn OD by OD
        (weights; rate; per feature gain and drift; glitches); the rest is
        elementwise or per-row array passes, so a row is bit-identical
        whichever ODs come with it.  :meth:`od_stream` realises one row as
        Poisson histograms, :meth:`materialize_bin_group` rows as records.
        """
        cfg = self.config
        t = self.bins.n_bins
        ods = [int(od) for od in ods]
        profile = np.empty((len(ods), t))
        gains = np.empty((N_FEATURES, len(ods)))
        # AR(1) series 0 is the rate noise, 1 + k feature k's alpha jitter.
        starts = np.empty((1 + N_FEATURES, len(ods)))
        innovations = np.empty((1 + N_FEATURES, len(ods), t))
        glitches = []
        for i, od in enumerate(ods):
            rng = _rng(cfg.seed, od, _TAG_WEIGHTS)
            # Daily, weekly and constant mix; the vector-matrix product
            # per OD keeps its rounding (a (P, 3) @ (3, t) one does not).
            profile[i] = self.basis.mix(
                [rng.uniform(0.6, 1.4), rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5)]
            )
            rng = _rng(cfg.seed, od, _TAG_RATE)
            starts[0, i], innovations[0, i] = ar1_draws(
                t, cfg.rate_noise_rho, cfg.rate_noise_sigma, rng
            )
            rng = _rng(cfg.seed, od, _TAG_DRIFT)
            for k, model in enumerate(cfg.feature_models):
                gains[k, i] = rng.uniform(0.7, 1.3)
                starts[1 + k, i], innovations[1 + k, i] = ar1_draws(
                    t, 0.9, model.alpha_sigma, rng
                )
            # Benign transients: rare single-bin excursions of one
            # feature's concentration — detections with no scheduled
            # cause (the dataset's false-alarm population).
            if cfg.glitch_rate > 0:
                rng = _rng(cfg.seed, od, _TAG_GLITCH)
                lo, hi = cfg.glitch_magnitude
                for _ in range(int(rng.poisson(cfg.glitch_rate * t))):
                    glitches.append((i, int(rng.integers(t)), int(rng.integers(N_FEATURES)),
                                     float(rng.uniform(lo, hi) * rng.choice([-1, 1]))))
        noise = np.concatenate([
            ar1_recursion(starts[:1], innovations[:1], cfg.rate_noise_rho),
            ar1_recursion(starts[1:], innovations[1:], 0.9),
        ])
        profile = profile / profile.mean(axis=1, keepdims=True)
        shared = np.exp(self.shared_load - cfg.shared_load_sigma ** 2 / 2)
        expected = self.mean_rates[ods][:, None] * profile * shared
        realised = expected * np.exp(noise[0] - cfg.rate_noise_sigma ** 2 / 2)
        packets = np.maximum(np.round(realised * self.bins.width), 1).astype(np.int64)
        # Histograms are built from *sampled* packets (1 in
        # histogram_sampling), like real NetFlow-derived histograms.
        # Active support follows the *expected* rate, so entropy
        # co-varies with the diurnal cycle without inheriting per-OD
        # volume noise.
        sampled_expected = np.maximum(
            expected * self.bins.width / self.histogram_sampling, 1.0
        )
        mean_sampled = sampled_expected.mean(axis=1, keepdims=True)
        base = np.array([m.alpha for m in cfg.feature_models])[:, None, None]
        alphas = np.clip(
            base + gains[:, :, None] * self.global_drift[:, None] + noise[1:], 0.05, 3.0
        )
        for i, b, k, delta in glitches:
            alphas[k, i, b] = np.clip(alphas[k, i, b] + delta, 0.05, 3.0)
        supports = np.stack([
            active_support(m.support, sampled_expected, mean_sampled,
                           exponent=m.volume_exponent)
            for m in cfg.feature_models
        ])
        return packets, alphas, supports

    def od_stream(self, od: int) -> ODStream:
        """Full synthetic stream for one OD flow (cached, deterministic)."""
        cached = self._stream_cache.get(od)
        if cached is not None:
            self._stream_cache.move_to_end(od)
            return cached
        cfg = self.config
        t = self.bins.n_bins
        packets, alphas, supports = (a[..., 0, :] for a in self._model([od]))
        count_rng = _rng(cfg.seed, od, _TAG_COUNTS)
        histograms = []
        entropy = np.empty((t, N_FEATURES))
        for k, model in enumerate(cfg.feature_models):
            pmf_rows = self._feature_pmf_rows(
                model, alphas[k], supports[k], int(supports[k].max())
            )
            lam = (packets / self.histogram_sampling)[:, None] * pmf_rows
            counts = count_rng.poisson(lam).astype(np.int64)
            histograms.append(counts)
            entropy[:, k] = entropy_rows(counts)

        bytes_rng = _rng(cfg.seed, od, _TAG_BYTES)
        size_noise = ar1_series(t, 0.9, cfg.packet_size_sigma, bytes_rng)
        sizes = cfg.mean_packet_size * np.exp(size_noise - cfg.packet_size_sigma ** 2 / 2)
        byte_counts = np.round(packets * sizes).astype(np.int64)

        stream = ODStream(
            od=od,
            packets=packets,
            bytes=byte_counts,
            entropy=entropy,
            histograms=tuple(histograms),
        )
        self._stream_cache[od] = stream
        if len(self._stream_cache) > self._cache_limit:
            self._stream_cache.popitem(last=False)
        return stream

    # -- cube construction -------------------------------------------------

    def generate(self) -> TrafficCube:
        """Generate the full traffic cube for all OD flows."""
        return self._generate()

    def _generate(
        self, visit: Callable[[TrafficCube, int], None] | None = None
    ) -> TrafficCube:
        """The cube, OD flow by OD flow: the one loop that realises streams.

        ``visit(cube, od)``, when given, runs once OD ``od``'s column is
        written and while its stream is still cached, so the labelled
        build injects the OD's scheduled events into its histograms
        without realising the stream a second time.
        """
        p = self.topology.n_od_flows
        cube = TrafficCube.zeros(self.bins, p, network=self.topology.name)
        for od in range(p):
            stream = self.od_stream(od)
            cube.packets[:, od] = stream.packets
            cube.bytes[:, od] = stream.bytes
            cube.entropy[:, od, :] = stream.entropy
            if visit is not None:
                visit(cube, od)
            # Streams are regenerable; do not let the cache balloon while
            # sweeping every OD.
            self.evict_stream(od)
        return cube

    def evict_stream(self, od: int) -> None:
        """Drop one OD's cached stream (regenerable; bounds memory).

        Callers sweeping every OD flow (cube construction, dataset
        labelling) evict as they go so the LRU cache never balloons
        past the flows still in flight.
        """
        self._stream_cache.pop(od, None)

    # -- materialisation to real feature values -----------------------------

    def _pool(self, pop_index: int) -> AddressPool:
        pool = self._pools.get(pop_index)
        if pool is None:
            pop = self.topology.pops[pop_index]
            # Pool size comfortably above the largest per-bin support.
            n_hosts = 4 * max(m.support for m in self.config.feature_models)
            pool = AddressPool(
                pop.prefix, n_hosts, seed=self.config.seed * 1000 + pop_index
            )
            self._pools[pop_index] = pool
        return pool

    def feature_values(self, od: int, feature: int, n: int) -> np.ndarray:
        """Concrete feature values for ranks ``0..n-1`` of one feature.

        Address ranks map to the origin (srcIP) or destination (dstIP)
        PoP's host pool; port ranks map to well-known ports first, then
        ephemeral ports.  Deterministic, so materialised records agree
        across calls.
        """
        origin, destination = self.topology.od_pair(od)
        if feature == SRC_IP:
            pool = self._pool(origin.index)
            return np.resize(pool.addresses, n)
        if feature == DST_IP:
            pool = self._pool(destination.index)
            return np.resize(pool.addresses, n)
        if feature in (SRC_PORT, DST_PORT):
            known = well_known_ports()
            if n <= len(known):
                return known[:n]
            extra = EPHEMERAL_PORT_START + np.arange(n - len(known), dtype=np.int64)
            return np.concatenate([known, extra])
        raise ValueError(f"feature index out of range: {feature}")

    # -- record materialisation ---------------------------------------------

    def _ip_table(self) -> np.ndarray:
        """``(n_pops, n_hosts)`` address matrix, one pool row per PoP.

        Every pool has the same size (4x the largest feature support),
        so rank ``r`` of PoP ``j`` is ``table[j, r % n_hosts]`` — the
        vectorised equivalent of ``np.resize(pool.addresses, n)[r]``.
        """
        table = getattr(self, "_ip_table_cache", None)
        if table is None:
            table = np.vstack(
                [self._pool(j).addresses for j in range(self.topology.n_pops)]
            )
            self._ip_table_cache = table
        return table

    def _port_table(self, n: int) -> np.ndarray:
        """:meth:`feature_values` of port ranks ``-1..n-1`` at ``[rank + 1]``:
        rank -1 (a zero-total feature row) reads a literal 0."""
        return np.concatenate([[0], self.feature_values(0, SRC_PORT, n)])

    def materialize_bin_group(
        self,
        ods,
        group: "list[int]",
        max_records: int = 4000,
        salt: int = 0,
    ) -> "list[FlowRecordBatch]":
        """Materialise several bins of many OD flows as sampled flow records.

        The one record-materialisation path.  An (OD flow, bin) emits
        ``n = min(max_records, max(1, sampled packets // 3))`` records;
        record ``i`` consumes the six :func:`record_uniforms` draws of
        ``(seed, salt, od, bin, i)`` by inverse transform: a Pareto(1.5)
        flow weight (weights scaled so the bin's packets match the
        model's sampled total), one rank per feature through the bin's
        model cdf (features independent across flows — sufficient for
        exercising the record-level pipeline; the cube itself comes
        from :meth:`od_stream`'s histograms), and a timestamp inside
        the bin.  A record therefore does not depend on which other OD
        flows or bins are materialised with it: the union over any OD
        partition, any bin grouping and any restart point yield the
        same per-bin batches.

        The group is array passes over every (OD flow, bin) cell at once:
        one model call, draws one slot at a time, cdf tables per feature
        and stream-wide support with a small rank search per OD, one
        stable time sort, lookup tables from rank to value.  Each pass
        is elementwise or per row, so the records are bit for bit those
        of a loop over ODs.

        Args:
            ods: OD flows to include (order only breaks timestamp ties).
            group: Strictly increasing bin indices to materialise.
            max_records: Cap on records per (OD flow, bin).
            salt: Extra seed mixed into every record draw.

        Returns:
            One time-sorted batch per bin, in ``group`` order (column
            views into group-wide arrays).
        """
        g = np.asarray(group, dtype=np.int64).reshape(-1)
        if len(g) and (g[0] < 0 or g[-1] >= self.bins.n_bins or np.any(np.diff(g) <= 0)):
            raise ValueError("group must be strictly increasing bin indices")
        if max_records < 1:
            raise ValueError(f"max_records must be positive, got {max_records}")
        if not len(g):
            return []
        cfg = self.config
        width = self.bins.width
        ods = np.array([int(od) for od in ods], dtype=np.int64)
        packets, alphas, supports = self._model(ods)
        # Rows are (OD, bin) cells, OD-major: record order is each OD's
        # records in ``ods`` order, bin by bin — what breaks time ties.
        totals = np.maximum(packets[:, g] // self.histogram_sampling, 1).ravel()
        n = np.minimum(max_records, np.maximum(1, totals // 3))
        first = np.cumsum(n) - n
        od_edges = np.append(first[:: len(g)], n.sum())
        row = np.repeat(np.arange(len(n)), n)
        col = row % len(g)  # the record's slot in ``group``
        counters = _record_counters(
            _record_keys(cfg.seed, salt, ods, g).ravel()[row],
            np.arange(len(row)) - first[row],
        )
        timestamp = (self.bins.start + g * width)[col]
        timestamp += _slot_uniforms(counters, _DRAWS - 1) * width
        # Heavy-tailed packets-per-flow, scaled to match the bin total.
        weights = (1.0 - _slot_uniforms(counters, 0)) ** (-1 / 1.5)
        scale = totals / np.add.reduceat(weights, first)
        flow_packets = np.maximum(1, np.round(weights * scale[row]))
        del weights
        ranks = np.empty((N_FEATURES, len(row)), dtype=np.int32)
        for k, model in enumerate(cfg.feature_models):
            draws = (_slot_uniforms(counters, 1 + k) * 2.0 ** _RANK_BITS).astype(np.int64)
            draws += col << _RANK_BITS
            dead = np.zeros((len(ods), len(g)), dtype=bool)
            # One cdf table per distinct stream-wide support (``port_pmf``
            # and row sums depend on the row length, so rows are never
            # padded), then one small search per OD.
            n_max = supports[k].max(axis=1)
            for n_f in np.unique(n_max):
                members = np.flatnonzero(n_max == n_f)
                cells = np.ix_(members, g)
                cdf = self._feature_pmf_rows(
                    model, alphas[k][cells].ravel(), supports[k][cells].ravel(), int(n_f)
                ).cumsum(axis=1)
                dead_rows = ~(cdf[:, -1] > 0)  # zero-total feature: literal zeros
                cdf[dead_rows] = 1.0
                # Row j of an OD's flattened table lives in [j, j + 1) << bits.
                table = (cdf / cdf[:, -1:] * 2.0 ** _RANK_BITS).astype(np.int64)
                table = table.reshape(len(members), len(g), n_f)
                table += (np.arange(len(g)) << _RANK_BITS)[:, None]
                for od_table, i in zip(table.reshape(len(members), -1), members):
                    lo, hi = od_edges[i], od_edges[i + 1]
                    found = od_table.searchsorted(draws[lo:hi], side="right")
                    ranks[k, lo:hi] = found - col[lo:hi] * n_f
                dead[members] = dead_rows.reshape(len(members), len(g))
            if dead.any():
                ranks[k][dead.ravel()[row]] = -1
        del counters, draws, row, col
        # Bins are disjoint, increasing time intervals: one stable sort
        # of absolute timestamps orders the group bin by bin.  Sorting
        # the compact parts first lets every value column be built
        # straight in its final order.
        order = _stable_argsort(timestamp)
        timestamp = timestamp[order]
        flow_packets = flow_packets[order].astype(np.int64)
        ranks = np.take(ranks, order, axis=1)
        origin, destination = np.divmod(ods, self.topology.n_pops)
        ingress = np.repeat(origin, np.diff(od_edges))[order]
        egress = np.repeat(destination, np.diff(od_edges))[order]
        del order
        ip_table = self._ip_table()
        n_hosts = ip_table.shape[1]
        src_ip = ip_table[ingress, ranks[0] % n_hosts]
        dst_ip = ip_table[egress, ranks[2] % n_hosts]
        src_ip *= ranks[0] >= 0
        dst_ip *= ranks[2] >= 0
        ports = self._port_table(int(ranks[[1, 3]].max(initial=-1)) + 1)
        columns = dict(
            src_ip=src_ip,
            src_port=ports[ranks[1] + 1],
            dst_ip=dst_ip,
            dst_port=ports[ranks[3] + 1],
            protocol=np.full(len(flow_packets), 6, dtype=np.int64),
            packets=flow_packets,
            bytes=np.round(flow_packets * cfg.mean_packet_size).astype(np.int64),
            timestamp=timestamp,
            ingress_pop=ingress,
        )
        edges = np.concatenate([[0], np.cumsum(n.reshape(-1, len(g)).sum(axis=0))])
        return [
            FlowRecordBatch(**{name: col[lo:hi] for name, col in columns.items()})
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def materialize_bin(
        self, od: int, b: int, max_records: int = 4000, salt: int = 0
    ) -> FlowRecordBatch:
        """One (OD flow, bin) as time-sorted flow records.

        The one-OD, one-bin case of :meth:`materialize_bin_group`: by
        definition the ``(od, b)`` rows of
        :func:`repro.stream.chunks.synthetic_record_stream` run with
        ``seed=salt`` on this generator.
        """
        return self.materialize_bin_group(
            [od], [b], max_records=max_records, salt=salt
        )[0]
