"""Property-based tests on the scenario record materialiser.

The cluster-parity contract rests on two properties of
:mod:`repro.scenarios.records` that these tests pin with hypothesis:

* **partition invariance** — every record draw is seeded per
  (OD flow, bin), so the union of any OD partition's streams, at any
  chunk size, is bit-identical to the unsharded stream;
* **attribution safety** — an anomaly's novel destination addresses
  stay inside the target OD flow's destination prefix, so
  longest-prefix egress resolution attributes every anomaly record to
  the OD flow the schedule targeted.

And one identity: ``baseline-diurnal`` is the plain background stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomalies.builders import BUILDERS
from repro.flows.binning import TimeBins
from repro.flows.records import COLUMN_SPEC, FlowRecordBatch
from repro.net.topology import abilene
from repro.pipeline.sources import ScenarioSource, shard_ods
from repro.scenarios import ScenarioEvent, anomaly_record_batch, scenario_record_batches
from repro.stream.chunks import iter_record_chunks, synthetic_record_stream
from repro.traffic.generator import TrafficGenerator

N_BINS = 4
MAX_RECORDS = 6
LABELS = tuple(sorted(BUILDERS))


def _generator(seed):
    return TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=seed)


def _events(generator, rng, n_events):
    """A small deterministic schedule drawn from ``rng``."""
    topo = generator.topology
    events = []
    for _ in range(n_events):
        label = LABELS[int(rng.integers(len(LABELS)))]
        events.append(
            ScenarioEvent(
                bin=int(rng.integers(N_BINS)),
                od=int(rng.integers(topo.n_od_flows)),
                label=label,
                trace=BUILDERS[label](rng, pps=float(rng.uniform(200, 2000))),
            )
        )
    events.sort(key=lambda e: (e.bin, e.od))
    return events


def _flatten(batches):
    """All records of a stream as one canonically ordered column dict.

    Sorted by every column at once so the ordering is unique even if
    two records tie on timestamp.
    """
    batches = list(batches)
    columns = {}
    for name in ("timestamp", "src_ip", "dst_ip", "src_port", "dst_port",
                 "packets", "bytes", "ingress_pop"):
        columns[name] = np.concatenate([getattr(b, name) for b in batches])
    order = np.lexsort(tuple(columns.values()))
    return {name: col[order] for name, col in columns.items()}


def _assert_same_records(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestPartitionInvariance:
    @given(
        seed=st.integers(0, 2**20),
        n_shards=st.integers(2, 5),
        n_events=st.integers(1, 4),
    )
    @settings(max_examples=10, deadline=None)
    def test_union_of_shards_is_the_unsharded_stream(
        self, seed, n_shards, n_events
    ):
        generator = _generator(seed)
        rng = np.random.default_rng(seed + 1)
        events = _events(generator, rng, n_events)
        kwargs = dict(max_records_per_od=MAX_RECORDS, seed=seed)

        full = _flatten(
            scenario_record_batches(generator, events, range(N_BINS), **kwargs)
        )
        parts = []
        # Reversed shard order: the union must not care who goes first.
        for shard in reversed(range(n_shards)):
            ods = shard_ods(generator.topology.n_od_flows, n_shards, shard)
            parts.extend(
                scenario_record_batches(
                    generator, events, range(N_BINS), ods=ods, **kwargs
                )
            )
        _assert_same_records(full, _flatten(parts))

    @given(
        seed=st.integers(0, 2**20),
        chunk_records=st.integers(1, 5000),
        n_events=st.integers(0, 3),
    )
    @settings(max_examples=10, deadline=None)
    def test_rechunking_preserves_every_record(
        self, seed, chunk_records, n_events
    ):
        generator = _generator(seed)
        rng = np.random.default_rng(seed + 2)
        events = _events(generator, rng, n_events)
        kwargs = dict(max_records_per_od=MAX_RECORDS, seed=seed)

        natural = _flatten(
            scenario_record_batches(generator, events, range(N_BINS), **kwargs)
        )
        rechunked = _flatten(
            iter_record_chunks(
                scenario_record_batches(generator, events, range(N_BINS), **kwargs),
                chunk_records,
            )
        )
        _assert_same_records(natural, rechunked)

    @given(
        seed=st.integers(0, 2**20),
        od=st.integers(0, 120),
        b=st.integers(0, N_BINS - 1),
        label=st.sampled_from(LABELS),
    )
    @settings(max_examples=20, deadline=None)
    def test_materialisation_is_deterministic_per_od_bin(
        self, seed, od, b, label
    ):
        generator = _generator(seed)
        trace = BUILDERS[label](np.random.default_rng(seed), pps=500.0)
        first = anomaly_record_batch(generator, od, b, trace, salt=seed)
        again = anomaly_record_batch(generator, od, b, trace, salt=seed)
        _assert_same_records(_flatten([first]), _flatten([again]))


class TestAttributionSafety:
    @given(
        seed=st.integers(0, 2**20),
        od=st.integers(0, 120),
        label=st.sampled_from(LABELS),
    )
    @settings(max_examples=25, deadline=None)
    def test_novel_destinations_stay_inside_destination_prefix(
        self, seed, od, label
    ):
        """Every anomaly record LPM-resolves to the scheduled OD flow."""
        generator = _generator(seed)
        trace = BUILDERS[label](np.random.default_rng(seed), pps=800.0)
        batch = anomaly_record_batch(generator, od, 0, trace, salt=seed)
        origin, destination = generator.topology.od_pair(od)
        placed = batch.dst_ip[batch.dst_ip != 0]  # 0 = feature unused
        assert destination.prefix.contains_array(placed).all()
        assert (batch.ingress_pop == origin.index).all()

    @given(seed=st.integers(0, 2**20), od=st.integers(0, 120))
    @settings(max_examples=10, deadline=None)
    def test_fuzzed_flow_mix_keeps_attribution_and_volume(self, seed, od):
        """The quality fuzzer's CDF flow-size mix must not leak volume
        or move records out of the destination prefix."""
        generator = _generator(seed)
        trace = BUILDERS["ddos"](np.random.default_rng(seed), pps=1500.0)
        trace.meta["flow_cdf"] = "web-search"
        batch = anomaly_record_batch(generator, od, 1, trace, salt=seed)
        _, destination = generator.topology.od_pair(od)
        placed = batch.dst_ip[batch.dst_ip != 0]
        assert destination.prefix.contains_array(placed).all()
        assert int(batch.packets.sum()) >= trace.packets  # min-1 rounding only adds


class TestBaselineIsTheBackgroundStream:
    """``baseline-diurnal`` schedules no events, so its source is the
    plain background stream, whole and per shard — the identity that
    makes :class:`ScenarioSource` the one synthesiser."""

    @staticmethod
    def _background(topology, seed, ods=None):
        generator = TrafficGenerator(topology, TimeBins(n_bins=N_BINS), seed=seed)
        return FlowRecordBatch.concat(list(synthetic_record_stream(
            generator, range(N_BINS), ods=ods,
            max_records_per_od=MAX_RECORDS, seed=seed,
        )))

    @staticmethod
    def _assert_columns_equal(a, b):
        assert len(a) == len(b) > 0
        for name, _ in COLUMN_SPEC:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                          err_msg=name)

    def test_has_no_events(self):
        assert ScenarioSource("baseline-diurnal").events == []
        assert ScenarioSource("baseline-diurnal", network="geant", n_bins=300,
                              seed=11).events == []

    @pytest.mark.parametrize("network, seed", [("abilene", 0), ("geant", 7)])
    def test_stream_and_shards_equal_the_background(self, network, seed):
        source = ScenarioSource("baseline-diurnal", network=network,
                                n_bins=N_BINS, seed=seed,
                                max_records_per_od=MAX_RECORDS)
        topology = source.topology
        self._assert_columns_equal(
            FlowRecordBatch.concat(list(source.batches())),
            self._background(topology, seed),
        )
        for shard in range(2):
            chunks = [chunk for chunk, ods in
                      source.shard_batches(shard, 2, router=None)]
            self._assert_columns_equal(
                FlowRecordBatch.concat(chunks),
                self._background(topology, seed,
                                 ods=shard_ods(topology.n_od_flows, 2, shard)),
            )
