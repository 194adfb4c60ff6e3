"""The precomputed-detection fast path.

Exact detection replayed from a version-2 trace's derived columns
(:meth:`StreamingDetectionEngine.process_precomputed`) must render
detections byte-for-byte equal to the record-level engine — pinned
against the same frozen parity fixture the kernel path is held to
(``tests/data/seed_stream_detections.json``, built through
``tests/parity_fixture.py``), for stored columns (v2), derive-on-read
(v1), and an in-place ``upgrade_trace``.
"""

import numpy as np
import pytest

from parity_fixture import FIXTURE_PATH, render, seed_workload, stream_config
from repro import TimeBins, TrafficGenerator, abilene
from repro.flows.features import FEATURES
from repro.io.trace import (
    TraceError,
    TraceReader,
    TraceWriter,
    derive_columns,
    trace_info,
    upgrade_trace,
    verify_trace,
    write_trace,
)
from repro.net.routing import Router
from repro.stream import StreamConfig, StreamingDetectionEngine
from repro.stream.replay import iter_precomputed_summaries


def _write_batches(path, wl, batches, derive):
    with TraceWriter(
        path, n_bins=wl["n_bins"], network="Abilene", derive=derive
    ) as writer:
        for b, batch in enumerate(batches):
            writer.append(b, batch)
    return writer.info


def _engine(topology, wl):
    return StreamingDetectionEngine(topology, stream_config(wl))


class TestPrecomputedReplayByteEquality:
    """Derived-column replay must render the frozen seed detections."""

    @pytest.fixture(scope="class")
    def workload(self):
        return seed_workload()

    def test_stored_columns_reproduce_seed_fixture(self, workload, tmp_path):
        wl, topology, batches = workload
        fixture_bytes = FIXTURE_PATH.read_bytes()
        path = tmp_path / "derived.trace"
        _write_batches(path, wl, batches, derive=True)
        report = _engine(topology, wl).process_precomputed(path)
        assert render(wl, report) == fixture_bytes
        assert report.meta["replay"] == "precomputed"

    def test_derive_on_read_reproduces_seed_fixture(self, workload, tmp_path):
        wl, topology, batches = workload
        fixture_bytes = FIXTURE_PATH.read_bytes()
        path = tmp_path / "plain.trace"
        info = _write_batches(path, wl, batches, derive=False)
        assert info.derived is None
        report = _engine(topology, wl).process_precomputed(path)
        assert render(wl, report) == fixture_bytes
        assert report.meta["replay"] == "derive-on-read"

    def test_precomputed_summaries_match_stage_summaries(self, workload, tmp_path):
        wl, topology, batches = workload
        path = tmp_path / "derived.trace"
        _write_batches(path, wl, batches, derive=True)
        stage_engine = _engine(topology, wl)
        summaries = []
        for batch in batches:
            summaries.extend(stage_engine.stage.ingest(batch))
        summaries.extend(stage_engine.stage.flush())
        with TraceReader(path) as reader:
            replayed = list(iter_precomputed_summaries(reader, topology))
        assert len(replayed) == len(summaries)
        for fast, slow in zip(replayed, summaries):
            assert fast.bin == slow.bin
            assert fast.n_records == slow.n_records
            assert fast.entropy.tobytes() == slow.entropy.tobytes()
            assert fast.packets.tobytes() == slow.packets.tobytes()
            assert fast.bytes.tobytes() == slow.bytes.tobytes()

    def test_sketch_mode_is_rejected(self, tmp_path):
        path = tmp_path / "any.trace"
        write_trace(
            path,
            TrafficGenerator(abilene(), TimeBins(n_bins=2), seed=0),
            max_records_per_od=5,
        )
        engine = StreamingDetectionEngine(abilene(), StreamConfig(warmup_bins=8))
        with pytest.raises(ValueError, match="exact_histograms"):
            engine.process_precomputed(path)


class TestTraceV2Format:
    """The derived-column trace format: round-trip, upgrade, recovery."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("v2")
        generator = TrafficGenerator(abilene(), TimeBins(n_bins=4), seed=5)
        v1 = tmp / "v1.trace"
        write_trace(v1, generator, max_records_per_od=40, seed=0)
        v2 = tmp / "v2.trace"
        write_trace(v2, generator, max_records_per_od=40, seed=0, derive=True)
        return v1, v2

    def test_versions_and_header(self, traces):
        v1, v2 = traces
        i1, i2 = trace_info(v1), trace_info(v2)
        assert (i1.version, i2.version) == (1, 2)
        assert i1.derived is None
        assert [c["name"] for c in i2.derived["columns"]] == ["od"] + [
            f"runid_{name}" for name in FEATURES
        ]
        assert i2.derived["anonymization_bits"] == abilene().anonymization_bits
        # Base columns are byte-identical regardless of derivation.
        assert i1.column_crcs == i2.column_crcs

    def test_derived_columns_match_on_the_fly_derivation(self, traces):
        _, v2 = traces
        topology = abilene()
        router = Router(topology)
        with TraceReader(v2) as reader:
            assert reader.has_derived
            for b in range(reader.n_bins):
                stored_ods, stored_runids = reader.read_derived_bin(b)
                ods, runids = derive_columns(
                    reader.read_bin(b), router, topology.anonymization_bits
                )
                np.testing.assert_array_equal(stored_ods, ods)
                for got, expected in zip(stored_runids, runids):
                    np.testing.assert_array_equal(got, expected)

    def test_upgrade_matches_direct_derived_write(self, traces, tmp_path):
        v1, v2 = traces
        upgraded = tmp_path / "upgraded.trace"
        info = upgrade_trace(v1, output=upgraded)
        assert info.version == 2
        assert trace_info(upgraded).column_crcs == trace_info(v2).column_crcs
        assert trace_info(upgraded).derived["crcs"] == (
            trace_info(v2).derived["crcs"]
        )

    def test_upgrade_in_place_is_idempotent(self, traces, tmp_path):
        v1, _ = traces
        path = tmp_path / "inplace.trace"
        path.write_bytes(v1.read_bytes())
        first = upgrade_trace(path)
        again = upgrade_trace(path)
        assert first.version == again.version == 2
        assert trace_info(path).n_records == trace_info(v1).n_records

    def test_verify_covers_derived_columns(self, traces):
        _, v2 = traces
        results = verify_trace(v2)
        assert set(results) >= {"od", "runid_src_port", "runid_dst_ip"}
        assert all(r["ok"] for r in results.values())

    def test_truncation_into_derived_slabs_recovers_base(self, tmp_path):
        v2 = tmp_path / "full.trace"
        write_trace(
            v2,
            TrafficGenerator(abilene(), TimeBins(n_bins=12), seed=5),
            max_records_per_od=40,
            seed=0,
            derive=True,
        )
        full = trace_info(v2)
        clipped = tmp_path / "clipped.trace"
        # Cut into the derived slabs: all base columns survive intact.
        data = v2.read_bytes()
        clipped.write_bytes(data[: len(data) - 16])
        with pytest.raises(TraceError):
            trace_info(clipped)
        recovered = trace_info(clipped, allow_partial=True)
        assert recovered.truncated
        assert recovered.derived is None
        with TraceReader(clipped, allow_partial=True) as reader:
            assert not reader.has_derived
            assert reader.n_bins >= 1
        # The fast path still works — it derives on the fly.
        engine = StreamingDetectionEngine(
            abilene(),
            StreamConfig(warmup_bins=8, n_components=2, refit_every=0,
                         exact_histograms=True),
        )
        with TraceReader(clipped, allow_partial=True) as reader:
            report = engine.process_precomputed(reader)
        assert report.n_records > 0
        assert full.n_records >= report.n_records
