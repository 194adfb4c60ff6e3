"""The precomputed-detection fast path.

Exact detection replayed from a trace's derived columns
(:meth:`StreamingDetectionEngine.process_precomputed`) must render
detections byte-for-byte equal to the record-level engine — pinned
against the same frozen parity fixture the kernel path is held to
(``tests/data/seed_stream_detections.json``, built through
``tests/parity_fixture.py``), for a direct write and for a version-1
file brought back by ``upgrade_trace``.  Version-1 files (written
here by stripping the derived slabs, the layout older writers
produced) are refused by every detection source until upgraded.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest

from parity_fixture import FIXTURE_PATH, render, seed_workload, stream_config
from repro import ScenarioSource, abilene
from repro.flows.features import FEATURES
from repro.cli import main
from repro.io.trace import (
    MAGIC,
    TraceError,
    TraceReader,
    TraceWriter,
    derive_columns,
    trace_info,
    upgrade_trace,
    verify_trace,
)
from repro.net.routing import Router
from repro.pipeline import TraceSource
from repro.stream import StreamConfig, StreamingDetectionEngine
from repro.stream.replay import iter_precomputed_summaries


def _write_batches(path, wl, batches):
    with TraceWriter(path, n_bins=wl["n_bins"], network="Abilene") as writer:
        for b, batch in enumerate(batches):
            writer.append(b, batch)
    return writer.info


def _scenario(**kwargs):
    return ScenarioSource("baseline-diurnal", **kwargs)


def _strip_to_v1(src, dst):
    """Rewrite trace ``src`` as a version-1 file at ``dst``: the same
    header minus the ``derived`` table, and the nine base slabs only."""
    data = src.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len])
    n_derived = len(header.pop("derived")["columns"])
    header["version"] = 1
    payload = json.dumps(header, sort_keys=True).encode()
    payload += b" " * (-len(payload) % 8)
    body = data[16 + header_len:]
    body = body[: len(body) - n_derived * 8 * header["n_records"]]
    dst.write_bytes(MAGIC + struct.pack("<Q", len(payload)) + payload + body)
    return dst


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
        info = _write_batches(path, wl, batches)
        assert info.version == 2 and info.derived is not None
        report = _engine(topology, wl).process_precomputed(path)
        assert render(wl, report) == fixture_bytes

    def test_upgraded_v1_reproduces_seed_fixture(self, workload, tmp_path):
        wl, topology, batches = workload
        direct = tmp_path / "derived.trace"
        _write_batches(direct, wl, batches)
        v1 = _strip_to_v1(direct, tmp_path / "plain.trace")
        with pytest.raises(TraceError, match="repro trace upgrade"):
            _engine(topology, wl).process_precomputed(v1)
        upgrade_trace(v1)
        assert v1.read_bytes() == direct.read_bytes()
        report = _engine(topology, wl).process_precomputed(v1)
        assert render(wl, report) == FIXTURE_PATH.read_bytes()

    def test_precomputed_summaries_match_stage_summaries(self, workload, tmp_path):
        wl, topology, batches = workload
        path = tmp_path / "derived.trace"
        _write_batches(path, wl, batches)
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
        _scenario(n_bins=2, max_records_per_od=5).write_trace(path)
        engine = StreamingDetectionEngine(abilene(), StreamConfig(warmup_bins=8))
        with pytest.raises(ValueError, match="exact_histograms"):
            engine.process_precomputed(path)

    def test_anonymization_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "any.trace"
        _scenario(n_bins=2, max_records_per_od=5).write_trace(path)
        unmasked = dataclasses.replace(abilene(), anonymization_bits=0)
        with TraceReader(path) as reader:
            with pytest.raises(ValueError, match="11-bit anonymization"):
                list(iter_precomputed_summaries(reader, unmasked))


class TestTraceV2Format:
    """The derived-column trace format: round-trip, upgrade, recovery."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("v2")
        v2 = tmp / "v2.trace"
        _scenario(n_bins=4, seed=5, max_records_per_od=40).write_trace(v2)
        return _strip_to_v1(v2, tmp / "v1.trace"), v2

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
        assert upgraded.read_bytes() == v2.read_bytes()

    def test_v1_trace_source_names_the_upgrade(self, traces):
        v1, v2 = traces
        with pytest.raises(TraceError, match=f"repro trace upgrade {v1}"):
            TraceSource(v1)
        assert TraceSource(v2).info.version == 2

    def test_v1_trace_cli_run_names_the_upgrade(self, traces, capsys):
        v1, _ = traces
        code = main(["run", "baseline-diurnal", "--trace", str(v1)])
        assert code == 2
        assert f"run `repro trace upgrade {v1}` first" in capsys.readouterr().err

    def test_v1_replay_takes_the_record_path(self, tmp_path, capsys):
        v2 = tmp_path / "v2.trace"
        main(["trace", "write", "baseline-diurnal", "--bins", "10",
              "--max-records", "10", "--seed", "3", "--output", str(v2)])
        v1 = _strip_to_v1(v2, tmp_path / "v1.trace")
        args = ["--warmup-bins", "8", "--exact", "--refit-every", "0",
                "--components", "4"]
        detections = {}
        for path, path_kind in ((v1, "exact histograms"), (v2, "precomputed columns")):
            assert main(["trace", "replay", str(path), *args]) == 0
            out = capsys.readouterr().out
            assert path_kind in out
            detections[path_kind] = [
                line for line in out.splitlines() if line.startswith("detections:")
            ]
        assert detections["exact histograms"] == detections["precomputed columns"]

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
        _scenario(n_bins=12, seed=5, max_records_per_od=40).write_trace(v2)
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
        # The fast path refuses the tail; its records still replay.
        config = StreamConfig(warmup_bins=8, n_components=2, refit_every=0,
                              exact_histograms=True)
        with TraceReader(clipped, allow_partial=True) as reader:
            with pytest.raises(TraceError, match="no derived detection columns"):
                StreamingDetectionEngine(abilene(), config).process_precomputed(
                    reader
                )
            report = StreamingDetectionEngine(abilene(), config).process(
                reader.iter_chunks()
            )
        assert report.n_records == full.n_records
