"""The precomputed-detection fast path.

Exact detection replayed from a trace's derived columns
(:meth:`StreamingDetectionEngine.process_precomputed`) must render
detections byte-for-byte equal to the record-level engine — pinned
against the same frozen parity fixture the kernel path is held to
(``tests/data/seed_stream_detections.json``, built through
``tests/parity_fixture.py``).  Version 2 is the only trace format:
any other header, or one without its checksums, is refused when the
file is opened, and a tail recovered from a truncated file (which lost
its derived slabs) replays its records instead.
"""

import dataclasses
import struct

import numpy as np
import pytest

from parity_fixture import FIXTURE_PATH, render, seed_workload, stream_config
from repro import ScenarioSource, abilene
from repro.flows.features import FEATURES
from repro.cli import main
from repro.io.trace import (
    TraceError,
    TraceReader,
    TraceWriter,
    derive_columns,
    trace_info,
    verify_trace,
)
from repro.net.routing import Router
from repro.stream import StreamConfig, StreamingDetectionEngine
from repro.stream.replay import check_derived, iter_precomputed_summaries


def _write_batches(path, wl, batches):
    with TraceWriter(path, n_bins=wl["n_bins"], network="Abilene") as writer:
        for b, batch in enumerate(batches):
            writer.append(b, batch)
    return writer.info


def _scenario(**kwargs):
    return ScenarioSource("baseline-diurnal", **kwargs)


def _patch_header(path, old, new):
    """Replace ``old`` by the same-length ``new`` in the trace's header
    JSON, in place: the file keeps its byte length and layout."""
    assert len(old) == len(new)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    head, body = data[:16 + header_len], data[16 + header_len:]
    assert head.count(old) == 1
    path.write_bytes(head.replace(old, new) + body)
    return path


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
    """The one trace format: header, derived columns, refusals, recovery."""

    @pytest.fixture(scope="class")
    def v2(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("v2") / "v2.trace"
        _scenario(n_bins=4, seed=5, max_records_per_od=40).write_trace(path)
        return path

    def test_version_and_header(self, v2):
        info = trace_info(v2)
        assert info.version == 2
        assert [c["name"] for c in info.derived["columns"]] == ["od"] + [
            f"runid_{name}" for name in FEATURES
        ]
        assert info.derived["anonymization_bits"] == abilene().anonymization_bits
        assert len(info.column_crcs) == 9 and len(info.derived["crcs"]) == 5

    def test_derived_columns_match_on_the_fly_derivation(self, v2):
        topology = abilene()
        router = Router(topology)
        with TraceReader(v2) as reader:
            for b in range(reader.n_bins):
                stored_ods, stored_runids = reader.read_derived_bin(b)
                ods, runids = derive_columns(
                    reader.read_bin(b), router, topology.anonymization_bits
                )
                np.testing.assert_array_equal(stored_ods, ods)
                for got, expected in zip(stored_runids, runids):
                    np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("old, new", [
        (b'"version": 2', b'"version": 1'),
        (b'"column_crcs"', b'"column_crcx"'),
    ], ids=["version-1", "no-checksums"])
    @pytest.mark.parametrize("opener", ["reader", "info", "cli-info", "cli-run"])
    def test_other_headers_are_refused_at_open(self, v2, tmp_path, capsys,
                                               old, new, opener):
        path = tmp_path / "patched.trace"
        path.write_bytes(v2.read_bytes())
        _patch_header(path, old, new)
        assert path.stat().st_size == v2.stat().st_size
        if opener.startswith("cli"):
            argv = (["trace", "info", str(path)] if opener == "cli-info"
                    else ["run", "baseline-diurnal", "--trace", str(path)])
            assert main(argv) == 2
            assert "repro trace write" in capsys.readouterr().err
            return
        with pytest.raises(TraceError, match="repro trace write"):
            TraceReader(path) if opener == "reader" else trace_info(path)

    @pytest.mark.parametrize("opener", ["reader", "info", "cli-info", "cli-run"])
    def test_a_header_missing_a_key_is_refused_at_open(self, v2, tmp_path, capsys,
                                                       opener):
        # Once a bare KeyError: a header without a key the reader reads
        # is a TraceError naming the key, and exit 2 at the CLI.
        path = tmp_path / "patched.trace"
        path.write_bytes(v2.read_bytes())
        _patch_header(path, b'"n_bins"', b'"n_binz"')
        if opener.startswith("cli"):
            argv = (["trace", "info", str(path)] if opener == "cli-info"
                    else ["run", "baseline-diurnal", "--trace", str(path)])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "lacks n_bins" in err and len(err.strip().splitlines()) == 1
            return
        with pytest.raises(TraceError, match="lacks n_bins.*repro trace write"):
            TraceReader(path) if opener == "reader" else trace_info(path)

    @pytest.mark.parametrize("key, old", [
        pytest.param(key, old, id=key) for key, old in (
            ("n_records", b'"n_records"'),
            ("bins", b'"bins"'),
            ("bins.width", b'"width"'),
            ("bins.start", b'"start"'),
            ("columns", b'"columns": [{"dtype": "<i8", "name": "src_ip"'),
            ("column_crcs", b'"column_crcs"'),
            ("derived", b'"derived"'),
        )
    ])
    def test_every_key_the_reader_reads_is_required(self, v2, tmp_path, key, old):
        path = tmp_path / "patched.trace"
        path.write_bytes(v2.read_bytes())
        # The key's last letter becomes "~": same length, key absent.
        end = old.index(b'"', 1)
        _patch_header(path, old, old[:end - 1] + b"~" + old[end:])
        for opener in (TraceReader, trace_info):
            with pytest.raises(TraceError, match=rf"lacks {key}\b"):
                opener(path)

    def test_verify_covers_derived_columns(self, v2):
        results = verify_trace(v2)
        assert set(results) >= {"od", "runid_src_port", "runid_dst_ip"}
        assert all(r["ok"] for r in results.values())

    def test_truncated_tail_replays_its_records(self, tmp_path, capsys):
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
        assert recovered.truncated and recovered.n_records == full.n_records
        with pytest.raises(TraceError, match="replay its records"):
            check_derived(recovered, abilene())
        # The fast path refuses the tail; its records still replay.
        config = StreamConfig(warmup_bins=8, n_components=2, refit_every=0,
                              exact_histograms=True)
        with TraceReader(clipped, allow_partial=True) as reader:
            with pytest.raises(KeyError):
                reader.derived_column("od")
            with pytest.raises(TraceError, match="replay its records"):
                StreamingDetectionEngine(abilene(), config).process_precomputed(
                    reader
                )
            report = StreamingDetectionEngine(abilene(), config).process(
                reader.iter_chunks()
            )
        assert report.n_records == full.n_records
        code = main(["trace", "replay", str(clipped), "--exact", "--allow-partial",
                     "--warmup-bins", "8", "--components", "2",
                     "--refit-every", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact histograms" in out and f"replayed {full.n_records} records" in out
