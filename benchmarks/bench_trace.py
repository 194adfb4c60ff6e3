"""Benchmarks the columnar trace store: write, replay, cluster sharing.

Three questions, one workload (the 648k-record synthetic Abilene trace
``bench_streaming`` uses):

* **write throughput** — how fast the batched whole-bin generator can
  materialise records into a trace file, deriving each bin's detection
  columns (resolved OD + per-feature run ids) on the way;
* **replay ingest vs inline generation** — records/sec of producing
  ready-to-ingest chunks from the mmap'd trace (every column touched,
  so the pages really stream through memory) against synthesising the
  same records inline.  Replay is reported warm (page cache populated)
  and cold (pages dropped via ``posix_fadvise(DONTNEED)`` first, where
  the platform supports it);
* **cluster sharing** — ``run_cluster_source`` ingest at 1 and 2 workers when
  every worker memory-maps one shared trace instead of regenerating
  its OD slice, on the smaller bench_cluster workload.

Medians of 3 land in ``results/trace.json``; ``tools/check_perf.py``
gates replay-ingest regressions against the committed baseline.  The
acceptance floor for this subsystem is replay ingest >= 2x the
committed streaming-exact reduction rate: record production must no
longer be the end-to-end bottleneck.
"""

import os
from pathlib import Path

from _util import (
    emit,
    rate_summary,
    run_once,
    stage_profile,
    timed_repeats,
    write_json_result,
)

from repro.cluster import run_cluster_source
from repro.flows.binning import TimeBins
from repro.flows.records import COLUMN_SPEC
from repro.io import TraceReader
from repro.net.topology import abilene
from repro.pipeline import DetectionPipeline, ScenarioSource, TraceSource
from repro.stream import StreamConfig, StreamingDetectionEngine, synthetic_record_stream, trace_record_stream
from repro.traffic.generator import TrafficGenerator

N_BINS = 36
MAX_RECORDS_PER_OD = 150
SEED = 11
REPEATS = 3
#: Cold-cache numbers are at the mercy of the storage stack; more
#: repeats keep the committed median out of the noise.
COLD_REPEATS = 5
CHUNK_RECORDS = 65536

#: The precomputed-detection workload: a dense recorded trace, so
#: per-bin scoring cost is amortised the way a real recorded trace
#: would amortise it.
DETECT_MAX_RECORDS = 400
DETECT_WARMUP = 24
DETECT_REPEATS = 5

CLUSTER_N_BINS = 20
CLUSTER_WARMUP = 14
CLUSTER_MAX_RECORDS = 120
CLUSTER_SEED = 23
CLUSTER_WORKERS = (1, 2)


def _generator():
    return TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=SEED)


def _write_trace(path, n_bins, max_records_per_od, seed):
    """The background trace (``baseline-diurnal`` schedules no events)."""
    return ScenarioSource(
        "baseline-diurnal", n_bins=n_bins, seed=seed,
        max_records_per_od=max_records_per_od,
    ).write_trace(path)


def _consume(chunks) -> int:
    """Drain a chunk stream touching every column of every record.

    Summing each column forces the bytes through memory (or off disk,
    for a cold mmap), so the measured rate is an honest "records ready
    for the reduction" number, not view-creation bookkeeping.
    """
    n = 0
    checksum = 0
    for chunk in chunks:
        n += len(chunk)
        for name, _ in COLUMN_SPEC:
            checksum += int(getattr(chunk, name).sum())
    assert checksum != 0
    return n


def _drop_page_cache(path: Path) -> bool:
    """Ask the kernel to evict the file's cached pages (best effort)."""
    if not hasattr(os, "posix_fadvise"):
        return False
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)
    return True


def test_trace_write_and_replay(benchmark, tmp_path):
    path = tmp_path / "abilene.trace"

    # Write throughput (the batched whole-bin generation path).
    def _write():
        return _write_trace(path, N_BINS, MAX_RECORDS_PER_OD, SEED)

    info = run_once(benchmark, _write)
    _, write_times = timed_repeats(_write, REPEATS)
    n_records = info.n_records
    assert n_records >= 50_000

    # Inline-generation ingest: the pre-trace record source.
    def _inline():
        return _consume(
            synthetic_record_stream(
                _generator(), range(N_BINS), max_records_per_od=MAX_RECORDS_PER_OD,
                seed=SEED,
            )
        )

    inline_n, inline_times = timed_repeats(_inline, REPEATS)
    assert inline_n == n_records

    # Cold replay: drop the page cache before each pass (best effort).
    cold_supported = True
    cold_times = []
    for _ in range(COLD_REPEATS):
        cold_supported = _drop_page_cache(path) and cold_supported
        _, t = timed_repeats(
            lambda: _consume(trace_record_stream(path, chunk_records=CHUNK_RECORDS)),
            1,
        )
        cold_times.extend(t)

    # Cold replay with readahead: fadvise(WILLNEED) at open overlaps
    # the page-ins with the consuming sweep instead of paying each
    # fault inline — the reader-side answer to cold-cache variance.
    def _replay_readahead():
        with TraceReader(path, readahead=True) as reader:
            return _consume(reader.iter_chunks(chunk_records=CHUNK_RECORDS))

    cold_ra_times = []
    for _ in range(COLD_REPEATS):
        _drop_page_cache(path)
        _, t = timed_repeats(_replay_readahead, 1)
        cold_ra_times.extend(t)

    # Warm replay: the page cache now holds the whole file.
    def _replay():
        return _consume(trace_record_stream(path, chunk_records=CHUNK_RECORDS))

    replay_n, replay_times = timed_repeats(_replay, REPEATS)
    assert replay_n == n_records

    write_rate = rate_summary(n_records, write_times)
    inline_rate = rate_summary(n_records, inline_times)
    cold_rate = rate_summary(n_records, cold_times)
    cold_ra_rate = rate_summary(n_records, cold_ra_times)
    warm_rate = rate_summary(n_records, replay_times)
    size_mb = path.stat().st_size / 1e6

    def fmt(rate):
        return (
            f"{rate['median']:12,.0f} records/s "
            f"(min {rate['min']:,.0f}, max {rate['max']:,.0f}, "
            f"median of {rate['n_repeats']})"
        )

    cold_label = "cold (fadvise DONTNEED)" if cold_supported else "cold (UNSUPPORTED)"
    emit(
        "trace",
        "\n".join(
            [
                f"Trace store ({n_records} records, {N_BINS} bins, {size_mb:.1f} MB)",
                f"  write trace            : {fmt(write_rate)}",
                f"  inline generation      : {fmt(inline_rate)}",
                f"  mmap replay, warm      : {fmt(warm_rate)}",
                f"  mmap replay, {cold_label:<10}: {fmt(cold_rate)}",
                f"  mmap replay, cold+readahead: {fmt(cold_ra_rate)}",
                "  (replay touches all nine columns of every record)",
            ]
        ),
    )
    # One instrumented warm replay records the per-reader chunk timing
    # (trace.chunk.cold is the reader's first sweep, .warm the steady
    # state); the timed repeats above stay uninstrumented.
    _, replay_stages = stage_profile(_replay)
    write_json_result(
        "trace",
        {
            "n_records": n_records,
            "n_bins": N_BINS,
            "max_records_per_od": MAX_RECORDS_PER_OD,
            "file_bytes": path.stat().st_size,
            "cold_eviction_supported": cold_supported,
            "records_per_sec": {
                "write": write_rate,
                "inline_generation": inline_rate,
                "replay_mmap_cold": cold_rate,
                "replay_mmap_cold_readahead": cold_ra_rate,
                "replay_mmap_warm": warm_rate,
            },
            "stages": {"replay_mmap_warm": replay_stages},
        },
    )
    # Replay must beat regenerating the records inline by a wide margin
    # — that is the entire point of recording a trace.
    assert warm_rate["median"] >= 2.0 * inline_rate["median"], (
        f"warm replay {warm_rate['median']:,.0f} records/s is not 2x inline "
        f"generation {inline_rate['median']:,.0f}"
    )
    # And the replayed records must be the inline records, bit for bit.
    with TraceReader(path) as reader:
        check_gen = TrafficGenerator(abilene(), TimeBins(n_bins=N_BINS), seed=SEED)
        first_inline = next(
            synthetic_record_stream(
                check_gen, range(N_BINS), max_records_per_od=MAX_RECORDS_PER_OD,
                seed=SEED,
            )
        )
        first_replayed = reader.read_bin(0)
        for name, _ in COLUMN_SPEC:
            assert (
                getattr(first_inline, name).tobytes()
                == getattr(first_replayed, name).tobytes()
            )


def test_precomputed_detection(benchmark, tmp_path):
    """Exact detection from a derived-column trace vs full recompute.

    The replay-vs-detection gap in one table: the same trace, the same
    engine configuration, the same (asserted byte-identical)
    detections — once recomputing LPM attribution and the per-bin
    (OD, value) sort from the raw columns, once reading the trace's
    precomputed OD/run-id columns.  The precomputed median is
    the number ``tools/check_perf.py`` holds to an absolute floor.
    """
    path = tmp_path / "derived.trace"

    def _write():
        return _write_trace(path, N_BINS, DETECT_MAX_RECORDS, SEED)

    info = run_once(benchmark, _write)
    n_records = info.n_records

    def _config():
        return StreamConfig(
            warmup_bins=DETECT_WARMUP,
            n_components=6,
            refit_every=0,
            exact_histograms=True,
        )

    def _detect_recompute():
        return DetectionPipeline(_config()).run(TraceSource(path)).report

    def _detect_precomputed():
        return StreamingDetectionEngine(abilene(), _config()).process_precomputed(
            path
        )

    def _render(report):
        return [
            (d.bin, d.detected_by_entropy, d.detected_by_volume,
             tuple(int(f.od) for f in d.flows))
            for d in report.detections
        ]

    # Warm the page cache once, then time both paths on equal footing.
    _detect_precomputed()
    recompute_report, recompute_times = timed_repeats(_detect_recompute, 2)
    precomputed_report, precomputed_times = timed_repeats(
        _detect_precomputed, DETECT_REPEATS
    )
    assert _render(recompute_report) == _render(precomputed_report)
    assert recompute_report.n_records == precomputed_report.n_records == n_records

    recompute_rate = rate_summary(n_records, recompute_times)
    precomputed_rate = rate_summary(n_records, precomputed_times)
    gap = precomputed_rate["median"] / recompute_rate["median"]
    size_mb = path.stat().st_size / 1e6
    emit(
        "trace_detect",
        "\n".join(
            [
                f"Exact detection from one trace ({n_records} records, "
                f"{N_BINS} bins, {size_mb:.1f} MB with derived columns)",
                f"  recompute (LPM + sort) : "
                f"{recompute_rate['median']:12,.0f} records/s",
                f"  precomputed columns    : "
                f"{precomputed_rate['median']:12,.0f} records/s "
                f"({gap:.1f}x, identical detections)",
            ]
        ),
    )
    _, precomputed_stages = stage_profile(_detect_precomputed)
    write_json_result(
        "trace_detect",
        {
            "n_records": n_records,
            "n_bins": N_BINS,
            "max_records_per_od": DETECT_MAX_RECORDS,
            "warmup_bins": DETECT_WARMUP,
            "file_bytes": path.stat().st_size,
            "records_per_sec": {
                "detect_recompute": recompute_rate,
                "detect_precomputed_warm": precomputed_rate,
            },
            "speedup": {"precomputed_vs_recompute": gap},
            "stages": {"detect_precomputed_warm": precomputed_stages},
        },
    )
    # The whole point of the derived columns: detection no longer runs
    # an order of magnitude behind replay.
    assert gap >= 3.0, (
        f"precomputed detection {precomputed_rate['median']:,.0f} records/s "
        f"is only {gap:.1f}x the recompute path"
    )


def test_cluster_on_shared_trace(tmp_path):
    """1/2-worker cluster ingest from one shared mmap'd trace file."""
    path = tmp_path / "cluster.trace"
    # The stored OD column replaces each worker's longest-prefix
    # attribution pass — this (with the disjoint OD split) is what
    # removed the historical 2-worker inversion.
    info = _write_trace(path, CLUSTER_N_BINS, CLUSTER_MAX_RECORDS, CLUSTER_SEED)
    config = StreamConfig(
        warmup_bins=CLUSTER_WARMUP,
        n_components=6,
        refit_every=0,
        exact_histograms=True,
    )
    results = {
        workers: run_cluster_source(
            TraceSource(path, network="abilene", n_bins=CLUSTER_N_BINS),
            n_shards=workers,
            config=config,
        )
        for workers in CLUSTER_WORKERS
    }
    detections = {
        w: [(d.bin, d.detected_by_entropy, d.detected_by_volume)
            for d in r.report.detections]
        for w, r in results.items()
    }
    lines = [
        f"Cluster on one shared trace ({info.n_records} records, "
        f"{CLUSTER_N_BINS} bins, exact histograms)"
    ]
    for workers in CLUSTER_WORKERS:
        result = results[workers]
        lines.append(
            f"  {workers} worker(s): {result.records_per_sec:12,.0f} records/s "
            f"({result.elapsed:.2f}s, {result.report.counts()['total']} detections)"
        )
    emit("trace_cluster", "\n".join(lines))
    payload = {
        "n_records": info.n_records,
        "n_bins": CLUSTER_N_BINS,
        "records_per_sec": {
            str(w): results[w].records_per_sec for w in CLUSTER_WORKERS
        },
    }
    write_json_result("trace_cluster", payload)
    # The shared-trace contract: identical detections at any worker count,
    # with every record accounted for exactly once across shards.
    for workers in CLUSTER_WORKERS[1:]:
        assert results[workers].n_records == results[1].n_records == info.n_records
        assert detections[workers] == detections[1]
