"""Multi-process cluster driver: the pipeline's ``cluster`` mode.

:func:`run_cluster_source` is cluster mode's one entry point — behind
``repro run SCENARIO --mode cluster`` and
``DetectionPipeline.run(mode="cluster")``.  N worker processes each run
:func:`repro.cluster.shard.shard_summaries` over their OD-flow slice of
a record source — each finishes its own OD flows — and ship each bin's
entropy and volume rows as a wire-format row block to the parent over
a per-worker link (back-pressure: a worker blocking on a full link
stops producing); the parent's
:class:`repro.cluster.coordinator.ClusterCoordinator` scatters the
blocks and scores them with a
:class:`repro.stream.engine.StreamingDetectionEngine`.

Workers source their records through the pipeline's
:class:`repro.pipeline.sources.RecordSource` adapters — each worker
rebuilds the source from its picklable :class:`SourceSpec` and consumes
only its shard's slice:

* **trace** sources: every worker reads the *same* columnar trace
  (:mod:`repro.io.trace`) by row ranges — one chunk or bin resident at
  a time, whatever the trace's length — and picks its OD-flow slice by
  the stored OD column — one producer pass at write time, zero
  regeneration.  In exact mode the worker reads no records: it builds
  each bin's rows from the trace's stored run ids, so the parent
  refuses a trace whose run ids were derived under another
  anonymization depth before any worker starts;
* **scenario** sources: each worker materialises its OD slice of the
  synthetic background from a
  :class:`repro.traffic.generator.TrafficGenerator`, plus exactly the
  scenario's anomaly events whose target OD it owns.

Determinism: every background record is a counter-based function of
(seed, OD, bin, record index) —
:func:`repro.traffic.generator.record_uniforms`, no generator object
and so no draw order — each scenario anomaly's records come from a
per-(OD, bin) seeded stream (:mod:`repro.scenarios.records`), and a
trace written by :meth:`repro.pipeline.ScenarioSource.write_trace`
replays those exact records.  So whichever source a worker uses, it sees bit-identical
records for its ODs no matter how many shards exist or which bin it
starts from, and the cluster's detections are bin-for-bin identical to
a single process consuming the whole source (exact-histogram mode;
sketch mode matches within estimator tolerance: a shard's chunks group
its records differently, and conservative update depends on grouping).

Supervision (``repro.resilience``): the pure
:class:`repro.cluster.supervisor.Supervisor` decides restarts,
deadlines and strict-vs-degrade completion; this module is the I/O
around it — it launches and discards workers, polls their links, and
runs the supervisor's commands.  Determinism makes a restart safe: the
replacement recomputes bit-identical blocks from
:meth:`ClusterCoordinator.resume_bin` on, and the coordinator dedupes
re-delivered bins.  With ``checkpoint=`` the coordinator spills every
closed bin's merged block to disk, and ``resume=True`` replays that
file instead of recomputing; ``chaos=`` injects a deterministic
:class:`repro.resilience.FaultPlan` at the workers' ship points for
tests and the CI chaos-smoke job.

Links (``repro.cluster.transport``): each worker gets its *own*
framed socket — one end of a private ``socketpair`` for a local
worker, a dialled-in TCP connection for a remote one — so killing one
worker can never wedge another (a shared queue's write lock dies with
whoever holds it), and the parent always observes a worker's messages
*in order, before* the link's EOF — a worker whose ``close`` is still
in flight when it exits is drained, not misreported as a crash.  With
``listen=`` workers may live on other machines (``repro worker
--connect``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import telemetry as tel
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shard import shard_summaries
from repro.cluster.supervisor import TICK, Supervisor
from repro.cluster.transport import WorkerLinks, parse_hostport
from repro.pipeline.pipeline import PipelineResult
from repro.pipeline.sources import RecordSource, SourceSpec, build_source
from repro.resilience.chaos import FaultPlan, corrupt_payload
from repro.resilience.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    run_fingerprint,
)
from repro.resilience.policy import ResiliencePolicy
from repro.stream.engine import StreamConfig, StreamDetection, StreamingDetectionEngine
from repro.stream.replay import check_derived

__all__ = ["run_cluster_source"]


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs to rebuild its shard (picklable)."""

    source: SourceSpec
    shard_id: int
    n_shards: int
    chunk_records: int
    exact: bool
    sketch_width: int
    sketch_depth: int
    sketch_seed: int
    #: run a telemetry session inside the worker and ship snapshots in
    #: the heartbeat/close messages (set when the parent's is active).
    telemetry: bool = False
    #: which launch of this shard the worker is (0 = first); echoed in
    #: every message so the supervisor can drop a terminated attempt's
    #: stragglers.
    attempt: int = 0
    #: first bin to actually ship; earlier bins are recomputed (the
    #: source is deterministic) but never sent — the coordinator
    #: already holds or merged them.
    resume_bin: int = 0
    #: deterministic fault plan (chaos harness); None in production.
    chaos: FaultPlan | None = None


def _heartbeat(session) -> dict | None:
    """Small per-bin progress payload piggybacked on summary messages."""
    if session is None:
        return None
    return {
        "records": session.counters.get("reduce.records"),
        "bins": session.counters.get("reduce.bins_closed"),
        "rss_bytes": tel.sample_rss_bytes(),
    }


def _shard_worker(spec: _WorkerSpec, conn) -> None:
    """Worker entry point: produce records, reduce, ship, close."""
    # A fresh session per worker: with the ``fork`` start method the
    # parent's session object is inherited but its poller thread is
    # not, so reusing it would silently stop sampling.
    session = tel.enable() if spec.telemetry else None

    def ship(summary) -> None:
        payload = summary.to_bytes()
        if spec.chaos is not None:
            fault = spec.chaos.fault_for(spec.shard_id, summary.bin, spec.attempt)
            if fault is not None:
                if fault.kind == "kill":
                    os._exit(137)  # hard death mid-bin, nothing shipped
                elif fault.kind == "stall":
                    time.sleep(fault.secs)
                elif fault.kind == "corrupt":
                    payload = corrupt_payload(payload)
        # stage.ship includes back-pressure: a full link means the
        # worker waits here for the coordinator.
        with tel.span("stage.ship"):
            conn.send(("summary", spec.shard_id, spec.attempt, payload,
                       _heartbeat(session)))

    try:
        scan = shard_summaries(
            build_source(spec.source),
            spec.shard_id,
            spec.n_shards,
            spec.resume_bin,
            exact=spec.exact,
            chunk_records=spec.chunk_records,
            width=spec.sketch_width,
            depth=spec.sketch_depth,
            sketch_seed=spec.sketch_seed,
        )
        for summary in scan:
            ship(summary)
        snapshot = session.snapshot() if session is not None else None
        conn.send(("close", spec.shard_id, spec.attempt, scan.n_records,
                   scan.late_records, snapshot))
        if spec.chaos is not None and spec.chaos.close_fault(
            spec.shard_id, spec.attempt
        ):
            # Die *after* the close message is on the wire: the exact
            # liveness race where a finished worker looks crashed.
            conn.close()
            os._exit(3)
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        try:
            conn.send(("error", spec.shard_id, spec.attempt,
                       f"{exc!r}\n{traceback.format_exc()}"))
        except OSError:
            pass  # parent already faulted this attempt and closed up
    finally:
        conn.close()


def _supervise(supervisor, link, build_spec, clock, on_detection) -> None:
    """Run ``supervisor``'s commands until the run is done.

    ``link`` launches (``build_spec(unit, attempt, resume_bin)``),
    discards and polls units; ``clock()`` is the time the supervisor
    sees.  Every poll's messages are followed by one tick.  Raises the
    supervisor's terminal error.
    """
    messages: list[tuple] = []
    while not supervisor.done:
        for event in messages + [TICK]:
            for command in supervisor.step(clock(), event):
                kind = command[0]
                if kind == "spawn":
                    link.launch(build_spec(*command[1:]))
                elif kind == "discard":
                    link.discard(command[1])
                elif kind == "emit" and on_detection is not None:
                    for verdict in command[1]:
                        on_detection(verdict)
                elif kind == "raise":
                    raise command[1]
        if not supervisor.done:
            with tel.span("stage.wait"):
                messages = link.poll(supervisor.timeout(clock()))


def run_cluster_source(
    source: RecordSource | SourceSpec,
    n_shards: int = 2,
    config: StreamConfig | None = None,
    start_method: str | None = None,
    on_detection: Callable[[StreamDetection], None] | None = None,
    meta: dict | None = None,
    resilience: ResiliencePolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chaos: FaultPlan | str | None = None,
    listen: str | tuple[str, int] | None = None,
) -> PipelineResult:
    """Run the sharded pipeline over any :class:`RecordSource`.

    Args:
        source: The record source (or its picklable spec).  Its bin
            grid and topology configure the engine and every shard
            monitor.
        n_shards: Worker process count (>= 1).
        config: Engine knobs; ``exact_histograms``, sketch geometry and
            ``chunk_records`` also shape the shard monitors.
        start_method: ``multiprocessing`` start method (None: platform
            default, e.g. ``fork`` on Linux).
        on_detection: Callback invoked with each verdict as bins close
            (live output; the verdicts also land in the report).
        meta: Extra provenance merged into the report's metadata, on
            top of the source's own and ``mode``/``n_shards``.
        resilience: Supervision policy (retries, backoff, deadlines,
            strict-vs-degrade); None uses :class:`ResiliencePolicy`'s
            defaults (2 retries, strict completion).
        checkpoint: Path to spill every closed bin's merged block to;
            enables crash recovery via ``resume``.
        resume: Replay an existing ``checkpoint`` file before starting
            workers, restarting the run from the last closed bin
            (``report.meta["resumed_bins"]`` counts the replayed bins).
        chaos: Deterministic fault plan (or its ``--chaos`` spec
            string) injected at the workers' ship points.
        listen: ``"HOST:PORT"`` (or a ``(host, port)`` pair) to bind
            and wait for external ``repro worker --connect`` processes
            instead of spawning local ones.

    Returns:
        A ``mode="cluster"`` :class:`PipelineResult`: the merged report,
        throughput, per-worker record counts, restarts and whether the
        run degraded.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if isinstance(source, SourceSpec):
        source = build_source(source)
    n_bins = source.spec.n_bins
    if n_bins < 1:
        raise ValueError("source must cover at least one bin")
    config = config or StreamConfig()
    if config.exact_histograms and source.spec.kind == "trace":
        # Exact shards build their rows from the trace's stored run ids:
        # refuse a trace they cannot use before any worker starts.
        check_derived(source.info, source.topology)
    if isinstance(chaos, str):
        chaos = FaultPlan.parse(chaos)
    if chaos is not None:
        chaos = chaos.resolve(n_shards, n_bins)
    engine = StreamingDetectionEngine(
        source.topology,
        config,
        bin_width=source.spec.bin_width,
        start=source.spec.bin_start,
    )
    engine.meta.update(source.provenance)
    engine.meta.update({"mode": "cluster", "n_shards": int(n_shards)})
    engine.meta.update(meta or {})
    coordinator = ClusterCoordinator(engine, shard_ids=range(n_shards))
    telemetry = tel.active() is not None

    # -- checkpoint: replay, then attach the spill hook (in that order:
    # attaching first would re-append every replayed bin).
    writer: CheckpointWriter | None = None
    if checkpoint is not None:
        fingerprint = run_fingerprint(source.spec, config)
        state = None
        if resume and os.path.exists(checkpoint):
            state = load_checkpoint(str(checkpoint), fingerprint)
            for bin_index, payload in state.bins:
                coordinator.preload(bin_index, payload)
            if state.bins:
                engine.meta["resumed_bins"] = len(state.bins)
        writer = CheckpointWriter(str(checkpoint), fingerprint, resume_from=state)

        def _spill(bin_index: int, merged) -> None:
            writer.append(
                bin_index, None if merged is None else merged.to_bytes()
            )
            tel.count("cluster.checkpoint_bins")

        coordinator.on_bin_merged = _spill

    link = WorkerLinks(
        _shard_worker,
        multiprocessing.get_context(start_method),
        listen=parse_hostport(listen) if isinstance(listen, str) else listen,
    )

    def build_spec(shard_id: int, attempt: int, resume_bin: int) -> _WorkerSpec:
        return _WorkerSpec(
            source=source.spec,
            shard_id=shard_id,
            n_shards=n_shards,
            chunk_records=config.chunk_records,
            exact=config.exact_histograms,
            sketch_width=config.sketch_width,
            sketch_depth=config.sketch_depth,
            sketch_seed=config.sketch_seed,
            telemetry=telemetry,
            attempt=attempt,
            resume_bin=resume_bin,
            chaos=chaos,
        )

    start = time.perf_counter()
    supervisor = Supervisor(
        coordinator, resilience or ResiliencePolicy(), n_bins, start
    )
    try:
        _supervise(supervisor, link, build_spec, time.perf_counter, on_detection)
        link.drain()
    finally:
        link.shutdown()
        if writer is not None:
            writer.close()
    if supervisor.degraded or supervisor.restarts:
        engine.meta["degraded"] = supervisor.degraded
        engine.meta["shard_health"] = {
            str(unit): record.to_meta()
            for unit, record in supervisor.units.items()
        }
    report = coordinator.finish()
    return PipelineResult(
        report=report,
        mode="cluster",
        n_records=report.n_records,
        elapsed=time.perf_counter() - start,
        shard_records=supervisor.shard_records,
        degraded=supervisor.degraded,
        restarts=supervisor.restarts,
    )
