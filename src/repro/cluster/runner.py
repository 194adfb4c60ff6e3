"""Multi-process cluster driver: the pipeline's ``cluster`` mode.

Ties the pieces together behind ``repro cluster`` and
``DetectionPipeline.run(mode="cluster")``: N worker processes each run
a :class:`repro.cluster.shard.ShardMonitor` over their OD-flow slice of
a record source, ship wire-format summaries to the parent over a
per-worker pipe (back-pressure: a worker blocking on a full pipe stops
producing records), and the parent's
:class:`repro.cluster.coordinator.ClusterCoordinator` merges and scores
them with a :class:`repro.stream.engine.StreamingDetectionEngine`.

Workers source their records through the pipeline's
:class:`repro.pipeline.sources.RecordSource` adapters — each worker
rebuilds the source from its picklable :class:`SourceSpec` and consumes
only its shard's slice:

* **trace** sources: every worker memory-maps the *same* columnar
  trace (:mod:`repro.io.trace`) and keeps only its OD-flow slice of
  each chunk — one producer pass at write time, zero regeneration;
* **synthetic** sources: each worker materialises its OD slice from a
  :class:`repro.traffic.generator.TrafficGenerator`;
* **scenario** sources: synthetic background plus the scenario's
  anomaly events — each worker regenerates exactly the events whose
  target OD it owns.

Determinism: every record draw is seeded per (OD flow, bin) —
``SeedSequence([generator_seed, stream_seed, od, bin])`` for background
records (see :func:`repro.stream.chunks.synthetic_record_stream`) and a
per-event equivalent for scenario anomalies — and a trace written by
:func:`repro.io.trace.write_trace` replays those exact records.  So
whichever source a worker uses, it sees bit-identical records for its
ODs no matter how many shards exist, and the cluster's detections are
bin-for-bin identical to a single process consuming the whole source
(exact-histogram mode; sketch mode matches within estimator tolerance).

Supervision (``repro.resilience``): the coordinator loop doubles as a
shard *supervisor*.  A worker that dies, stalls past the per-bin
deadline, or ships a corrupt summary is terminated and relaunched with
bounded retries and exponential backoff — determinism makes the restart
safe, because the replacement recomputes bit-identical summaries and
resumes at :meth:`ClusterCoordinator.resume_bin` (duplicates are
deduped by the reopened-shard path).  A shard out of retries either
aborts the run (``strict``) or is closed with its remaining bins as
gaps and the report flagged ``degraded=True`` (``degrade``).  With
``checkpoint=`` the coordinator spills every closed bin's merged
summary to disk, and ``resume=True`` replays that file instead of
recomputing; ``chaos=`` injects a deterministic
:class:`repro.resilience.FaultPlan` at the workers' ship points for
tests and the CI chaos-smoke job.

Transport (``repro.cluster.transport``): each worker gets its *own*
link — a ``multiprocessing.Pipe`` or a framed TCP socket — so killing
one worker can never wedge another (a shared queue's write lock dies
with whoever holds it), and the parent always observes a worker's
messages *in order, before* the link's EOF — a worker whose ``close``
is still in flight when it exits is drained, not misreported as a
crash.  With ``transport="tcp"`` workers may live on other machines
(``repro worker --connect``); with ``tiers="AxB"`` an aggregator tier
(``repro.cluster.aggregator``) tree-merges each B-worker subtree
before one summary per bin goes upstream, keeping coordinator fan-in
flat as shard counts grow.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import telemetry as tel
from repro.cluster.aggregator import AggregatorSpec, TierMerge, parse_tiers
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shard import ShardMonitor
from repro.cluster.summary import SummaryCorruptError
from repro.cluster.transport import (
    PipeTransport,
    SummaryTransport,
    TcpTransport,
    parse_hostport,
)
from repro.pipeline.bank import DEFAULT_DETECTORS
from repro.pipeline.sources import (
    RecordSource,
    SourceSpec,
    SyntheticSource,
    TraceSource,
    build_source,
    shard_ods,
)
from repro.resilience.chaos import FaultPlan, corrupt_payload
from repro.resilience.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    run_fingerprint,
)
from repro.resilience.policy import ResiliencePolicy, ShardHealth
from repro.stream.engine import StreamConfig, StreamDetection, StreamingDetectionEngine, StreamingReport

# ``shard_ods`` is defined once, next to the sources whose
# ``shard_batches`` implement it; re-exported here for compatibility.
__all__ = ["ClusterResult", "run_cluster", "run_cluster_source", "shard_ods"]


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
        if summary.bin < spec.resume_bin:
            return  # already merged or held by the coordinator
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
        # stage.ship includes back-pressure: a full pipe means the
        # worker waits here for the coordinator.
        with tel.span("stage.ship"):
            conn.send(("summary", spec.shard_id, spec.attempt, payload,
                       _heartbeat(session)))

    try:
        source = build_source(spec.source)
        topology = source.topology
        monitor = ShardMonitor(
            topology,
            bin_width=spec.source.bin_width,
            start=spec.source.bin_start,
            width=spec.sketch_width,
            depth=spec.sketch_depth,
            sketch_seed=spec.sketch_seed,
            exact=spec.exact,
            shard_id=spec.shard_id,
        )
        # Fast-forward on resume: chunks entirely before the resume bin
        # only feed bins whose summaries would be dropped anyway.
        resume_time = (
            spec.source.bin_start + spec.resume_bin * spec.source.bin_width
        )
        n_records = 0
        chunks = tel.timed_iter(
            source.shard_batches(
                spec.shard_id,
                spec.n_shards,
                router=monitor.router,
                chunk_records=spec.chunk_records,
            ),
            "stage.source",
        )
        for chunk, ods in chunks:
            if (
                spec.resume_bin > 0
                and len(chunk)
                and chunk.timestamp.max() < resume_time
            ):
                continue
            n_records += len(chunk)
            for summary in monitor.ingest(chunk, ods=ods):
                ship(summary)
        for summary in monitor.flush():
            ship(summary)
        snapshot = session.snapshot() if session is not None else None
        conn.send(("close", spec.shard_id, spec.attempt, n_records,
                   monitor.late_records, snapshot))
        if spec.chaos is not None and spec.chaos.close_fault(
            spec.shard_id, spec.attempt
        ):
            # Die *after* the close message is on the wire: the exact
            # liveness race where a finished worker looks crashed.
            conn.close()
            os._exit(3)
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        import traceback

        try:
            conn.send(("error", spec.shard_id, spec.attempt,
                       f"{exc!r}\n{traceback.format_exc()}"))
        except OSError:
            pass  # parent already faulted this attempt and closed up
    finally:
        conn.close()


def _aggregator_worker(spec: AggregatorSpec, conn) -> None:
    """Aggregator entry point: run K children, tree-merge, forward.

    Supervision is all-or-nothing inside the subtree: any child fault
    (death before close, corrupt payload, raised exception) becomes
    this aggregator's error, and the parent supervisor restarts or
    degrades the whole subtree — the deterministic sources make the
    recompute bit-identical, and the coordinator's reopened-shard
    dedup absorbs re-delivered bins.
    """
    session = tel.enable() if spec.telemetry else None
    # Aggregators run non-daemon (they have children), so a supervisor
    # terminate() must still tear the subtree down: turn SIGTERM into
    # SystemExit so the ``finally`` below reaches link.shutdown().
    import signal

    def _terminate(signum, frame):
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    context = multiprocessing.get_context(spec.start_method)
    if spec.child_transport == "tcp":
        link: SummaryTransport = TcpTransport(context=context)
    else:
        link = PipeTransport(entry=_unit_main, context=context)
    tier = TierMerge([child.shard_id for child in spec.children])
    open_children = {child.shard_id for child in spec.children}
    child_records: dict[int, int] = {}
    late_records = 0

    def ship(merged) -> None:
        # The receiver counts each link's bytes (the coordinator counts
        # this payload on arrival), so only span the send here — else
        # merged snapshots would tally the upstream link twice.
        payload = merged.to_bytes()
        with tel.span("stage.ship"):
            conn.send(("summary", spec.shard_id, spec.attempt, payload,
                       _heartbeat(session)))

    try:
        for child in spec.children:
            link.launch(child)
        while open_children:
            for message in link.poll(1.0):
                kind = message[0]
                if kind == "eof":
                    if message[1] in open_children:
                        raise RuntimeError(
                            f"child shard {message[1]} died with exit code "
                            f"{message[2]} before closing its stream"
                        )
                    continue
                if kind == "frame_error":
                    raise SummaryCorruptError(
                        f"child shard {message[1]}: {message[2]}"
                    )
                if kind == "error":
                    raise RuntimeError(
                        f"child shard {message[1]} failed:\n{message[3]}"
                    )
                child_id = message[1]
                if kind == "summary":
                    tel.count("cluster.bytes_shipped", len(message[3]))
                    tel.count(f"cluster.link{child_id}.bytes", len(message[3]))
                    # A corrupt child payload raises SummaryCorruptError
                    # here and surfaces as this aggregator's fault.
                    with tel.span("stage.merge"):
                        merged = tier.add_serialized(child_id, message[3])
                    for summary in merged:
                        ship(summary)
                elif kind == "close":
                    child_records[child_id] = message[3]
                    late_records += message[4]
                    if session is not None:
                        session.add_shard(child_id, message[5])
                    open_children.discard(child_id)
                    for summary in tier.close_child(child_id):
                        ship(summary)
        snapshot = session.snapshot() if session is not None else None
        conn.send(("close", spec.shard_id, spec.attempt, child_records,
                   late_records, snapshot))
    except Exception as exc:
        import traceback

        try:
            conn.send(("error", spec.shard_id, spec.attempt,
                       f"{exc!r}\n{traceback.format_exc()}"))
        except OSError:
            pass  # parent already faulted this attempt and closed up
    finally:
        link.shutdown()
        conn.close()


def _unit_main(spec, conn) -> None:
    """Process entry shared by every transport: dispatch on spec type."""
    if isinstance(spec, AggregatorSpec):
        _aggregator_worker(spec, conn)
    else:
        _shard_worker(spec, conn)


@dataclass
class ClusterResult:
    """Outcome of one cluster run.

    Attributes:
        report: The merged :class:`StreamingReport` (same shape as a
            single-process run; ``to_diagnosis_report()`` applies).
        n_shards: Worker count.
        n_records: Records ingested across all shards.
        elapsed: Wall-clock seconds, worker launch to final merge.
        shard_records: Per-shard record counts (load-balance check).
        degraded: Run completed without one or more shards (their
            missing bins are gaps); mirrored in report meta.
        restarts: Worker restarts the supervisor performed.
        preloaded_bins: Bins replayed from a checkpoint on resume.
    """

    report: StreamingReport
    n_shards: int
    n_records: int
    elapsed: float
    shard_records: dict[int, int] = field(default_factory=dict)
    degraded: bool = False
    restarts: int = 0
    preloaded_bins: int = 0

    @property
    def records_per_sec(self) -> float:
        """Cluster-wide ingest throughput."""
        return self.n_records / self.elapsed if self.elapsed > 0 else float("inf")


def run_cluster_source(
    source: RecordSource | SourceSpec,
    n_shards: int = 2,
    config: StreamConfig | None = None,
    start_method: str | None = None,
    on_detection: Callable[[StreamDetection], None] | None = None,
    detectors: tuple[str, ...] = DEFAULT_DETECTORS,
    meta: dict | None = None,
    resilience: ResiliencePolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chaos: FaultPlan | str | None = None,
    transport: str = "pipe",
    listen: str | tuple[str, int] | None = None,
    tiers: str | tuple[int, int] | None = None,
) -> ClusterResult:
    """Run the sharded pipeline over any :class:`RecordSource`.

    Args:
        source: The record source (or its picklable spec).  Its bin
            grid and topology configure the engine and every shard
            monitor.
        n_shards: Worker process count (>= 1); overridden by ``tiers``.
        config: Engine knobs; ``exact_histograms``, sketch geometry and
            ``chunk_records`` also shape the shard monitors.
        start_method: ``multiprocessing`` start method (None: platform
            default, e.g. ``fork`` on Linux).
        on_detection: Callback invoked with each verdict as bins close
            (live output; the verdicts also land in the report).
        detectors: Detector-bank selection (see
            :mod:`repro.pipeline.bank`).
        meta: Extra provenance merged into the report's metadata, on
            top of the source's own and ``mode``/``n_shards``.
        resilience: Supervision policy (retries, backoff, deadlines,
            strict-vs-degrade); None uses :class:`ResiliencePolicy`'s
            defaults (2 retries, strict completion).
        checkpoint: Path to spill every closed bin's merged summary to;
            enables crash recovery via ``resume``.
        resume: Replay an existing ``checkpoint`` file before starting
            workers, restarting the run from the last closed bin.
        chaos: Deterministic fault plan (or its ``--chaos`` spec
            string) injected at the workers' ship points.
        transport: ``"pipe"`` (local multiprocessing, the default) or
            ``"tcp"`` (framed sockets; loopback self-spawned workers
            unless ``listen`` is given).
        listen: ``"HOST:PORT"`` to bind and wait for external
            ``repro worker --connect`` processes instead of spawning
            local ones (TCP only).
        tiers: Declarative aggregator layout ``"AxB"`` — A aggregator
            processes each tree-merging B workers (A*B shards total,
            coordinator fan-in A).  Overrides ``n_shards``.

    Returns:
        A :class:`ClusterResult` with the merged report and throughput.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if transport not in ("pipe", "tcp"):
        raise ValueError(f"unknown transport {transport!r} (pipe or tcp)")
    if listen is not None and transport != "tcp":
        raise ValueError("--listen requires --transport tcp")
    tier_shape = parse_tiers(tiers) if tiers is not None else None
    if tier_shape is not None:
        n_shards = tier_shape[0] * tier_shape[1]
    if isinstance(source, SourceSpec):
        source = build_source(source)
    n_bins = source.spec.n_bins
    if n_bins < 1:
        raise ValueError("source must cover at least one bin")
    config = config or StreamConfig()
    policy = resilience or ResiliencePolicy()
    if isinstance(chaos, str):
        chaos = FaultPlan.parse(chaos)
    if chaos is not None:
        chaos = chaos.resolve(n_shards, n_bins)
        for entry in chaos.faults:
            if entry.shard >= n_shards:
                raise ValueError(
                    f"chaos fault targets shard {entry.shard}, "
                    f"but the run has only {n_shards} shard(s)"
                )
    engine = StreamingDetectionEngine(
        source.topology,
        config,
        bin_width=source.spec.bin_width,
        start=source.spec.bin_start,
        detectors=detectors,
    )
    engine.meta.update(source.provenance)
    engine.meta.update({"mode": "cluster", "n_shards": int(n_shards),
                        "transport": transport})
    if tier_shape is not None:
        engine.meta["tiers"] = f"{tier_shape[0]}x{tier_shape[1]}"
    engine.meta.update(meta or {})
    # The coordinator supervises *units*: plain workers when flat, one
    # aggregator per subtree when tiered (fan-in A instead of A*B).
    n_units = tier_shape[0] if tier_shape is not None else n_shards
    coordinator = ClusterCoordinator(engine, shard_ids=range(n_units))
    session = tel.active()
    tel.gauge("cluster.merge_depth", 2 if tier_shape is not None else 1)

    # -- checkpoint: replay, then attach the spill hook (in that order:
    # attaching first would re-append every replayed bin).
    writer: CheckpointWriter | None = None
    preloaded_bins = 0
    if checkpoint is not None:
        fingerprint = run_fingerprint(source.spec, config, detectors)
        state = None
        if resume and os.path.exists(checkpoint):
            state = load_checkpoint(str(checkpoint), fingerprint)
            for bin_index, payload in state.bins:
                coordinator.preload(bin_index, payload)
            preloaded_bins = len(state.bins)
        writer = CheckpointWriter(str(checkpoint), fingerprint, resume_from=state)

        def _spill(bin_index: int, merged) -> None:
            writer.append(
                bin_index, None if merged is None else merged.to_bytes()
            )
            tel.count("cluster.checkpoint_bins")

        coordinator.on_bin_merged = _spill

    context = multiprocessing.get_context(start_method)
    if transport == "tcp":
        bind = parse_hostport(listen) if isinstance(listen, str) else listen
        link: SummaryTransport = TcpTransport(
            context=context, listen=bind, spawn_local=listen is None
        )
    else:
        link = PipeTransport(entry=_unit_main, context=context)

    # -- supervisor state (keyed by unit: worker shard or aggregator)
    attempt: dict[int, int] = {s: 0 for s in range(n_units)}
    health: dict[int, ShardHealth] = {
        s: ShardHealth(shard_id=s) for s in range(n_units)
    }
    restart_due: dict[int, float] = {}
    last_progress: dict[int, float] = {}
    open_shards = set(range(n_units))
    shard_records: dict[int, int] = {}
    degraded = False
    total_restarts = 0
    #: strict mode: the first exhausted unit's error, raised once the
    #: survivors' bins below ``drain_to`` are merged (and spilled)
    fatal: RuntimeError | None = None
    drain_to = n_bins
    start = time.perf_counter()

    def build_spec(unit_id: int):
        unit_attempt = attempt[unit_id]
        resume_from = coordinator.resume_bin(unit_id)

        def worker_spec(shard_id: int) -> _WorkerSpec:
            return _WorkerSpec(
                source=source.spec,
                shard_id=shard_id,
                n_shards=n_shards,
                chunk_records=config.chunk_records,
                exact=config.exact_histograms,
                sketch_width=config.sketch_width,
                sketch_depth=config.sketch_depth,
                sketch_seed=config.sketch_seed,
                telemetry=session is not None,
                attempt=unit_attempt,
                resume_bin=resume_from,
                chaos=chaos,
            )

        if tier_shape is None:
            return worker_spec(unit_id)
        fan_in = tier_shape[1]
        return AggregatorSpec(
            children=tuple(
                worker_spec(unit_id * fan_in + j) for j in range(fan_in)
            ),
            shard_id=unit_id,
            attempt=unit_attempt,
            telemetry=session is not None,
            child_transport=transport,
            start_method=start_method,
        )

    def spawn(unit_id: int) -> None:
        link.launch(build_spec(unit_id))
        last_progress[unit_id] = time.perf_counter()
        health[unit_id].status = "running"

    def emit(verdicts: list[StreamDetection]) -> None:
        if on_detection is not None:
            for verdict in verdicts:
                on_detection(verdict)

    def exhaust(shard_id: int, reason: str) -> None:
        nonlocal degraded, fatal, drain_to
        tel.count("resilience.retries_exhausted")
        if not policy.degrade:
            # The run fails — but raising here would lose to arrival
            # order the bins this unit delivered and a slower survivor
            # has not yet reported.  Stop supervising it (it stays open
            # at the coordinator: no bin merges without it) and let the
            # loop drain the survivors up to its high-water bin first.
            fatal = fatal or RuntimeError(
                f"shard {shard_id} failed after {attempt[shard_id] + 1} "
                f"attempt(s): {reason}"
            )
            drain_to = min(drain_to, coordinator.resume_bin(shard_id))
            open_shards.discard(shard_id)
            return
        degraded = True
        record = health[shard_id]
        record.status = "failed"
        record.gap_bins = list(range(coordinator.resume_bin(shard_id), n_bins))
        emit(coordinator.close_shard(shard_id))
        open_shards.discard(shard_id)

    def fault(shard_id: int, reason: str) -> None:
        nonlocal total_restarts
        tel.count("resilience.faults")
        record = health[shard_id]
        record.record_fault(reason)
        link.discard(shard_id)
        if attempt[shard_id] >= policy.max_retries:
            exhaust(shard_id, reason)
            return
        attempt[shard_id] += 1
        record.attempts += 1
        record.restarts += 1
        record.status = "restarting"
        total_restarts += 1
        tel.count("resilience.restarts")
        coordinator.reopen_shard(shard_id)
        restart_due[shard_id] = (
            time.perf_counter() + policy.backoff(attempt[shard_id])
        )

    def handle(message) -> None:
        kind, shard_id, msg_attempt = message[0], message[1], message[2]
        if shard_id not in open_shards or msg_attempt != attempt[shard_id]:
            return  # straggler from a terminated attempt
        last_progress[shard_id] = time.perf_counter()
        if kind == "summary":
            payload, heartbeat = message[3], message[4]
            tel.count("cluster.bytes_shipped", len(payload))
            tel.count(f"cluster.link{shard_id}.bytes", len(payload))
            try:
                with tel.span("stage.merge"):
                    verdicts = coordinator.add_serialized(shard_id, payload)
            except SummaryCorruptError as exc:
                tel.count("resilience.corrupt_summaries")
                fault(shard_id, f"corrupt summary payload: {exc}")
                return
            if session is not None:
                tel.gauge_max("cluster.straggler_lag_bins",
                              coordinator.straggler_lag)
                tel.gauge_max("cluster.pending_bins",
                              coordinator.n_pending_bins)
                if heartbeat:
                    tel.gauge_max(f"cluster.shard{shard_id}.rss_bytes",
                                  heartbeat.get("rss_bytes", 0))
            emit(verdicts)
        elif kind == "close":
            n_records, late_records, snapshot = message[3], message[4], message[5]
            record = health[shard_id]
            record.status = "closed"
            if isinstance(n_records, dict):
                # An aggregator reports per-child counts keyed by the
                # children's global shard ids.
                for child_id, child_records in n_records.items():
                    shard_records[int(child_id)] = int(child_records)
                record.n_records = int(sum(n_records.values()))
            else:
                shard_records[shard_id] = n_records
                record.n_records = n_records
            coordinator.record_late(late_records)
            with tel.span("stage.merge"):
                verdicts = coordinator.close_shard(shard_id)
            open_shards.discard(shard_id)
            if session is not None:
                session.add_shard(shard_id, snapshot)
            emit(verdicts)
        else:  # "error": the worker raised — retryable like any fault
            fault(shard_id, f"worker exception:\n{message[3]}")

    def check_deadlines(now: float) -> None:
        if policy.bin_deadline_s is None:
            return
        for shard_id in sorted(open_shards):
            if shard_id in restart_due:
                continue  # awaiting restart (or already resolved)
            # Note this covers remote TCP shards too: a worker that
            # never connects or silently dies misses the deadline the
            # same way a stalled local one does.
            stalled = now - last_progress.get(shard_id, now)
            if stalled > policy.bin_deadline_s:
                fault(
                    shard_id,
                    f"no summary within the bin deadline "
                    f"({policy.bin_deadline_s:.1f}s)",
                )

    try:
        for shard_id in range(n_units):
            spawn(shard_id)
        while open_shards:
            now = time.perf_counter()
            expired = (
                policy.run_deadline_s is not None
                and now - start > policy.run_deadline_s
            )
            if fatal is not None and (expired or coordinator.next_bin >= drain_to):
                break
            if expired:
                if not policy.degrade:
                    raise RuntimeError(
                        f"cluster run exceeded its deadline "
                        f"({policy.run_deadline_s:.1f}s) with shards "
                        f"{sorted(open_shards)} unfinished"
                    )
                degraded = True
                restart_due.clear()
                for shard_id in sorted(open_shards):
                    record = health[shard_id]
                    record.record_fault("run deadline exceeded")
                    record.status = "failed"
                    record.gap_bins = list(
                        range(coordinator.resume_bin(shard_id), n_bins)
                    )
                    link.discard(shard_id)
                    emit(coordinator.close_shard(shard_id))
                open_shards.clear()
                break
            for shard_id in [s for s, due in restart_due.items() if now >= due]:
                del restart_due[shard_id]
                spawn(shard_id)
            timeout = 1.0
            if restart_due:
                timeout = min(
                    timeout, max(0.001, min(restart_due.values()) - now)
                )
            if policy.bin_deadline_s is not None:
                timeout = min(timeout, max(0.01, policy.bin_deadline_s / 4))
            if policy.run_deadline_s is not None:
                remaining = policy.run_deadline_s - (now - start)
                timeout = min(timeout, max(0.001, remaining))
            with tel.span("stage.wait"):
                messages = link.poll(timeout)
            for message in messages:
                kind = message[0]
                if kind == "eof":
                    # The link died and — both transports deliver in
                    # order ahead of EOF — everything the worker sent
                    # has already been handled.  A unit still open at
                    # its EOF really did die early.
                    unit_id, code = message[1], message[2]
                    if unit_id in open_shards and unit_id not in restart_due:
                        fault(
                            unit_id,
                            f"worker died with exit code {code} "
                            f"before closing its stream",
                        )
                elif kind == "frame_error":
                    # Garbage on a TCP link: same supervised path as a
                    # corrupt summary payload.
                    unit_id = message[1]
                    if unit_id in open_shards and unit_id not in restart_due:
                        tel.count("resilience.corrupt_summaries")
                        fault(unit_id, f"undecodable frame: {message[2]}")
                else:
                    handle(message)
            check_deadlines(time.perf_counter())
        if fatal is not None:
            raise fatal
        if degraded:
            # If every shard died early the tail bins have no
            # deliveries left to trigger the coordinator's gap path;
            # pad so the report still covers the whole grid.
            emit(coordinator.pad_to(n_bins))
        link.drain()
    finally:
        link.shutdown()
        if writer is not None:
            writer.close()
    if degraded or total_restarts:
        engine.meta["degraded"] = degraded
        engine.meta["shard_health"] = {
            str(s): health[s].to_meta() for s in range(n_units)
        }
    if preloaded_bins:
        engine.meta["resumed_bins"] = preloaded_bins
    report = coordinator.finish()
    elapsed = time.perf_counter() - start
    return ClusterResult(
        report=report,
        n_shards=n_shards,
        n_records=report.n_records,
        elapsed=elapsed,
        shard_records=shard_records,
        degraded=degraded,
        restarts=total_restarts,
        preloaded_bins=preloaded_bins,
    )


def run_cluster(
    network: str = "abilene",
    n_bins: int = 72,
    seed: int = 0,
    n_shards: int = 2,
    config: StreamConfig | None = None,
    max_records_per_od: int = 400,
    start_method: str | None = None,
    on_detection: Callable[[StreamDetection], None] | None = None,
    trace_path: str | Path | None = None,
    resilience: ResiliencePolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    chaos: FaultPlan | str | None = None,
    transport: str = "pipe",
    listen: str | tuple[str, int] | None = None,
    tiers: str | tuple[int, int] | None = None,
) -> ClusterResult:
    """Run the sharded pipeline on a synthetic or recorded trace.

    Thin wrapper over :func:`run_cluster_source` preserving the
    original argument surface: it builds a
    :class:`repro.pipeline.sources.TraceSource` when ``trace_path`` is
    given (the engine and every shard monitor adopt the trace's
    recorded grid — re-binning a trace onto a different grid would
    silently change every per-bin feature) and a
    :class:`SyntheticSource` otherwise.

    Args:
        network: ``"abilene"`` or ``"geant"``.
        n_bins: Bins to stream (warm-up included).  With a trace this
            must not exceed the bins the trace covers; pass
            ``trace_info(path).n_bins`` to stream all of it.
        seed: Master seed (generator and record draws; unused when
            replaying a trace).
        n_shards: Worker process count (>= 1).
        config: Engine knobs; ``exact_histograms``, sketch geometry and
            ``chunk_records`` also shape the shard monitors.
        max_records_per_od: Records materialised per (OD flow, bin)
            (inline synthesis only).
        start_method: ``multiprocessing`` start method.
        on_detection: Callback invoked with each verdict as bins close.
        trace_path: Optional recorded trace (:mod:`repro.io.trace`)
            every worker memory-maps.  Its network must match
            ``network``.
        resilience: Supervision policy (see :func:`run_cluster_source`).
        checkpoint: Closed-bin spill path for crash recovery.
        resume: Replay ``checkpoint`` before starting workers.
        chaos: Deterministic fault plan or its spec string.
        transport: ``"pipe"`` or ``"tcp"`` (see
            :func:`run_cluster_source`).
        listen: ``HOST:PORT`` to await external ``repro worker``
            processes (TCP only).
        tiers: Aggregator layout ``"AxB"``; overrides ``n_shards``.

    Returns:
        A :class:`ClusterResult` with the merged report and throughput.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if trace_path is not None:
        source: RecordSource = TraceSource(
            trace_path, network=network, n_bins=n_bins
        )
    else:
        source = SyntheticSource(
            network=network,
            n_bins=n_bins,
            seed=seed,
            max_records_per_od=max_records_per_od,
        )
    return run_cluster_source(
        source,
        n_shards=n_shards,
        config=config,
        start_method=start_method,
        on_detection=on_detection,
        resilience=resilience,
        checkpoint=checkpoint,
        resume=resume,
        chaos=chaos,
        transport=transport,
        listen=listen,
        tiers=tiers,
    )
