"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows a network operator (or a reader of the
paper) actually runs:

* ``generate`` — synthesise a (labeled) traffic cube and save it;
* ``detect``   — diagnose a saved or freshly generated cube, print the
  summary, optionally export CSV/JSON;
* ``inject``   — inject a chosen anomaly into a clean cube and report
  whether volume/entropy detectors catch it;
* ``run``      — the one record-level run command: a registered
  end-to-end scenario (``repro.scenarios``; ``baseline-diurnal`` is
  plain background traffic) through the composable detection pipeline
  in any deployment mode — ``--mode stream`` is the online pipeline of
  paper Section 8, ``--mode cluster`` the sharded deployment (worker
  processes finish their OD flows into per-bin entropy and volume
  rows and ship them over one framed link each; a central
  coordinator scatters and scores them) — from inline synthesis or a
  recorded ``--trace``;
* ``worker``   — serve shard work to a ``run --mode cluster --listen``
  coordinator on another host (without ``--listen`` the coordinator
  spawns its workers locally and listens nowhere);
* ``scenarios`` — inspect the scenario registry (``list``);
* ``trace``    — record and replay columnar flow-record traces:
  ``write`` records a scenario's stream into a single binary file
  (with its derived detection columns), ``info`` prints its header,
  ``replay`` streams it through the detection engine;
* ``quality``  — the detection-quality harness (``repro.quality``):
  ``run`` scores every registered scenario plus a fuzzed fleet against
  ground truth (precision/recall/F1/latency per detection channel,
  optionally the intensity × sketch × sampling grid), ``fuzz``
  generates seeded random workloads and cross-checks that every
  deployment mode produces identical detections on them;
* ``experiment`` — run one entry of ``repro.experiments.EXPERIMENTS``
  by name (``fig1``..``fig10``, ``table2``..``table8``,
  ``anonymization`` and the extensions ``ablations``,
  ``baseline_comparison``, ``ablation_metrics``) and print its
  paper-style report.

Every command exits 0 on success; invalid input (bad arguments, missing
files, malformed cubes) exits 2 with a one-line error on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.experiments import EXPERIMENTS

__all__ = ["main", "build_parser"]


def _version() -> str:
    """Package version.

    The package's own ``__version__`` wins: the documented run mode is
    uninstalled (``PYTHONPATH=src``), and installed-distribution
    metadata can belong to a bare/legacy install (or an unrelated
    distribution that happens to be named ``repro``).  Metadata is the
    fallback only if the attribute ever disappears.
    """
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - __version__ is defined
        from importlib.metadata import version

        return version("repro")


def _parent(*adders) -> argparse.ArgumentParser:
    """A help-less parser composed of shared argument groups."""
    parser = argparse.ArgumentParser(add_help=False)
    for add in adders:
        add(parser)
    return parser


def _add_network(parser) -> None:
    parser.add_argument("--network", choices=("abilene", "geant"),
                        default="abilene")


def _add_scenario_source(parser) -> None:
    """The one synthesiser's options, shared by ``run`` and ``trace write``."""
    parser.add_argument("scenario", help="registered scenario name "
                        "(see `repro scenarios list`)")
    parser.add_argument("--network", choices=("abilene", "geant"), default=None,
                        help="override the scenario's network")
    parser.add_argument("--bins", type=int, default=None,
                        help="override the scenario's total bin count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-records", type=int, default=None,
                        help="override the scenario's per-(OD, bin) record cap")


def _add_warmup(parser) -> None:
    parser.add_argument("--warmup-bins", type=int, default=48,
                        help="bins accumulated from the stream before fitting")


def _add_engine(parser) -> None:
    parser.add_argument("--chunk-records", type=int, default=8192,
                        help="ingestion chunk size (memory bound)")
    parser.add_argument("--sketch-width", type=int, default=2048)
    parser.add_argument("--exact", action="store_true",
                        help="exact histograms instead of Count-Min sketches")
    parser.add_argument("--refit-every", type=int, default=12,
                        help="clean bins between model refits (0 freezes)")
    parser.add_argument("--alpha", type=float, default=0.999)
    parser.add_argument("--components", type=int, default=10)
    parser.add_argument("--json", help="export the diagnosis-report JSON here")


def _add_cluster_knobs(parser) -> None:
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes (each owns an OD-flow slice)")
    parser.add_argument("--listen", metavar="HOST:PORT",
                        help="bind here and wait for external "
                        "`repro worker --connect` processes instead of "
                        "spawning local ones (trusted networks only)")


def _add_resilience(parser) -> None:
    group = parser.add_argument_group(
        "resilience", "worker supervision, checkpointing, fault injection "
        "(cluster mode)"
    )
    group.add_argument("--max-retries", type=int, default=None,
                       help="restarts allowed per shard before giving up "
                       "(default 2)")
    group.add_argument("--backoff", type=float, default=None, metavar="SECS",
                       help="initial restart backoff, doubled per retry "
                       "(default 0.1)")
    group.add_argument("--bin-deadline", type=float, default=None,
                       metavar="SECS",
                       help="per-shard progress deadline; a shard silent this "
                       "long is treated as failed")
    group.add_argument("--run-deadline", type=float, default=None,
                       metavar="SECS",
                       help="wall-clock deadline for the whole run")
    group.add_argument("--on-fault", choices=("strict", "degrade"),
                       default=None,
                       help="after retries are exhausted: abort the run "
                       "(strict, default) or complete with the dead shard's "
                       "bins as gaps and the report flagged degraded")
    group.add_argument("--checkpoint", metavar="PATH",
                       help="spill every merged bin to this file as it closes")
    group.add_argument("--resume", action="store_true",
                       help="replay --checkpoint before spawning workers")
    group.add_argument("--chaos", metavar="SPEC",
                       help="deterministic fault injection, e.g. "
                       "'kill:shard=1,bin=9' or 'seeded:seed=7,count=2' "
                       "(kinds: kill, stall, corrupt, exit-after-close)")


def _add_telemetry(parser) -> None:
    parser.add_argument("--telemetry", metavar="PATH",
                        help="record per-stage spans/counters/resources and "
                        "export them as JSONL here (see `repro stats`)")
    parser.add_argument("--progress", action="store_true",
                        help="bins/s + ETA line on stderr (stdout untouched)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing).

    Option groups shared by several commands (the scenario source of
    ``run`` and ``trace write``, the engine knobs of ``run`` and ``trace
    replay``, telemetry) are defined once in parent parsers rather than
    copied per subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Mining Anomalies Using Traffic Feature Distributions'",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net_parent = _parent(_add_network)
    scenario_parent = _parent(_add_scenario_source)

    gen = sub.add_parser("generate", help="synthesise a traffic cube",
                         parents=[net_parent])
    gen.add_argument("--weeks", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--clean", action="store_true", help="no anomaly schedule")
    gen.add_argument("--output", required=True, help="output .npz path")

    det = sub.add_parser("detect", help="diagnose a cube", parents=[net_parent])
    det.add_argument("--cube", help=".npz cube (omit to generate a labeled one)")
    det.add_argument("--weeks", type=float, default=1.0)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--alpha", type=float, default=0.999)
    det.add_argument("--clusters", type=int, default=10)
    det.add_argument("--csv", help="export per-anomaly CSV here")
    det.add_argument("--json", help="export JSON summary here")

    inj = sub.add_parser("inject", help="inject one anomaly and score it")
    inj.add_argument(
        "--type",
        choices=("alpha", "dos", "ddos", "flash_crowd", "port_scan", "network_scan",
                 "worm", "point_multipoint"),
        default="worm",
    )
    inj.add_argument("--pps", type=float, default=141.0)
    inj.add_argument("--od", type=int, default=5)
    inj.add_argument("--bin", type=int, default=400, dest="target_bin")
    inj.add_argument("--thin", type=int, default=1)
    inj.add_argument("--days", type=float, default=3.0)
    inj.add_argument("--seed", type=int, default=7)
    inj.add_argument("--alpha", type=float, default=0.999)

    worker = sub.add_parser(
        "worker",
        help="serve shard work to a remote `repro run --listen` coordinator",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address announced by "
                        "`repro run --mode cluster --listen`")
    worker.add_argument("--once", action="store_true",
                        help="exit after serving one shard assignment "
                        "(default: reconnect and serve until the "
                        "coordinator goes away)")

    run = sub.add_parser(
        "run", help="run a registered scenario in any deployment mode",
        parents=[scenario_parent, _parent(_add_engine, _add_telemetry)],
    )
    run.add_argument("--mode", choices=("batch", "stream", "cluster"),
                     default="stream", help="deployment mode (default: stream)")
    run.add_argument("--trace", help="replay the scenario from this recorded "
                     "trace (`repro trace write`) instead of generating "
                     "records inline")
    run.add_argument("--warmup-bins", type=int, default=None,
                     help="override the scenario's warm-up split")
    _add_cluster_knobs(run)
    _add_resilience(run)

    scen = sub.add_parser("scenarios", help="inspect the scenario registry")
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)
    scen_list = scen_sub.add_parser("list", help="list registered scenarios")
    scen_list.add_argument("--names", action="store_true",
                           help="print bare names only (for scripting)")

    trace = sub.add_parser(
        "trace", help="record and replay columnar flow-record traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tw = trace_sub.add_parser(
        "write", help="record a scenario's stream into a columnar file",
        parents=[scenario_parent],
    )
    tw.add_argument("--output", required=True, help="output trace path")

    ti = trace_sub.add_parser("info", help="print a trace file's header")
    ti.add_argument("path")
    ti.add_argument("--verify", action="store_true",
                    help="recompute per-column checksums against the header "
                    "(nonzero exit on mismatch)")
    ti.add_argument("--allow-partial", action="store_true",
                    help="recover the complete leading bins of a truncated "
                    "trace instead of failing")

    tr = trace_sub.add_parser(
        "replay", help="replay a trace through the streaming engine "
        "(exact runs detect straight off its derived columns)",
        parents=[_parent(_add_warmup, _add_engine, _add_telemetry)],
    )
    tr.add_argument("path")
    tr.add_argument("--allow-partial", action="store_true",
                    help="replay the complete leading bins of a truncated "
                    "trace instead of failing")

    quality = sub.add_parser(
        "quality", help="detection-quality harness: labeled scoring and fuzzing"
    )
    quality_sub = quality.add_subparsers(dest="quality_command", required=True)

    qr = quality_sub.add_parser(
        "run", help="score registered + fuzzed scenarios against ground truth"
    )
    qr.add_argument("--seed", type=int, default=7,
                    help="quality seed (default matches the committed baseline)")
    qr.add_argument("--fuzz", type=int, default=10,
                    help="fuzzed workloads scored alongside the registered set")
    qr.add_argument("--mode", choices=("batch", "stream", "cluster"),
                    default="stream", help="deployment mode (default: stream)")
    qr.add_argument("--tolerance", type=int, default=1,
                    help="bin slack of the detection-to-event matching window")
    qr.add_argument("--grid", action="store_true",
                    help="also sweep the intensity x sketch x sampling grid")
    qr.add_argument("--json", help="export the quality payload JSON here")

    qf = quality_sub.add_parser(
        "fuzz", help="fuzz seeded workloads and cross-check mode parity"
    )
    qf.add_argument("--n", type=int, default=10, help="workloads to fuzz")
    qf.add_argument("--seed", type=int, default=0)
    qf.add_argument("--modes", default="batch,stream,cluster",
                    help="comma-separated deployment modes to cross-check")
    qf.add_argument("--intensity", type=float, default=1.0,
                    help="intensity multiplier on every fuzzed event")
    qf.add_argument("--sampling", type=int, default=1,
                    help="1-in-N trace thinning applied to fuzzed events")
    qf.add_argument("--shards", type=int, default=2,
                    help="cluster-mode worker count")
    qf.add_argument("--json", help="export per-workload scores + parity here")

    stats = sub.add_parser(
        "stats", help="render a telemetry JSONL export as per-stage tables"
    )
    stats.add_argument("path", help="JSONL file written by --telemetry")
    stats.add_argument("--prometheus", action="store_true",
                       help="print a Prometheus text exposition instead")

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    return parser


def _cmd_generate(args) -> int:
    from repro.datasets.labeled import abilene_dataset, geant_dataset
    from repro.flows.binning import TimeBins
    from repro.io import save_cube
    from repro.net.topology import abilene, geant
    from repro.traffic.generator import TrafficGenerator

    if args.clean:
        topo = abilene() if args.network == "abilene" else geant()
        cube = TrafficGenerator(
            topo, TimeBins.for_weeks(args.weeks), seed=args.seed
        ).generate()
    else:
        maker = abilene_dataset if args.network == "abilene" else geant_dataset
        cube = maker(weeks=args.weeks, seed=args.seed).cube
    path = save_cube(cube, args.output)
    print(f"saved {cube.network} cube ({cube.n_bins} bins x {cube.n_od_flows} ODs) to {path}")
    return 0


def _cmd_detect(args) -> int:
    from repro.core.detector import AnomalyDiagnosis
    from repro.io import load_cube, write_report_csv, write_report_json

    labels = None
    if args.cube:
        cube = load_cube(args.cube)
    else:
        from repro.datasets.labeled import abilene_dataset, geant_dataset

        maker = abilene_dataset if args.network == "abilene" else geant_dataset
        data = maker(weeks=args.weeks, seed=args.seed)
        cube = data.cube
        labels = data.labels_by_bin
    diag = AnomalyDiagnosis(alpha=args.alpha, n_clusters=args.clusters)
    report = diag.diagnose(cube, labels_by_bin=labels)
    counts = report.counts()
    print(
        f"detections: total={counts['total']} volume_only={counts['volume_only']} "
        f"entropy_only={counts['entropy_only']} both={counts['both']}"
    )
    for summary in report.clusters:
        line = f"cluster size={summary.size:<5} signature={''.join(summary.signature)}"
        if summary.plurality_label:
            line += f" plurality={summary.plurality_label}"
        print(line)
    if args.csv:
        print(f"wrote {write_report_csv(report, args.csv)}")
    if args.json:
        print(f"wrote {write_report_json(report, args.json)}")
    return 0


def _cmd_inject(args) -> int:
    from repro.anomalies.builders import BUILDERS
    from repro.anomalies.injector import InjectionScorer
    from repro.flows.binning import TimeBins
    from repro.net.topology import abilene
    from repro.traffic.generator import TrafficGenerator

    generator = TrafficGenerator(
        abilene(), TimeBins.for_days(args.days), seed=args.seed
    )
    cube = generator.generate()
    scorer = InjectionScorer(cube, generator, alphas=(args.alpha,))
    trace = BUILDERS[args.type](np.random.default_rng(args.seed), pps=args.pps)
    if args.thin > 1:
        trace = trace.thin(args.thin)
    target_bin = min(args.target_bin, cube.n_bins - 1)
    out = scorer.score(target_bin, [(args.od, trace)], alpha=args.alpha)
    share = 100 * trace.pps / (trace.pps + cube.mean_od_pps())
    print(
        f"{args.type} at {trace.pps:.4g} pps ({share:.3g}% of the mean OD flow) "
        f"into OD {args.od}, bin {target_bin}:"
    )
    print(f"  volume detection:  {out.detected_volume}")
    print(f"  entropy detection: {out.detected_entropy}")
    return 0


def _print_verdict(topo, verdict) -> None:
    """One detection line, shared by ``run`` and ``trace replay``."""
    if not verdict.detected:
        return
    kind = "+".join(
        k for k, hit in (
            ("entropy", verdict.detected_by_entropy),
            ("volume", verdict.detected_by_volume),
        ) if hit
    )
    od = verdict.primary_od
    where = topo.od_name(od) if od is not None else "unidentified"
    print(
        f"  bin {verdict.bin}: {kind} detection "
        f"(spe={verdict.spe_entropy:.3g}) flow={where} "
        f"cluster={verdict.cluster}"
    )


def _print_cluster_health(result) -> None:
    """Supervision outcome of a cluster run (silent on a clean run)."""
    if not (result.degraded or result.restarts):
        return
    meta = result.report.meta
    state = "DEGRADED" if result.degraded else "recovered"
    print(f"resilience: {state} ({result.restarts} restart(s))")
    for shard, health in sorted(meta.get("shard_health", {}).items()):
        line = f"  shard {shard}: {health['status']}"
        if health.get("restarts"):
            line += f", {health['restarts']} restart(s)"
        if health.get("gap_bins"):
            runs = ", ".join(
                f"{lo}-{hi}" if lo != hi else str(lo)
                for lo, hi in health["gap_bins"]
            )
            line += f", gap bins {runs}"
        if health.get("faults"):
            line += f" ({health['faults'][-1]})"
        print(line)


def _print_report(args, report, labels_by_bin=None) -> None:
    """Table-2 style detection counts of a streaming report, plus its
    diagnosis JSON when ``--json`` asks."""
    counts = report.counts()
    print(
        f"detections: total={counts['total']} volume_only={counts['volume_only']} "
        f"entropy_only={counts['entropy_only']} both={counts['both']} "
        f"clusters={report.classifier.n_clusters}"
    )
    if args.json:
        from repro.io import write_report_json

        diagnosis = report.to_diagnosis_report(labels_by_bin=labels_by_bin)
        print(f"wrote {write_report_json(diagnosis, args.json)}")


def _histograms(args) -> str:
    """How a run reduces records, for the banner line."""
    return "exact histograms" if args.exact else f"CM sketches (w={args.sketch_width})"


def _stream_config(args):
    """The StreamConfig shared by ``run`` and ``trace replay``."""
    from repro.stream import StreamConfig

    return StreamConfig(
        warmup_bins=args.warmup_bins,
        refit_every=args.refit_every,
        n_components=args.components,
        alpha=args.alpha,
        sketch_width=args.sketch_width,
        exact_histograms=args.exact,
        chunk_records=args.chunk_records,
    )


def _resilience_policy(args):
    """A ResiliencePolicy when any supervision flag was given, else None.

    ``None`` lets the runner use its defaults and lets the pipeline
    reject cluster-only flags in in-process modes with a clear error.
    """
    knobs = {
        "max_retries": args.max_retries,
        "backoff_s": args.backoff,
        "bin_deadline_s": args.bin_deadline,
        "run_deadline_s": args.run_deadline,
        "on_exhaustion": args.on_fault,
    }
    given = {k: v for k, v in knobs.items() if v is not None}
    if not given:
        return None
    from repro.resilience import ResiliencePolicy

    return ResiliencePolicy(**given)


def _telemetry_begin(args, total_bins=None):
    """Session + progress meter when ``--telemetry``/``--progress`` ask.

    Returns ``(session, meter)`` — both None when telemetry is off, so
    callers pay nothing on the default path.
    """
    if not (args.telemetry or args.progress):
        return None, None
    from repro import telemetry
    from repro.telemetry.progress import ProgressMeter

    session = telemetry.enable()
    meter = None
    if args.progress:
        meter = ProgressMeter(total_bins=total_bins).start()
    return session, meter


def _telemetry_end(args, session, meter, run_info=None) -> None:
    """Export (when ``--telemetry PATH``) and tear the session down."""
    if meter is not None:
        meter.close()
    if session is None:
        return
    from repro import telemetry
    from repro.telemetry.export import write_jsonl

    try:
        if args.telemetry:
            path = write_jsonl(args.telemetry, session.snapshot(), run_info)
            print(f"wrote {path}")
    finally:
        telemetry.disable()


def _scenario_source(args):
    """The ScenarioSource the scenario-source options describe."""
    from repro.pipeline import ScenarioSource

    return ScenarioSource(
        args.scenario,
        network=args.network,
        n_bins=args.bins,
        seed=args.seed,
        max_records_per_od=args.max_records,
    )


def _cmd_worker(args) -> int:
    from repro.cluster.transport import parse_hostport, serve

    host, port = parse_hostport(args.connect)
    print(f"connecting to coordinator at {host}:{port}"
          + (" (single shard)" if args.once else ""))
    served = serve((host, port), once=args.once)
    print(f"served {served} shard assignment(s)")
    return 0


def _cmd_run(args) -> int:
    """``repro run``: one scenario, synthesised inline or replayed from
    ``--trace``, scored in any deployment mode."""
    from repro.pipeline import DetectionPipeline, TraceSource
    from repro.scenarios import get_scenario

    labels_by_bin = None
    if args.trace:
        scenario = get_scenario(args.scenario)
        source = TraceSource(args.trace, network=args.network, n_bins=args.bins)
        recorded = source.info.meta.get("scenario")
        if recorded is not None and recorded != scenario.name:
            raise ValueError(
                f"trace {args.trace} records scenario {recorded!r}, "
                f"not {scenario.name!r}"
            )
        if recorded is not None and "seed" in source.info.meta:
            # The header carries everything the schedule is a function
            # of, so replayed reports keep their ground-truth labels.
            events = scenario.events_for(
                source.topology,
                n_bins=source.info.n_bins,
                seed=int(source.info.meta["seed"]),
            )
            labels_by_bin = {e.bin: e.label for e in events}
        origin = f"trace {args.trace}"
    else:
        source = _scenario_source(args)
        scenario = source.scenario
        labels_by_bin = source.labels_by_bin()
        origin = "inline synthesis"

    n_bins = source.spec.n_bins
    warmup = args.warmup_bins
    if warmup is None:
        # Same proportional rule the schedule builder applies, so the
        # scenario's events always land in the scored window.
        warmup = scenario.scaled_warmup(n_bins)
    warmup = max(1, min(warmup, n_bins - 1))
    args.warmup_bins = warmup  # _stream_config reads it

    topo = source.topology
    # The telemetry export's run record; a cluster run adds its shard
    # count before it starts, so a run that raises keeps it too.
    run_info = {"command": "run", "scenario": scenario.name, "mode": args.mode,
                "network": topo.name}
    deployment = ""
    if args.mode == "cluster":
        run_info["n_shards"] = args.shards
        deployment = f", {args.shards} shards"
    print(
        f"scenario {scenario.name} [{args.mode}] on {topo.name}: "
        f"{n_bins} bins x {topo.n_od_flows} OD flows{deployment}, "
        f"{_histograms(args)}, warm-up {warmup} bins, source: {origin}"
    )
    if args.mode == "cluster" and args.listen:
        print(f"awaiting workers on {args.listen} "
              f"(start them with: repro worker --connect HOST:PORT)")

    session, meter = _telemetry_begin(args, total_bins=n_bins)
    try:
        result = DetectionPipeline(_stream_config(args)).run(
            source,
            mode=args.mode,
            on_detection=lambda verdict: _print_verdict(topo, verdict),
            meta={"scenario": scenario.name},
            n_shards=args.shards,
            resilience=_resilience_policy(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
            chaos=args.chaos,
            listen=args.listen,
        )
        run_info.update({"n_records": result.n_records,
                         "elapsed_s": result.elapsed})
    finally:
        _telemetry_end(args, session, meter, run_info)
    report = result.report
    print(
        f"processed {result.n_records} records -> {report.n_bins_scored} "
        f"scored bins in {result.elapsed:.2f}s "
        f"({result.records_per_sec:,.0f} records/s)"
    )
    if result.shard_records:
        balance = ", ".join(
            f"shard {s}: {n}" for s, n in sorted(result.shard_records.items())
        )
        print(f"shard load: {balance}")
    _print_cluster_health(result)
    _print_report(args, report, labels_by_bin)
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenarios import SCENARIOS, scenario_names

    if args.names:
        for name in scenario_names():
            print(name)
        return 0
    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        scenario = SCENARIOS[name]
        print(
            f"{name:<{width}}  {scenario.network}, {scenario.n_bins} bins "
            f"(warm-up {scenario.warmup_bins}) — {scenario.description}"
        )
    return 0


def _cmd_trace(args) -> int:
    import time

    if args.trace_command == "write":
        source = _scenario_source(args)
        start = time.perf_counter()
        info = source.write_trace(args.output)
        elapsed = time.perf_counter() - start
        rate = info.n_records / elapsed if elapsed > 0 else float("inf")
        size_mb = info.path.stat().st_size / 1e6
        print(
            f"wrote scenario {source.scenario.name}: {info.n_records} records "
            f"({info.n_bins} bins x {source.topology.n_od_flows} OD flows, "
            f"{size_mb:.1f} MB) to "
            f"{info.path} in {elapsed:.2f}s ({rate:,.0f} records/s)"
        )
        return 0

    if args.trace_command == "info":
        from repro.io.trace import trace_info, verify_trace
        from repro.traffic.generator import SYNTHESIS_SCHEME

        info = trace_info(args.path, allow_partial=args.allow_partial)
        size_mb = info.path.stat().st_size / 1e6
        print(f"{info.path}: {size_mb:.1f} MB")
        print(f"  records : {info.n_records}")
        if info.truncated:
            print(f"  TRUNCATED: header declares {info.declared_records} "
                  f"records; {info.dropped_records} dropped, "
                  f"{info.n_bins} complete bins recovered")
        print(f"  bins    : {info.n_bins} x {info.bins.width:.0f}s "
              f"(start {info.bins.start:.0f})")
        print(f"  network : {info.network or 'unknown'}")
        lost = ", lost to the truncation" if info.truncated else ""
        print(f"  version : {info.version} (+{len(info.derived['columns'])} "
              f"derived detection columns{lost})")
        stale = ("" if info.synthesis == SYNTHESIS_SCHEME else
                 f" (this build synthesises scheme {SYNTHESIS_SCHEME}: the stored "
                 f"records replay unchanged, but the seeds in meta no longer "
                 f"regenerate them)")
        print(f"  synthesis: scheme {info.synthesis}{stale}")
        counts = info.bin_counts
        print(f"  per bin : min {int(counts.min())}, "
              f"median {int(np.median(counts))}, max {int(counts.max())}")
        for key in sorted(info.meta):
            print(f"  meta.{key}: {info.meta[key]}")
        if args.verify:
            results = verify_trace(args.path)
            bad = sorted(k for k, v in results.items() if not v["ok"])
            for name in sorted(results):
                r = results[name]
                status = "ok" if r["ok"] else (
                    f"MISMATCH (stored {r['stored']:#010x}, "
                    f"computed {r['computed']:#010x})"
                )
                print(f"  crc.{name}: {status}")
            if bad:
                print(f"verification FAILED: {', '.join(bad)}")
                return 1
            print("verification passed: all column checksums match")
        return 0

    # replay
    from repro import telemetry as tel
    from repro.io.trace import TraceReader
    from repro.net.topology import topology_by_name
    from repro.stream import StreamingDetectionEngine

    with TraceReader(args.path, allow_partial=args.allow_partial) as reader:
        topo = topology_by_name(reader.network)
        # Replay adopts the trace's own bin grid (recorded in the header).
        engine = StreamingDetectionEngine(
            topo, _stream_config(args),
            bin_width=reader.bins.width, start=reader.bins.start,
        )
        # Exact runs detect straight off the stored columns; sketch runs and
        # truncated tails (which lose them) replay the records.
        precomputed = args.exact and not reader.info.truncated
        print(
            f"replaying {reader.path} ({reader.n_records} records, "
            f"{reader.n_bins} bins, {topo.name}): "
            f"{'precomputed columns' if precomputed else _histograms(args)}, "
            f"warm-up {args.warmup_bins} bins"
        )
        if reader.info.truncated:
            print(
                f"  trace is truncated: replaying {reader.n_bins} complete bins "
                f"({reader.info.dropped_records} trailing records dropped)"
            )
        session, meter = _telemetry_begin(args, total_bins=reader.n_bins)
        run_info = {"command": "trace replay", "mode": "stream",
                    "network": topo.name, "trace": str(reader.path)}
        try:
            start = time.perf_counter()
            if precomputed:
                report = engine.process_precomputed(reader)
            else:
                chunks = reader.iter_chunks(args.chunk_records)
                report = engine.process(tel.timed_iter(chunks, "stage.source"))
            elapsed = time.perf_counter() - start
            run_info.update(n_records=report.n_records, elapsed_s=elapsed)
        finally:
            _telemetry_end(args, session, meter, run_info)
    for verdict in report.detections:
        _print_verdict(topo, verdict)
    rate = report.n_records / elapsed if elapsed > 0 else float("inf")
    print(
        f"replayed {report.n_records} records -> {report.n_bins_scored} "
        f"scored bins in {elapsed:.2f}s ({rate:,.0f} records/s)"
    )
    _print_report(args, report)
    return 0


def _cmd_quality(args) -> int:
    import json

    if args.quality_command == "run":
        from repro.quality import quality_payload

        if args.fuzz < 0:
            raise ValueError("--fuzz must be non-negative")
        payload = quality_payload(
            seed=args.seed,
            n_fuzzed=args.fuzz,
            mode=args.mode,
            tolerance_bins=args.tolerance,
            with_grid=args.grid,
        )
        shape = payload["shape"]
        print(
            f"quality [{args.mode}] seed {args.seed}: "
            f"{len(payload['scenarios'])} scenarios on {shape['n_bins']} bins "
            f"(warm-up {shape['warmup_bins']}, ±{args.tolerance} bin matching)"
        )
        for name, entry in payload["scenarios"].items():
            ch = entry["channels"]["any"]
            latency = ch["latency_bins"]
            print(
                f"  {name:<18} {entry['events']} events: "
                f"P {ch['precision']:.2f} R {ch['recall']:.2f} "
                f"F1 {ch['f1']:.2f} "
                f"latency {'-' if latency is None else f'{latency:.1f}'} "
                f"(entropy R {entry['channels']['entropy']['recall']:.2f})"
            )
        for cell in payload.get("grid", []):
            ch = cell["channels"]["any"]
            print(
                f"  grid x{cell['intensity_scale']:<4} "
                f"w={cell['sketch_width']:<5} 1/{cell['sampling_rate']:<4} "
                f"P {ch['precision']:.2f} R {ch['recall']:.2f}"
            )
        if args.json:
            from pathlib import Path

            path = Path(args.json)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
        return 0

    # fuzz: cross-check that every mode sees identical detections on
    # workloads nobody hand-tuned.  Exit 1 on divergence — that is a
    # broken parity contract, not a usage error.
    from repro.pipeline import DetectionPipeline
    from repro.quality import fuzz_sources, quality_config, score_report
    from repro.quality.score import CHANNELS

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for mode in modes:
        if mode not in ("batch", "stream", "cluster"):
            raise ValueError(f"unknown mode {mode!r} in --modes")
    if not modes:
        raise ValueError("--modes must name at least one mode")
    if args.shards < 1:
        raise ValueError("--shards must be >= 1")

    sources = fuzz_sources(
        args.n,
        seed=args.seed,
        intensity_scale=args.intensity,
        sampling_rate=args.sampling,
    )
    diverged = 0
    workloads = []
    for source in sources:
        signatures = {}
        scores = None
        for mode in modes:
            result = DetectionPipeline(quality_config()).run(
                source, mode=mode, n_shards=args.shards
            )
            signatures[mode] = [
                (d.bin, round(d.spe_entropy, 9), d.detected_by_entropy,
                 d.detected_by_volume, d.primary_od)
                for d in result.report.detections if d.detected
            ]
            if scores is None:
                scores = score_report(source.events, result.report)
        reference = signatures[modes[0]]
        parity = all(sig == reference for sig in signatures.values())
        diverged += 0 if parity else 1
        ch = scores["any"]
        verdict = "parity ok" if parity else "MODES DIVERGED"
        print(
            f"  {source.scenario.name:<14} {len(source.events)} events, "
            f"{len(reference)} detections: P {ch.precision:.2f} "
            f"R {ch.recall:.2f} [{verdict}]"
        )
        if not parity:
            for mode, sig in signatures.items():
                print(f"    {mode}: {sig}")
        workloads.append(
            {
                "name": source.scenario.name,
                "events": len(source.events),
                "parity": parity,
                "channels": {c: scores[c].to_dict() for c in CHANNELS},
            }
        )
    print(
        f"fuzzed {len(sources)} workloads across {'/'.join(modes)}: "
        f"{len(sources) - diverged} parity-clean, {diverged} diverged"
    )
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        payload = {
            "seed": args.seed,
            "modes": list(modes),
            "intensity_scale": args.intensity,
            "sampling_rate": args.sampling,
            "workloads": workloads,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if diverged else 0


def _cmd_stats(args) -> int:
    from repro.telemetry.export import prometheus_text, read_events
    from repro.telemetry.stats import format_stats, snapshot_from_events

    events = read_events(args.path)  # ValueError on schema drift -> exit 2
    if args.prometheus:
        print(prometheus_text(snapshot_from_events(events)), end="")
    else:
        print(format_stats(events), end="")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import load

    module = load(args.name)
    print(module.format_report(module.run()))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 2 invalid input (argparse errors also exit
    2, so callers see one consistent code for "bad invocation").
    Set ``REPRO_DEBUG=1`` to get the full traceback alongside the
    one-line error — the escape hatch for telling a genuine bug
    surfacing as ValueError apart from a user mistake.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "detect": _cmd_detect,
        "inject": _cmd_inject,
        "worker": _cmd_worker,
        "run": _cmd_run,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
        "quality": _cmd_quality,
        "stats": _cmd_stats,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        import os

        if os.environ.get("REPRO_DEBUG"):
            import traceback

            traceback.print_exc()
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
