"""Aggregation and rendering behind ``repro stats <telemetry.jsonl>``.

Reconstructs a session snapshot from exported events, then renders:

* a run header (mode, scenario, records, wall-clock, peak RSS);
* the **stage table** — ``stage.*`` spans with count/total/mean/self
  columns, whose exclusive-time total is compared against recorded
  wall-clock (the acceptance bar is agreement within 10%);
* a **detail table** — kernel/sketch/trace spans, informational only
  (their time already lives inside some stage's total);
* counters/gauges; and, for cluster runs, a **per-shard table** built
  from the shard snapshots the workers shipped in their heartbeats.
"""

from __future__ import annotations

from typing import Dict, List

from .spans import SpanStats, iter_top_level_stage_time

STAGE_PREFIX = "stage."


def snapshot_from_events(events: List[dict]) -> dict:
    """Invert :func:`repro.telemetry.export.snapshot_events`."""
    run: Dict[str, object] = {}
    spans: Dict[str, dict] = {}
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    shards: Dict[int, dict] = {}
    for event in events:
        kind = event.get("event")
        if kind == "run":
            run = {k: v for k, v in event.items()
                   if k not in ("schema", "event")}
        elif kind == "span":
            spans[event["label"]] = {
                "count": event["count"], "total_s": event["total_s"],
                "min_s": event["min_s"], "max_s": event["max_s"],
                "self_s": event["self_s"],
                "children": event.get("children", {}),
            }
        elif kind == "counter":
            counters[event["name"]] = event["value"]
        elif kind == "gauge":
            gauges[event["name"]] = event["value"]
        elif kind == "shard":
            shards[int(event["shard"])] = {
                "elapsed_s": event.get("elapsed_s", 0.0),
                "spans": event.get("spans", {}),
                "counters": event.get("counters", {}),
                "gauges": event.get("gauges", {}),
                "resources": event.get("resources", {}),
            }
    return {
        "run": run,
        "elapsed_s": float(run.get("elapsed_s", 0.0)),
        "spans": spans,
        "counters": counters,
        "gauges": gauges,
        "resources": run.get("resources", {}),
        "shards": shards,
    }


def stage_total_seconds(spans: Dict[str, dict]) -> float:
    """Sum of exclusive stage time — comparable to wall-clock."""
    return sum(seconds for _, seconds in iter_top_level_stage_time(spans))


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:,.0f}"


def _span_rows(spans: Dict[str, dict], labels: List[str],
               wall_s: float) -> List[str]:
    rows = []
    for label in labels:
        s = SpanStats.from_dict(spans[label])
        mean = s.total / s.count if s.count else 0.0
        pct = 100.0 * s.self_total / wall_s if wall_s > 0 else 0.0
        rows.append(
            f"  {label:<24} {s.count:>9} {_fmt_seconds(s.total):>10} "
            f"{_fmt_seconds(mean):>10} {_fmt_seconds(s.self_total):>10} "
            f"{pct:>6.1f}%"
        )
    return rows


_SPAN_HEADER = (f"  {'span':<24} {'calls':>9} {'total':>10} "
                f"{'mean':>10} {'self':>10} {'% wall':>7}")


def _shard_table(shards: Dict[int, dict]) -> List[str]:
    lines = [
        "per-shard breakdown:",
        f"  {'shard':>5} {'records':>10} {'bins':>6} {'rec/s':>12} "
        f"{'source':>10} {'reduce':>10} {'ship':>10} {'rss':>9}",
    ]
    for shard_id in sorted(shards):
        snap = shards[shard_id]
        counters = snap.get("counters", {})
        spans = snap.get("spans", {})
        records = counters.get("reduce.records", 0)
        bins = counters.get("reduce.bins_closed", 0)
        elapsed = float(snap.get("elapsed_s", 0.0))
        rate = records / elapsed if elapsed > 0 else 0.0

        def total(label: str) -> float:
            return float(spans.get(label, {}).get("total_s", 0.0))

        rss = float(snap.get("resources", {}).get("peak_rss_bytes", 0))
        lines.append(
            f"  {shard_id:>5} {_fmt_count(records):>10} {bins:>6} "
            f"{_fmt_count(rate) + '/s':>12} "
            f"{_fmt_seconds(total('stage.source')):>10} "
            f"{_fmt_seconds(total('stage.reduce')):>10} "
            f"{_fmt_seconds(total('stage.ship')):>10} "
            f"{rss / 1e6:>7.1f}MB"
        )
    return lines


def format_stats(events: List[dict]) -> str:
    """Render the ``repro stats`` report for one telemetry export."""
    snap = snapshot_from_events(events)
    run = snap["run"]
    wall_s = snap["elapsed_s"]
    spans = snap["spans"]
    counters = snap["counters"]

    lines: List[str] = []
    header_bits = [f"telemetry run: schema ok"]
    for key in ("command", "scenario", "mode", "n_shards"):
        if key in run:
            header_bits.append(f"{key}={run[key]}")
    lines.append("  ".join(header_bits))
    records = run.get("n_records", counters.get("pipeline.records", 0))
    rate = float(records) / wall_s if wall_s > 0 else 0.0
    rss = float(snap["resources"].get("peak_rss_bytes", 0)) if snap["resources"] else 0.0
    lines.append(
        f"wall-clock {wall_s:.3f}s  |  {_fmt_count(float(records))} records "
        f"({_fmt_count(rate)}/s)  |  peak RSS {rss / 1e6:.1f}MB"
    )
    lines.append("")

    stage_labels = sorted(l for l in spans if l.startswith(STAGE_PREFIX))
    if stage_labels:
        lines.append("stage breakdown (self = excl. nested spans):")
        lines.append(_SPAN_HEADER)
        lines.extend(_span_rows(spans, stage_labels, wall_s))
        stage_s = stage_total_seconds(spans)
        coverage = 100.0 * stage_s / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {'stage total':<24} {'':>9} {_fmt_seconds(stage_s):>10} "
            f"{'':>10} {'':>10} {coverage:>6.1f}%"
        )
        lines.append("")

    detail_labels = sorted(l for l in spans if not l.startswith(STAGE_PREFIX))
    if detail_labels:
        lines.append("detail spans (nested inside stages):")
        lines.append(_SPAN_HEADER)
        lines.extend(_span_rows(spans, detail_labels, wall_s))
        lines.append("")

    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<32} {value:>14,}")
        lines.append("")
    if snap["gauges"]:
        lines.append("gauges:")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:<32} {value:>14,.3f}")
        lines.append("")

    if snap["shards"]:
        lines.extend(_shard_table(snap["shards"]))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
