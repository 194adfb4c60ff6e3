"""The labeled detection-quality grid and its committed baseline.

Runs the full quality surface (:func:`repro.quality.quality_payload`):
every registered scenario plus a ten-workload fuzzed fleet scored
per detection channel, and the accuracy grid sweeping
intensity × sketch width × sampling rate.  The JSON result
(``results/quality.json``) is a pure function of the seed — no
timestamps, rates, or machine facts — so the committed baseline diffs
meaningfully across commits and ``tools/check_quality.py`` can gate
precision/recall drops the way ``check_perf.py`` gates throughput.

The same files carry one reported, ungated block: the entropy–volume
coupling statistics (:func:`repro.quality.coupling.entropy_volume_coupling`,
"within" and "across" per feature on the cube path and the record
path), so a change to the estimator or the sampling lands with the
number in view.

Also runs the null-calibration curve (:func:`repro.quality.null_calibration`)
over :data:`NULL_SEEDS` and commits ``results/null_calibration.json``
/ ``.txt``: the measured per-channel false-alarm rate on attack-free
traffic against alpha and the calibration margins.  It is reported,
not gated.
"""

from _util import emit, run_once, write_json_result

from repro.quality import null_calibration, quality_payload
from repro.quality.coupling import entropy_volume_coupling
from repro.quality.grid import QUALITY_SEED

N_FUZZED = 10
NULL_SEEDS = tuple(range(1, 21))


def _format_report(payload: dict) -> str:
    lines = [
        f"Detection quality (seed {payload['seed']}, "
        f"{payload['shape']['n_bins']} bins, warm-up "
        f"{payload['shape']['warmup_bins']}, ±{payload['tolerance_bins']} "
        f"bin matching)"
    ]
    for name, entry in payload["scenarios"].items():
        ch = entry["channels"]["any"]
        en = entry["channels"]["entropy"]
        lines.append(
            f"  {name:<18} {entry['events']} events: "
            f"P {ch['precision']:.2f} R {ch['recall']:.2f} "
            f"F1 {ch['f1']:.2f} "
            f"(entropy R {en['recall']:.2f}, misassigned "
            f"{en['cluster_errors']}/{en['cluster_total']})"
        )
    lines.append("  grid (any-channel recall by sampling rate, exact sketch):")
    for cell in payload["grid"]:
        if cell["sketch_width"] == 0:
            lines.append(
                f"    intensity x{cell['intensity_scale']:<4} "
                f"1/{cell['sampling_rate']:<4} sampling: "
                f"R {cell['channels']['any']['recall']:.2f}"
            )
    lines.extend(_format_coupling(payload["coupling"]))
    return "\n".join(lines)


def _format_coupling(coupling: dict) -> list[str]:
    lines = [
        f"  entropy-volume coupling ({coupling['scenario']}, "
        f"{coupling['n_bins']} bins, seed {coupling['seed']}; |corr(H, log "
        f"packets)|, per feature {'/'.join(coupling['features'])}):",
        f"    {'path':<28} {'within OD (median)':<27} across ODs",
    ]
    labels = {
        "cube": "cube (population)",
        "records": f"records ({coupling['max_records_per_od']}/OD-bin)",
    }
    for path, stats in coupling["paths"].items():
        within = " / ".join(f"{v:.2f}" for v in stats["within"])
        across = " / ".join(f"{v:.2f}" for v in stats["across"])
        lines.append(f"    {labels[path]:<28} {within:<27} {across}")
    return lines


def _format_null_calibration(payload: dict) -> str:
    shape = payload["shape"]
    lines = [
        f"Null calibration ({payload['scenario']}, seeds "
        f"{payload['seeds'][0]}-{payload['seeds'][-1]}, {shape['n_bins']} bins, "
        f"warm-up {shape['warmup_bins']}, {shape['max_records_per_od']} "
        f"records/OD, m={shape['n_components']}, exact)",
        f"  {'alpha':<6} {'margin':<8} {'nominal':>7}  "
        f"{'entropy alarms  rate [95% CI]':<34} volume alarms  rate [95% CI]",
    ]
    for cell in payload["cells"]:
        parts = []
        for ch in ("entropy", "volume"):
            c = cell["channels"][ch]
            lo, hi = c["ci95"]
            parts.append(
                f"{c['alarms']:>3}/{c['scored_bins']:<4} {c['rate']:.4f} "
                f"[{lo:.4f}, {hi:.4f}]"
            )
        margin = cell["margin"]
        if margin == "default":
            margin = f"{cell['calibration_margin']:g}/{cell['volume_calibration_margin']:g}"
        lines.append(
            f"  {cell['alpha']:<6} {margin:<8} {cell['nominal_rate']:>7.3f}  "
            f"{parts[0]:<34} {parts[1]}"
        )
    lines.append("  (margin a/b: the engine defaults, entropy/volume)")
    return "\n".join(lines)


def test_null_calibration(benchmark):
    payload = run_once(benchmark, null_calibration, NULL_SEEDS)
    assert len(payload["cells"]) == 12
    emit("null_calibration", _format_null_calibration(payload))
    write_json_result("null_calibration", payload)


def test_quality_grid(benchmark):
    payload = run_once(benchmark, quality_payload, QUALITY_SEED, N_FUZZED)
    payload["coupling"] = entropy_volume_coupling()
    assert len(payload["scenarios"]) >= 6 + N_FUZZED
    assert payload["grid"], "grid sweep produced no cells"
    emit("quality", _format_report(payload))
    write_json_result("quality", payload)
