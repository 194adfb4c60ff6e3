#!/usr/bin/env python
"""Re-freeze (or check) the mode-parity fixtures.

``tests/data/seed_stream_detections.json`` pins the exact-mode
detections of one small workload, each scored bin's entropy SPE
included; ``test_kernels.py``, ``test_trace_precompute.py`` and
``test_cluster_net.py`` hold every deployment mode to its bytes.
``tests/data/seed_stream_sketch_detections.json`` pins the same
workload in sketch mode.
The detections are a function of the synthesised records, the detector
calibration and (for the sketch file) the Count-Min hashing, so a PR
that changes one of them *on purpose* regenerates the files with this
tool — from the workload block the exact file stores, through the same
builder the tests use (``tests/parity_fixture.py``) — instead of by
hand::

    PYTHONPATH=src python tools/freeze_parity_fixture.py          # rewrite
    PYTHONPATH=src python tools/freeze_parity_fixture.py --check  # CI

Writing prints the detection rows old -> new (paste them into
CHANGES.md: a re-freeze is a reviewed event).  ``--check`` writes
nothing and exits 1 when a file is not what the code produces.
Either way, a fixture whose planted scan is not caught by the entropy
channel on exactly the attacked OD flow is refused (exit 1): the file
would pin parity on a workload that proves nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "tests", REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def _row(d: dict) -> str:
    flags = "+".join(c for c in ("entropy", "volume") if d[c]) or "-"
    spe = f" spe={d['spe_entropy']}" if "spe_entropy" in d else ""
    return f"{flags} ods={d['ods']} cluster={d['cluster']}{spe}"


def _freeze(pf, workload, path: Path, exact: bool, check: bool) -> int:
    """Check or rewrite one fixture file; the exit code for it."""
    from repro.stream import StreamingDetectionEngine

    wl, topology, batches = workload
    report = StreamingDetectionEngine(
        topology, pf.stream_config(wl, exact=exact)
    ).process(batches)
    fresh = pf.render(wl, report)
    new = {d["bin"]: d for d in pf.detection_rows(report, spe=True)}
    name = path.relative_to(REPO_ROOT)
    if not pf.scan_caught(wl, report):
        attack = wl["attack"]
        print(f"{name} refused: the planted scan (bin {attack['bin']}, OD "
              f"{attack['od']}) is not caught by entropy on that OD alone: "
              f"{new.get(attack['bin'])}", file=sys.stderr)
        return 1
    stored = path.read_bytes() if path.exists() else b'{"detections": []}'
    if fresh == stored:
        print(f"{name}: up to date")
        return 0
    print(f"{name}:")
    old = {d["bin"]: d for d in json.loads(stored)["detections"]}
    for b in sorted(old.keys() | new.keys()):
        was = _row(old[b]) if b in old else "(absent)"
        now = _row(new[b]) if b in new else "(absent)"
        print(f"  bin {b}: {was}" + ("" if was == now else f"  ->  {now}"))
    if check:
        print("parity fixture drifted from what the code produces; if the change "
              "to records, calibration or hashing is deliberate, regenerate it "
              "with\n    PYTHONPATH=src python tools/freeze_parity_fixture.py\n"
              "and record the rows above in CHANGES.md", file=sys.stderr)
        return 1
    path.write_bytes(fresh)
    print(f"wrote {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare only; exit 1 on drift")
    args = parser.parse_args(argv)

    import parity_fixture as pf

    workload = pf.seed_workload()
    codes = [
        _freeze(pf, workload, pf.FIXTURE_PATH, exact=True, check=args.check),
        _freeze(pf, workload, pf.SKETCH_FIXTURE_PATH, exact=False, check=args.check),
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
