#!/usr/bin/env python
"""Re-freeze (or check) the mode-parity fixture.

``tests/data/seed_stream_detections.json`` pins the exact-mode
detections of one small workload; ``test_kernels.py``,
``test_trace_precompute.py`` and ``test_cluster_net.py`` hold every
deployment mode to its bytes.  The detections are a function of the
synthesised records and the detector calibration, so a PR that changes
either *on purpose* regenerates the file with this tool — from the
workload block the file itself stores, through the same builder the
tests use (``tests/parity_fixture.py``) — instead of by hand::

    PYTHONPATH=src python tools/freeze_parity_fixture.py          # rewrite
    PYTHONPATH=src python tools/freeze_parity_fixture.py --check  # CI

Writing prints the detection rows old -> new (paste them into
CHANGES.md: a re-freeze is a reviewed event).  ``--check`` writes
nothing and exits 1 when the file is not what the code produces.
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
    return f"{flags} ods={d['ods']} cluster={d['cluster']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare only; exit 1 on drift")
    args = parser.parse_args(argv)

    import parity_fixture as pf
    from repro.stream import StreamingDetectionEngine

    wl, topology, batches = pf.seed_workload()
    report = StreamingDetectionEngine(topology, pf.stream_config(wl)).process(batches)
    fresh = pf.render(wl, report)
    new = {d["bin"]: d for d in pf.detection_rows(report)}
    if not pf.scan_caught(wl, report):
        attack = wl["attack"]
        print(f"refused: the planted scan (bin {attack['bin']}, OD {attack['od']}) "
              f"is not caught by entropy on that OD alone: "
              f"{new.get(attack['bin'])}", file=sys.stderr)
        return 1
    stored = pf.FIXTURE_PATH.read_bytes()
    if fresh == stored:
        print(f"{pf.FIXTURE_PATH.relative_to(REPO_ROOT)}: up to date")
        return 0
    old = {d["bin"]: d for d in json.loads(stored)["detections"]}
    for b in sorted(old.keys() | new.keys()):
        was = _row(old[b]) if b in old else "(absent)"
        now = _row(new[b]) if b in new else "(absent)"
        print(f"  bin {b}: {was}" + ("" if was == now else f"  ->  {now}"))
    if args.check:
        print("parity fixture drifted from what the code produces; if the change "
              "to records or calibration is deliberate, regenerate it with\n"
              "    PYTHONPATH=src python tools/freeze_parity_fixture.py\n"
              "and record the rows above in CHANGES.md", file=sys.stderr)
        return 1
    pf.FIXTURE_PATH.write_bytes(fresh)
    print(f"wrote {pf.FIXTURE_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
