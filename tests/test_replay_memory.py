"""Trace replay holds the chunk or bin in hand, not the trace.

A replay's peak resident set must not grow with the trace it replays:
the reader reads row ranges into fresh arrays, so a trace four times
longer adds no resident trace data.  Measured as the peak resident set
(``VmHWM``) of a fresh interpreter that replays an N-bin trace and then
a 4N-bin one, through the exact stream stage and through
``process_precomputed``.  A reader that kept what it had touched (a
memory mapping) grew by the larger trace's touched slabs: 7-8 MiB here,
against ~0.1 MiB for ranged reads (2-vCPU Linux VM).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline.sources import ScenarioSource

N_BINS = 24
RECORDS_PER_OD = 15
#: Allowed VmHWM growth from the N-bin to the 4N-bin replay.  Per-bin
#: report rows are a few KiB; the 4N-bin trace is ~19 MiB on disk.
MAX_GROWTH_KIB = 3 * 1024

_REPLAY = """
import sys
from repro.net.topology import abilene
from repro.stream import StreamConfig, StreamingDetectionEngine, trace_record_stream

def vm_hwm_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

mode, paths = sys.argv[1], sys.argv[2:]
config = StreamConfig(warmup_bins=16, n_components=2, refit_every=0,
                      exact_histograms=True)
for path in paths:
    engine = StreamingDetectionEngine(abilene(), config)
    if mode == "stream":
        report = engine.process(trace_record_stream(path))
    else:
        report = engine.process_precomputed(path)
    print(report.n_records, vm_hwm_kib())
"""


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay_memory")
    paths = []
    for n_bins in (N_BINS, 4 * N_BINS):
        path = root / f"{n_bins}.trace"
        ScenarioSource("baseline-diurnal", n_bins=n_bins, seed=3,
                       max_records_per_od=RECORDS_PER_OD).write_trace(path)
        paths.append(path)
    return paths


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("mode", ["stream", "precomputed"])
def test_peak_rss_does_not_grow_with_the_trace(traces, mode):
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", _REPLAY, mode, *map(str, traces)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    (short_records, short_hwm), (long_records, long_hwm) = (
        map(int, out[i:i + 2]) for i in (0, 2)
    )
    assert long_records > 3 * short_records
    growth = long_hwm - short_hwm
    assert growth < MAX_GROWTH_KIB, (
        f"{mode} replay's VmHWM grew {growth} KiB from {N_BINS} to "
        f"{4 * N_BINS} bins"
    )
