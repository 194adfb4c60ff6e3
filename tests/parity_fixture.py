"""The frozen mode-parity workload: one builder, one renderer, two files.

``tests/data/seed_stream_detections.json`` pins the detections of one
small workload (Abilene, 28 bins, a port scan planted in bin 22) so
that every way of computing them — the kernel path, precomputed trace
replay, cluster runs at any shard count, over any worker link — can be held
byte-for-byte to a single answer.  The file stores its own workload
block; everything that turns that block into records, an engine config
and rendered bytes lives here, shared by ``test_kernels.py``,
``test_trace_precompute.py``, ``test_cluster_net.py`` and
``tools/freeze_parity_fixture.py`` (which rewrites the files, or with
``--check`` reports drift).

Both files store every scored bin's entropy SPE as ``float.hex()``
next to its verdict row, so a change that moves an entropy without
flipping a verdict — a uniform rescaling, which the subspace detectors
cannot see — still shows up as a byte diff.
``tests/data/seed_stream_sketch_detections.json`` pins the same
workload in sketch mode (Count-Min histograms, default 2048 × 4
geometry), so any change to the sketch's hashing or estimator that
moves a counter shows up there.

The detections are a function of the synthesised records, so a PR that
changes record synthesis or detector calibration on purpose re-freezes
with the tool; nothing else should ever move them.  Imports stay at
numpy + repro: the tool also runs in CI jobs without pytest.
"""

import json
from pathlib import Path

import numpy as np

from repro import TimeBins, TrafficGenerator, abilene
from repro.flows.records import FlowRecordBatch
from repro.net.addressing import EPHEMERAL_PORT_START
from repro.stream import StreamConfig, synthetic_record_stream

FIXTURE_PATH = Path(__file__).parent / "data" / "seed_stream_detections.json"
SKETCH_FIXTURE_PATH = FIXTURE_PATH.with_name("seed_stream_sketch_detections.json")


def load_workload() -> dict:
    """The workload block stored in the fixture file."""
    return json.loads(FIXTURE_PATH.read_text())["workload"]


def port_scan(topology, bins, attack, rng) -> FlowRecordBatch:
    """The planted scan: one host sweeping 1500 destination ports.

    RNG draw order (permutation, multinomial, uniform) is part of the
    frozen workload: change it and the records differ.
    """
    od = attack["od"]
    origin, destination = topology.od_pair(od)
    n = 1500
    b = attack["bin"]
    dst_port = EPHEMERAL_PORT_START + rng.permutation(n).astype(np.int64)
    pkts = np.maximum(
        1, rng.multinomial(int(attack["pps"] * bins.width), np.full(n, 1.0 / n))
    )
    timestamp = bins.bin_start(b) + rng.uniform(0, bins.width, size=n)
    return FlowRecordBatch(
        src_ip=np.full(n, origin.prefix.network | 0x2A, dtype=np.int64),
        dst_ip=np.full(n, destination.prefix.network | 0x17, dtype=np.int64),
        src_port=np.full(n, EPHEMERAL_PORT_START + 7, dtype=np.int64),
        dst_port=dst_port,
        protocol=np.full(n, 6, dtype=np.int64),
        packets=pkts.astype(np.int64),
        bytes=pkts * 40,
        timestamp=timestamp,
        ingress_pop=np.full(n, origin.index, dtype=np.int64),
    )


def seed_workload():
    """``(workload, topology, per-bin batches)``: the fixture's exact
    record stream, port scan included."""
    wl = load_workload()
    topology = abilene()
    bins = TimeBins(n_bins=wl["n_bins"])
    generator = TrafficGenerator(topology, bins, seed=wl["seed"])
    rng = np.random.default_rng(7)
    batches = []
    stream = synthetic_record_stream(
        generator, range(wl["n_bins"]), max_records_per_od=wl["max_records_per_od"]
    )
    for b, batch in enumerate(stream):
        if b == wl["attack"]["bin"]:
            batch = FlowRecordBatch.concat(
                [batch, port_scan(topology, bins, wl["attack"], rng)]
            ).sort_by_time()
        batches.append(batch)
    return wl, topology, batches


def stream_config(wl, exact: bool = True) -> StreamConfig:
    """The engine config a fixture was frozen under (``exact=False``:
    the sketch fixture's default Count-Min geometry)."""
    return StreamConfig(
        warmup_bins=wl["warmup_bins"],
        n_components=6,
        refit_every=0,
        exact_histograms=exact,
    )


def detection_rows(report, spe: bool = False) -> list[dict]:
    """One JSON-ready row per scored bin of a streaming report; ``spe``
    adds the bin's entropy SPE, bit-exact as ``float.hex()``."""
    rows = []
    for d in report.detections:
        row = {
            "bin": int(d.bin),
            "entropy": bool(d.detected_by_entropy),
            "volume": bool(d.detected_by_volume),
            "ods": [int(f.od) for f in d.flows],
            "cluster": None if d.cluster is None else int(d.cluster),
        }
        if spe:
            row["spe_entropy"] = float(d.spe_entropy).hex()
        rows.append(row)
    return rows


def scan_caught(wl, report) -> bool:
    """The planted scan's bin is flagged by entropy on the attacked OD
    flow alone — without which parity on this workload proves nothing."""
    attack = wl["attack"]
    return any(
        d["bin"] == attack["bin"] and d["entropy"] and d["ods"] == [attack["od"]]
        for d in detection_rows(report)
    )


def render(wl, report) -> bytes:
    """A fixture file's bytes for ``report`` over workload ``wl``: every
    scored bin's row with its entropy SPE as ``float.hex()``."""
    payload = {"workload": wl, "detections": detection_rows(report, spe=True)}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
