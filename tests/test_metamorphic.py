"""Metamorphic invariants of the method, end to end.

Parity tests pin what the code did; these pin what the method must do.
Sample entropy depends only on the distribution of a feature's counts,
so two transformations must leave every bin's entropy vector unchanged
(to rounding: the kernel sorts by value, and a new order reorders the
sums):

* relabelling a feature's values through any bijection — and then every
  verdict stays identical.  That invariance is why the method survives
  anonymisation (§5 of the paper).  Ports take any bijection; addresses
  take the ones that keep attribution and anonymisation intact
  (XOR-ing host bits inside each PoP's pool);
* multiplying every record's packet count by one constant — the
  histograms are packet-weighted, and a uniform scale leaves every
  feature's distribution where it was.  Volume is not invariant, so only
  the entropy channel's verdicts are held.

A third moves the ODs instead of the values: renumbering the PoPs
(topology, records' ingress PoP, and so every OD index) permutes the
rows of each bin's entropy matrix and the identified ODs, and must leave
every SPE and both channels' verdicts where they were — OD order must
not leak into the arithmetic.

The workload is the frozen parity fixture's (``tests/parity_fixture.py``:
Abilene, 28 bins, a port scan planted in bin 22), run in exact mode
through :class:`repro.pipeline.DetectionPipeline` in stream and batch
mode, and in cluster mode through the scripted drive of
``tests/scripted_cluster.py`` (shard monitors over the ``od % 2``
split, wire payloads, supervisor and coordinator, all in-process: the
test-local source cannot be rebuilt inside a worker process).  A fourth
mode writes the transformed records to a trace and detects straight
off its derived columns, so the run ids computed at write time are
held to the same invariances.

Sketch mode is held to the OD renumbering only.  Relabelling values
moves its hash collisions, but the hash sees values alone and no two
ODs share a counter, so renumbering the PoPs moves each OD's sketch
whole: its entropy rows must come out bit for bit, in stream mode and
in scripted cluster mode.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_fixture as pf
from scripted_cluster import drive, shard_streams

from repro import TimeBins, TrafficGenerator, abilene
from repro.flows.binning import BIN_SECONDS
from repro.flows.records import FlowRecordBatch
from repro.io.trace import TraceWriter
from repro.net.topology import Topology
from repro.pipeline import DetectionPipeline
from repro.pipeline.bank import DetectorBank
from repro.pipeline.sources import RecordSource, SourceSpec, shard_mask
from repro.stream import StreamingDetectionEngine, synthetic_record_stream

MODES = ("stream", "batch", "cluster", "precomputed")


class _MemorySource(RecordSource):
    """Already-built per-bin batches as a pipeline source."""

    def __init__(self, batches, n_bins: int, topology=None) -> None:
        super().__init__(SourceSpec(kind="memory", n_bins=n_bins))
        self._batches = batches
        self._topology = topology

    def batches(self, chunk_records=None):
        return self._rechunk(iter(self._batches), chunk_records)

    def shard_batches(self, shard_id, n_shards, router, chunk_records=None):
        for batch in self._batches:
            ods = router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip)
            mask = shard_mask(ods, n_shards, shard_id)
            if mask.any():
                yield batch.select(mask), ods[mask]


def _precomputed(source, config):
    """Record the batches (deriving their columns from the values as
    given) and detect straight off the trace's stored columns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.trace"
        with TraceWriter(
            path, n_bins=source.spec.n_bins, topology=source.topology
        ) as writer:
            for b, batch in enumerate(source.batches()):
                writer.append(b, batch)
        engine = StreamingDetectionEngine(source.topology, config)
        return engine.process_precomputed(path)


def _run(wl, batches, mode, topology=None, config=None):
    """``(bin -> entropy matrix, report)`` of one run (by default exact,
    under the fixture's config)."""
    entropy = {}
    observe = DetectorBank.observe

    def recording_observe(bank, summary):
        entropy[summary.bin] = summary.entropy.copy()
        return observe(bank, summary)

    source = _MemorySource(batches, wl["n_bins"], topology)
    config = config or pf.stream_config(wl)
    with mock.patch.object(DetectorBank, "observe", recording_observe):
        if mode == "cluster":
            report = drive(source, config, shard_streams(source, 2, config)).report
        elif mode == "precomputed":
            report = _precomputed(source, config)
        else:
            report = DetectionPipeline(config).run(source, mode=mode).report
    return entropy, report


def _assert_entropy_close(entropy, want_entropy, mode):
    assert sorted(entropy) == sorted(want_entropy), mode
    for b, matrix in entropy.items():
        np.testing.assert_allclose(
            matrix, want_entropy[b], rtol=0, atol=1e-12, err_msg=f"{mode} bin {b}"
        )


@pytest.fixture(scope="module")
def reference():
    wl, _, batches = pf.seed_workload()
    return wl, batches, {mode: _run(wl, batches, mode) for mode in MODES}


def test_modes_agree_on_the_reference(reference):
    wl, _, expected = reference
    rows = {mode: pf.detection_rows(report) for mode, (_, report) in expected.items()}
    assert rows["cluster"] == rows["stream"] == rows["batch"] == rows["precomputed"]
    assert pf.scan_caught(wl, expected["cluster"][1])


def _relabel(batch, mapping):
    """The batch with both port columns sent through ``mapping``."""
    keys, targets = mapping
    return batch.with_columns(**{
        name: targets[np.searchsorted(keys, getattr(batch, name))]
        for name in ("src_port", "dst_port")
    })


@given(
    seed=st.integers(0, 2**32 - 1),
    stride=st.sampled_from([1, 7, 65537, (1 << 20) + 3]),
    offset=st.integers(0, 1 << 40),
)
@settings(max_examples=12, deadline=None)
def test_port_relabelling_keeps_entropy_and_verdicts(reference, seed, stride, offset):
    """A random bijection on port values — shuffled, and optionally
    spread far wider than 16 bits so the kernel's packed key changes
    width — moves no entropy by more than 1e-12 and no verdict."""
    wl, batches, expected = reference
    keys = np.unique(np.concatenate([
        np.concatenate([b.src_port, b.dst_port]) for b in batches
    ]))
    perm = np.random.default_rng(seed).permutation(len(keys))
    mapping = (keys, offset + perm.astype(np.int64) * stride)
    relabelled = [_relabel(b, mapping) for b in batches]
    for mode in MODES:
        entropy, report = _run(wl, relabelled, mode)
        want_entropy, want_report = expected[mode]
        _assert_entropy_close(entropy, want_entropy, mode)
        assert pf.detection_rows(report) == pf.detection_rows(want_report), mode


@given(
    dst_mask=st.integers(0, (1 << 16) - 1),
    src_mask=st.integers(0, (1 << 32) - 1),
)
@settings(max_examples=6, deadline=None)
def test_ip_relabelling_inside_pop_pools_keeps_entropy_and_verdicts(
    reference, dst_mask, src_mask
):
    """XOR-ing ``dst_ip`` below /16 keeps every address inside the one
    /16 its PoP owns, so longest-prefix attribution is unchanged; XOR
    commutes with the 11-bit anonymisation mask, so both XORs are
    bijections on the anonymised values the histograms count.  No
    entropy moves by more than 1e-12 and no verdict moves."""
    wl, batches, expected = reference
    relabelled = [
        b.with_columns(dst_ip=b.dst_ip ^ dst_mask, src_ip=b.src_ip ^ src_mask)
        for b in batches
    ]
    for mode in MODES:
        entropy, report = _run(wl, relabelled, mode)
        want_entropy, want_report = expected[mode]
        _assert_entropy_close(entropy, want_entropy, mode)
        assert pf.detection_rows(report) == pf.detection_rows(want_report), mode


def _entropy_channel(report):
    """Per scored bin: the entropy verdict and the ODs it identified."""
    return [
        (d.bin, d.detected_by_entropy, [int(f.od) for f in d.flows])
        for d in report.detections
    ]


@pytest.mark.parametrize("factor", [2, 3, 1000, 2**20 + 1])
def test_uniform_weight_scaling_keeps_entropy_channel(reference, factor):
    """Every record's packets times ``factor`` (2^20 + 1 widens the
    kernel's packed weight field) moves no entropy by more than 1e-12,
    no entropy SPE by more than 1e-9 relative, and no entropy verdict."""
    wl, batches, expected = reference
    scaled = [b.with_columns(packets=b.packets * factor) for b in batches]
    for mode in MODES:
        entropy, report = _run(wl, scaled, mode)
        want_entropy, want_report = expected[mode]
        _assert_entropy_close(entropy, want_entropy, mode)
        assert _entropy_channel(report) == _entropy_channel(want_report), mode
        np.testing.assert_allclose(
            [d.spe_entropy for d in report.detections],
            [d.spe_entropy for d in want_report.detections],
            rtol=1e-9, err_msg=mode,
        )


def _renumbered(topology, pi):
    """``topology`` with PoP ``o`` moved to index ``pi[o]``: same codes,
    prefixes and links, so routing is unchanged up to the renumbering."""
    order = np.argsort(pi)
    pops = [dataclasses.replace(topology.pops[old], index=new)
            for new, old in enumerate(order)]
    return Topology(name=topology.name, pops=pops, links=topology.links,
                    sampling_rate=topology.sampling_rate,
                    anonymization_bits=topology.anonymization_bits)


@given(pops=st.permutations(range(11)))
@settings(max_examples=6, deadline=None)
def test_od_relabelling_permutes_ods_and_keeps_verdicts(reference, pops):
    """Renumber the PoPs by a permutation pi: OD ``o*n + d`` becomes
    ``pi(o)*n + pi(d)``.  Each bin's entropy matrix is the reference's
    with its rows moved there (1e-12), each entropy SPE is unchanged
    (1e-9 relative), both channels' flags are identical and every
    identified OD maps through pi."""
    wl, batches, expected = reference
    pi = np.asarray(pops)
    topology = _renumbered(pf.seed_workload()[1], pi)
    n = topology.n_pops
    od_map = (pi[:, None] * n + pi[None, :]).ravel()
    renumbered = [b.with_columns(ingress_pop=pi[b.ingress_pop]) for b in batches]
    for mode in MODES:
        entropy, report = _run(wl, renumbered, mode, topology)
        want_entropy, want_report = expected[mode]
        _assert_entropy_close(
            {b: matrix[od_map] for b, matrix in entropy.items()}, want_entropy, mode
        )
        got, want = report.detections, want_report.detections
        assert [(d.bin, d.detected_by_entropy, d.detected_by_volume) for d in got] \
            == [(d.bin, d.detected_by_entropy, d.detected_by_volume) for d in want], mode
        np.testing.assert_allclose([d.spe_entropy for d in got],
                                   [d.spe_entropy for d in want],
                                   rtol=1e-9, err_msg=mode)
        assert [[int(f.od) for f in d.flows] for d in got] \
            == [[int(od_map[f.od]) for f in d.flows] for d in want], mode


SKETCH_MODES = ("stream", "cluster")


@pytest.fixture(scope="module")
def sketch_reference(reference):
    wl, batches, _ = reference
    config = pf.stream_config(wl, exact=False)
    return {mode: _run(wl, batches, mode, config=config) for mode in SKETCH_MODES}


@given(pops=st.permutations(range(11)))
@settings(max_examples=3, deadline=None)
def test_od_relabelling_in_sketch_mode_moves_each_sketch_whole(
    reference, sketch_reference, pops
):
    """Sketch mode under the PoP renumbering pi: every bin's entropy
    matrix is the reference's with its rows moved by ``od_map``, bit
    for bit (a counter leaking across ODs would break this), both
    channels' flags are identical and every identified OD maps
    through pi."""
    wl, batches, _ = reference
    pi = np.asarray(pops)
    topology = _renumbered(pf.seed_workload()[1], pi)
    n = topology.n_pops
    od_map = (pi[:, None] * n + pi[None, :]).ravel()
    renumbered = [b.with_columns(ingress_pop=pi[b.ingress_pop]) for b in batches]
    config = pf.stream_config(wl, exact=False)
    for mode in SKETCH_MODES:
        entropy, report = _run(wl, renumbered, mode, topology, config)
        want_entropy, want_report = sketch_reference[mode]
        assert sorted(entropy) == sorted(want_entropy), mode
        for b, matrix in entropy.items():
            assert np.array_equal(matrix[od_map], want_entropy[b]), (mode, b)
        got, want = report.detections, want_report.detections
        assert [(d.bin, d.detected_by_entropy, d.detected_by_volume) for d in got] \
            == [(d.bin, d.detected_by_entropy, d.detected_by_volume) for d in want], mode
        np.testing.assert_allclose([d.spe_entropy for d in got],
                                   [d.spe_entropy for d in want],
                                   rtol=1e-9, err_msg=mode)
        assert [[int(f.od) for f in d.flows] for d in got] \
            == [[int(od_map[f.od]) for f in d.flows] for d in want], mode


@pytest.fixture(scope="module")
def day_workload():
    """``(wl, batches)``: a 72-bin Abilene stream with a realistic 48-bin
    warm-up (most scored bins clean, so refits happen) and the
    fixture's port scan planted six bins after it."""
    wl = dict(n_bins=72, warmup_bins=48, attack=dict(od=14, bin=54, pps=400.0))
    topology, bins = abilene(), TimeBins(n_bins=wl["n_bins"])
    generator = TrafficGenerator(topology, bins, seed=5)
    rng = np.random.default_rng(7)
    batches = list(synthetic_record_stream(
        generator, range(wl["n_bins"]), max_records_per_od=20
    ))
    scan = pf.port_scan(topology, bins, wl["attack"], rng)
    b = wl["attack"]["bin"]
    batches[b] = FlowRecordBatch.concat([batches[b], scan]).sort_by_time()
    return wl, batches


def _prefixed(batches, k, warmup_bins):
    """``k`` attack-free bins ahead of the stream, every record after them
    shifted by ``k`` bin widths.  The prefix repeats the last ``k``
    warm-up bins, so the prefixed run warms up on the reference's
    warm-up rows (in another order) and scores the ``k`` repeated bins
    in-sample before it reaches the reference's first scored bin."""
    prefix = [
        b.with_columns(timestamp=b.timestamp - (warmup_bins - k) * BIN_SECONDS)
        for b in batches[warmup_bins - k:warmup_bins]
    ]
    return prefix + [
        b.with_columns(timestamp=b.timestamp + k * BIN_SECONDS) for b in batches
    ]


@pytest.mark.parametrize(
    "refit_every, drift_reset_after, k", [(1, 1, 2), (2, 2, 4), (3, 12, 3)]
)
def test_bin_aligned_time_shift_keeps_verdicts(
    day_workload, refit_every, drift_reset_after, k
):
    """Prefix ``k`` attack-free bins (a multiple of ``refit_every``).
    The prefixed run scores the ``k`` repeated warm-up bins clean (the
    calibration floors put in-window rows under threshold), absorbs
    them and refits where the reference fits, so from the reference's
    first scored bin on no window holds a prefix row and every refit
    phase, drift counter and classifier state matches: every verdict is
    the reference's — flows, cluster and the entropy SPE bit for bit.
    Holt volume detrending is off: its level and trend remember the
    prefix forever (decaying, never exactly zero)."""
    wl, batches = day_workload
    config = dataclasses.replace(
        pf.stream_config(wl), refit_every=refit_every,
        drift_reset_after=drift_reset_after, volume_detrend="none",
    )
    prefixed = _prefixed(batches, k, wl["warmup_bins"])
    with mock.patch.object(pf, "stream_config", lambda _wl: config):
        for mode in MODES:
            _, want = _run(wl, batches, mode)
            assert pf.scan_caught(wl, want), mode
            _, got = _run(dict(wl, n_bins=wl["n_bins"] + k), prefixed, mode)
            rows = pf.detection_rows(got, spe=True)
            assert not any(r["entropy"] or r["volume"] for r in rows[:k]), mode
            for row in rows:
                row["bin"] -= k
            assert rows[k:] == pf.detection_rows(want, spe=True), mode
