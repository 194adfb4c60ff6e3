"""Metamorphic invariants of the method, end to end.

Parity tests pin what the code did; these pin what the method must do.
Sample entropy depends only on the distribution of a feature's counts,
so two transformations must leave every bin's entropy vector unchanged
(to rounding: the kernel sorts by value, and a new order reorders the
sums):

* relabelling a feature's values through any bijection — and then every
  verdict stays identical.  That invariance is why the method survives
  anonymisation (§5 of the paper);
* multiplying every record's packet count by one constant — the
  histograms are packet-weighted, and a uniform scale leaves every
  feature's distribution where it was.  Volume is not invariant, so only
  the entropy channel's verdicts are held.

The workload is the frozen parity fixture's (``tests/parity_fixture.py``:
Abilene, 28 bins, a port scan planted in bin 22), run in exact mode
through :class:`repro.pipeline.DetectionPipeline` in stream and batch
mode, and in cluster mode through the scripted drive of
``tests/scripted_cluster.py`` (shard monitors over the ``od % 2``
split, wire payloads, supervisor and coordinator, all in-process: the
test-local source cannot be rebuilt inside a worker process).  Sketch
mode is excluded: relabelling moves its hash collisions.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_fixture as pf
from scripted_cluster import drive, shard_streams

from repro.pipeline import DetectionPipeline
from repro.pipeline.bank import DetectorBank
from repro.pipeline.sources import RecordSource, SourceSpec, shard_mask

MODES = ("stream", "batch", "cluster")


class _MemorySource(RecordSource):
    """Already-built per-bin batches as a pipeline source."""

    def __init__(self, batches, n_bins: int) -> None:
        super().__init__(SourceSpec(kind="memory", n_bins=n_bins))
        self._batches = batches

    def batches(self, chunk_records=None):
        return self._rechunk(iter(self._batches), chunk_records)

    def shard_batches(self, shard_id, n_shards, router, chunk_records=None):
        for batch in self._batches:
            ods = router.resolve_ods_mixed(batch.ingress_pop, batch.dst_ip)
            mask = shard_mask(ods, n_shards, shard_id)
            if mask.any():
                yield batch.select(mask), ods[mask]


def _run(wl, batches, mode):
    """``(bin -> entropy matrix, report)`` of one exact run."""
    entropy = {}
    observe = DetectorBank.observe

    def recording_observe(bank, summary):
        entropy[summary.bin] = summary.entropy.copy()
        return observe(bank, summary)

    source = _MemorySource(batches, wl["n_bins"])
    config = pf.stream_config(wl)
    with mock.patch.object(DetectorBank, "observe", recording_observe):
        if mode == "cluster":
            report = drive(source, config, shard_streams(source, 2, config)).report
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
    assert rows["cluster"] == rows["stream"] == rows["batch"]
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
