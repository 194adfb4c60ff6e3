"""Metamorphic invariants of the method, end to end.

Parity tests pin what the code did; these pin what the method must do.
Sample entropy depends only on the multiset of a feature's counts, so
relabelling a feature's values through any bijection must leave every
bin's entropy vector unchanged (to rounding: the kernel sorts by value,
and a new order reorders the sums) and every verdict identical.  That
invariance is why the method survives anonymisation (§5 of the paper).

The workload is the frozen parity fixture's (``tests/parity_fixture.py``:
Abilene, 28 bins, a port scan planted in bin 22), run in exact mode
through :class:`repro.pipeline.DetectionPipeline` in stream and batch
mode.  Sketch mode is excluded: relabelling moves its hash collisions.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_fixture as pf
from repro.pipeline import DetectionPipeline
from repro.pipeline.bank import DetectorBank
from repro.pipeline.sources import RecordSource, SourceSpec

MODES = ("stream", "batch")


class _MemorySource(RecordSource):
    """Already-built per-bin batches as a pipeline source."""

    def __init__(self, batches, n_bins: int) -> None:
        super().__init__(SourceSpec(kind="memory", n_bins=n_bins))
        self._batches = batches

    def batches(self, chunk_records=None):
        return self._rechunk(iter(self._batches), chunk_records)


def _run(wl, batches, mode):
    """``(bin -> entropy matrix, detection rows)`` of one exact run."""
    entropy = {}
    observe = DetectorBank.observe

    def recording_observe(bank, summary):
        entropy[summary.bin] = summary.entropy.copy()
        return observe(bank, summary)

    with mock.patch.object(DetectorBank, "observe", recording_observe):
        result = DetectionPipeline(pf.stream_config(wl)).run(
            _MemorySource(batches, wl["n_bins"]), mode=mode
        )
    return entropy, pf.detection_rows(result.report)


@pytest.fixture(scope="module")
def reference():
    wl, _, batches = pf.seed_workload()
    return wl, batches, {mode: _run(wl, batches, mode) for mode in MODES}


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
        entropy, rows = _run(wl, relabelled, mode)
        want_entropy, want_rows = expected[mode]
        assert sorted(entropy) == sorted(want_entropy), mode
        for b, matrix in entropy.items():
            np.testing.assert_allclose(
                matrix, want_entropy[b], rtol=0, atol=1e-12, err_msg=f"{mode} bin {b}"
            )
        assert rows == want_rows, mode
