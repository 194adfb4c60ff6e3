"""Sketch-mode streaming state: the column hash, array candidate store
and bank reuse.

Every sketch path hashes through :func:`hash_columns`; it is checked
against the literal ``%`` expression it replaced (kept here as the
reference) and pinned on a few values.  The accumulator keeps candidate
values as kernel runs and reuses one :class:`SketchBank` per feature
across bins.  Both are checked against references kept here: the
set-based candidate store the accumulator used before (bitwise, through
the same estimator), and per-OD :class:`CountMinSketch` objects built
from scratch for every bin.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.features import FEATURES, N_FEATURES
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import (
    CountMinSketch,
    SketchBank,
    _hash_params,
    entropy_from_sketch,
    entropy_from_sketch_runs,
    hash_columns,
)
from repro.kernels import group_reduce
from repro.net.topology import abilene
from repro.stream import window
from repro.stream.window import BinAccumulator, StreamFeatureStage

P = 6
WIDTH = 64
PRIME = (1 << 61) - 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def reference_columns(a, b, values, width):
    """The column hash exactly as every sketch path spelled it before
    :func:`hash_columns`: numpy int64 ``%`` throughout."""
    v = np.asarray(values, dtype=np.int64) % PRIME
    return (a[:, None] * v[None, :] + b[:, None]) % PRIME % width


int64_values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(0, 1 << 32),
    st.integers(-3, 3),
    st.sampled_from([
        INT64_MIN, INT64_MIN + 1, INT64_MAX, PRIME - 1, PRIME, PRIME + 1,
        2 * PRIME, -PRIME, -PRIME - 1,
    ]),
)


class TestHashColumns:
    @given(
        st.lists(int64_values, max_size=40),
        st.one_of(st.sampled_from([8, 16, 256, 1024, 2048, 4096]),
                  st.integers(8, 4096)),
        st.integers(1, 6),
        st.integers(0, 1 << 32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_modulo_expression(self, values, width, depth, seed):
        a, b = _hash_params(width, depth, seed)
        values = np.array(values, dtype=np.int64)
        got = hash_columns(a, b, values, width)
        assert got.dtype == np.int64 and got.shape == (depth, len(values))
        np.testing.assert_array_equal(got, reference_columns(a, b, values, width))

    def test_pinned_columns_at_the_default_seed(self):
        """Geometry (2048, 4, 0).  ``a·v`` wraps modulo 2**64 before the
        ``mod p``, so the hash is not pairwise independent: 0 and 49152,
        or 65535 and 2**31 - 1, land at most two columns apart."""
        pinned = {
            0: [5, 616, 1735, 694],
            1: [1837, 711, 1450, 124],
            80: [1160, 1993, 1383, 153],
            443: [570, 1295, 2012, 86],
            49152: [7, 618, 1737, 692],
            65535: [218, 518, 2023, 1262],
            (1 << 31) - 1: [218, 519, 2024, 1262],
            PRIME: [5, 616, 1735, 694],
            INT64_MAX: [1406, 900, 878, 1032],
            -1: [436, 425, 260, 1831],
            INT64_MIN: [1082, 149, 1117, 1493],
        }
        sketch = CountMinSketch(width=2048, depth=4, seed=0)
        values = np.array(list(pinned), dtype=np.int64)
        assert hash_columns(sketch._a, sketch._b, values, 2048).T.tolist() == list(
            pinned.values()
        )
        for value, cols in pinned.items():
            assert sketch._rows(value).tolist() == cols


def _batch(rows, timestamps=None):
    """Records whose four features have different distinct counts."""
    v = np.array([r[1] for r in rows], dtype=np.int64)
    n = len(rows)
    return FlowRecordBatch(
        src_ip=v,
        dst_ip=v * 7 % 13,
        src_port=v % 5,
        dst_port=v * 3 % 11,
        protocol=np.full(n, 6),
        packets=np.array([r[2] for r in rows], dtype=np.int64),
        bytes=np.full(n, 40),
        timestamp=np.zeros(n) if timestamps is None else timestamps,
        ingress_pop=np.zeros(n, dtype=np.int64),
    )


class SetBasedAccumulator:
    """Reference: fresh banks per bin, candidates as ``od -> [set] * 4``."""

    def __init__(self):
        self.banks = [SketchBank(P, width=WIDTH) for _ in range(N_FEATURES)]
        self.candidates = {}

    def _add_feature(self, k, ods, values, weights):
        runs = group_reduce(ods, values, weights)
        self.banks[k].update(runs.group_ids, runs.starts, runs.values, runs.counts)
        for i, od in enumerate(runs.group_ids.tolist()):
            entry = self.candidates.setdefault(od, [set() for _ in range(N_FEATURES)])
            if len(entry[k]) < window.MAX_CANDIDATES:
                entry[k].update(runs.slice(i)[0].tolist())

    def add_batch(self, ods, batch):
        for k, name in enumerate(FEATURES):
            self._add_feature(k, ods, getattr(batch, name), batch.packets)

    def entropy(self):
        entropy = np.zeros((P, N_FEATURES))
        ods = np.asarray(sorted(self.candidates), dtype=np.int64)
        for k in range(N_FEATURES):
            lists = [sorted(self.candidates[int(od)][k]) for od in ods]
            starts = np.zeros(len(ods) + 1, dtype=np.int64)
            np.cumsum([len(c) for c in lists], out=starts[1:])
            values = np.array([v for c in lists for v in c], dtype=np.int64)
            estimates, totals = self.banks[k].query_runs(ods, starts, values)
            entropy[ods, k] = entropy_from_sketch_runs(estimates, totals, starts)
        return entropy


# (od, value, packets): few values so chunks overlap and a small cap is
# crossed mid-bin; zero-packet rows are dropped by the kernel.
record_rows = st.lists(
    st.tuples(st.integers(0, P - 1), st.integers(0, 30), st.integers(0, 4)),
    min_size=1, max_size=40,
)
one_bin = st.lists(record_rows, min_size=1, max_size=6)


def _feed(target, ops):
    for op in ops:
        ods = np.array([r[0] for r in op], dtype=np.int64)
        target.add_batch(ods, _batch(op))


class TestCandidateStore:
    @given(st.lists(one_bin, min_size=1, max_size=3), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_set_based_reference_bitwise(self, bins, cap):
        acc = BinAccumulator(n_od_flows=P, width=WIDTH)
        with mock.patch.object(window, "MAX_CANDIDATES", cap):
            for b, ops in enumerate(bins):
                ref = SetBasedAccumulator()
                _feed(acc, ops)
                _feed(ref, ops)
                assert acc.finalize(b).entropy.tobytes() == ref.entropy().tobytes()
                _, candidates = acc.sketch_state()
                for k, runs in enumerate(candidates):
                    assert runs.group_ids.tolist() == sorted(
                        od for od, sets in ref.candidates.items() if sets[k]
                    )
                acc.reset()


class TestCountMinGuarantee:
    @given(record_rows, st.lists(st.integers(0, 40), max_size=4),
           st.sampled_from([8, 64]))
    @settings(max_examples=80, deadline=None)
    def test_estimates_bracket_the_true_count(self, rows, cuts, width):
        """Whatever the chunking, every (OD, feature, candidate) estimate
        lies between the value's true packet count and the OD's packet
        total.  Width 8 forces collisions (31 values, 8 columns)."""
        acc = BinAccumulator(n_od_flows=P, width=width)
        edges = [0, *sorted(c % (len(rows) + 1) for c in cuts), len(rows)]
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                _feed(acc, [rows[lo:hi]])
        ods = np.array([r[0] for r in rows], dtype=np.int64)
        packets = np.array([r[2] for r in rows], dtype=np.int64)
        od_total = np.bincount(ods, weights=packets, minlength=P).astype(np.int64)
        banks, candidates = acc.sketch_state()
        for k, name in enumerate(FEATURES):
            column, runs = getattr(_batch(rows), name), candidates[k]
            estimates, totals = banks[k].query_runs(
                runs.group_ids, runs.starts, runs.values
            )
            np.testing.assert_array_equal(totals, od_total[runs.group_ids])
            for i, od in enumerate(runs.group_ids.tolist()):
                lo, hi = runs.starts[i], runs.starts[i + 1]
                for value, estimate in zip(runs.values[lo:hi].tolist(),
                                           estimates[lo:hi].tolist()):
                    true = int(packets[(ods == od) & (column == value)].sum())
                    assert 1 <= true <= estimate <= od_total[od]


class TestODRange:
    """OD ids outside ``[0, p)`` are refused before any state changes:
    numpy would otherwise read -1 as OD p - 1 and fail on p."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("bad", [-1, P])
    def test_accumulator_refuses_and_stays_empty(self, exact, bad):
        acc = BinAccumulator(n_od_flows=P, width=WIDTH, exact=exact)
        rows = [(0, 3, 2), (5, 4, 1), (bad, 7, 1)]
        with pytest.raises(ValueError, match=f"OD id {bad} outside"):
            acc.add_batch(np.array([r[0] for r in rows]), _batch(rows))
        assert acc.n_records == 0
        summary = acc.finalize(0)
        assert not summary.entropy.any() and not summary.packets.any()
        if not exact:
            banks, candidates = acc.sketch_state()
            assert not any(len(runs.group_ids) for runs in candidates)
            assert not any(bank.tables.any() or bank.totals.any() for bank in banks)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_stage_refuses_before_closing_a_bin(self, exact, side):
        topology = abilene()
        bad = -1 if side == "below" else topology.n_od_flows
        stage = StreamFeatureStage(
            topology, width=WIDTH, exact=exact, apply_anonymization=False
        )
        rows = [(0, 3, 2), (5, 4, 1), (bad, 7, 1)]
        assert stage.ingest(_batch(rows[:2]), ods=[0, 5]) == []
        # A chunk of the next bin would close bin 0 first.
        next_bin = _batch(rows, timestamps=np.full(3, 300.0))
        with pytest.raises(ValueError, match=f"OD id {bad} outside"):
            stage.ingest(next_bin, ods=[r[0] for r in rows])
        (summary,) = stage.flush()
        assert summary.bin == 0 and summary.n_records == 2
        assert summary.packets.sum() == 3


def _per_od_reference(topology, chunks):
    """bin -> (p, 4) entropies (bitwise estimator, scalar estimator)
    from one fresh ``CountMinSketch`` per (bin, OD, feature)."""
    state = {}
    for chunk, ods in chunks:
        bins = np.floor(chunk.timestamp / 300.0).astype(np.int64)
        for b in np.unique(bins):
            for od in np.unique(ods[bins == b]):
                rows = (bins == b) & (ods == od)
                for k, name in enumerate(FEATURES):
                    sketch, seen = state.setdefault(
                        (int(b), int(od), k), (CountMinSketch(width=WIDTH), set())
                    )
                    values = getattr(chunk, name)[rows]
                    sketch.add_histogram(values, chunk.packets[rows])
                    seen.update(values.tolist())
    out = {}
    for (b, od, k), (sketch, seen) in state.items():
        vector, scalar = out.setdefault(
            b, (np.zeros((topology.n_od_flows, N_FEATURES)),
                np.zeros((topology.n_od_flows, N_FEATURES)))
        )
        candidates = np.array(sorted(seen), dtype=np.int64)
        vector[od, k] = entropy_from_sketch_runs(
            sketch.query_many(candidates), [sketch.total], [0, len(candidates)]
        )[0]
        scalar[od, k] = entropy_from_sketch(sketch, candidates)
    return out


class TestStageParityAcrossBins:
    def test_reused_banks_match_fresh_per_od_sketches(self):
        topology = abilene()
        rng = np.random.default_rng(8)
        stamps = np.sort(rng.uniform(0.0, 5 * 300.0, size=1100))
        stamps = stamps[stamps // 300 != 2]  # bin 2 is a gap
        n = len(stamps)
        records = _batch(
            [(0, int(v), int(w)) for v, w in
             zip(rng.zipf(1.4, size=n) % 200, rng.integers(1, 30, size=n))],
            timestamps=stamps,
        )
        ods = rng.integers(0, 9, size=n)
        # Chunk edges fall inside bins, so bins span chunks and chunks
        # span bins.
        chunks = [
            (records.select(np.arange(lo, min(lo + 130, n))), ods[lo:lo + 130])
            for lo in range(0, n, 130)
        ]
        stage = StreamFeatureStage(
            topology, width=WIDTH, exact=False, apply_anonymization=False
        )
        summaries = []
        for chunk, chunk_ods in chunks:
            summaries.extend(stage.ingest(chunk, ods=chunk_ods))
        summaries.extend(stage.flush())
        reference = _per_od_reference(topology, chunks)
        assert [s.bin for s in summaries] == [0, 1, 2, 3, 4]
        assert sorted(reference) == [0, 1, 3, 4]
        for summary in summaries:
            if summary.bin == 2:
                assert not summary.entropy.any()
                continue
            vector, scalar = reference[summary.bin]
            assert summary.entropy.tobytes() == vector.tobytes()
            np.testing.assert_allclose(summary.entropy, scalar, rtol=0, atol=1e-9)
