"""The grouped-reduction kernel against its per-group references.

Four contracts pin :mod:`repro.kernels`:

* property tests (hypothesis): grouped histograms and entropies must
  equal the Counter-based :class:`FeatureHistogram` reference for
  arbitrary (groups, values, weights) batches — empty groups,
  single-value groups, weighted and zero-weight rows included;
* the ordering core (hypothesis): ``GroupedRuns`` bytes do not depend
  on input row order on any of the three sort tiers, the bit-budget
  boundary between tiers agrees with the Counter reference on both
  sides, and the run ids ``derive_columns`` writes into trace v2 files
  equal an ``np.unique`` reference (tie order cannot leak);
* :class:`SketchBank` batched conservative updates must leave *exactly*
  the same counters as one :meth:`CountMinSketch.add_histogram` call
  per group;
* the streaming engine on the kernel must reproduce the frozen parity
  fixture's detections byte-for-byte on a fixed-seed workload with a
  planted port scan (``tests/data/seed_stream_detections.json``, built
  and re-frozen through ``tests/parity_fixture.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parity_fixture
from repro import abilene
from repro.core.entropy import sample_entropy
from repro.flows.features import FEATURES, FeatureHistogram, grouped_histograms
from repro.flows.records import FlowRecordBatch
from repro.flows.sketches import (
    CountMinSketch,
    SketchBank,
    canonical_histogram,
    entropy_from_sketch,
    entropy_from_sketch_runs,
)
from repro.io.trace import derive_columns
from repro.kernels import (
    GroupedRuns,
    group_reduce,
    group_sums,
    grouped_entropy,
    merge_histograms,
    segment_sums,
    sort_order,
)
from repro.net.routing import Router
from repro.net.topology import geant
from repro.stream import StreamingDetectionEngine


def _reference(groups, values, weights):
    """Counter-based per-group histograms (the seed implementation)."""
    out = {}
    for g, v, w in zip(groups, values, weights):
        if w:
            out.setdefault(int(g), {})
            out[int(g)][int(v)] = out[int(g)].get(int(v), 0) + int(w)
    return out


batches = st.integers(0, 200).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 12), min_size=n, max_size=n),
        st.lists(st.integers(0, 40), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


class TestGroupReduceProperties:
    @settings(deadline=None, max_examples=150)
    @given(batches)
    def test_matches_counter_reference(self, batch):
        groups, values, weights = (np.asarray(c, dtype=np.int64) for c in batch)
        runs = group_reduce(groups, values, weights)
        ref = _reference(groups, values, weights)
        assert runs.group_ids.tolist() == sorted(ref)
        entropies = runs.entropies()
        totals = runs.totals()
        for i, gid in enumerate(runs.group_ids):
            vals, cnts = runs.slice(i)
            assert vals.tolist() == sorted(ref[gid])  # canonical order
            assert dict(zip(vals.tolist(), cnts.tolist())) == ref[gid]
            hist = FeatureHistogram(ref[gid])
            assert totals[i] == hist.total
            assert entropies[i] == pytest.approx(hist.entropy(), abs=1e-12)

    @settings(deadline=None, max_examples=150)
    @given(batches)
    def test_grouped_histograms_equal_feature_histograms(self, batch):
        groups, values, weights = (np.asarray(c, dtype=np.int64) for c in batch)
        ref = _reference(groups, values, weights)
        hists = grouped_histograms(groups, values, weights)
        assert set(hists) == set(ref)
        for gid, hist in hists.items():
            assert hist == FeatureHistogram(ref[gid])

    @settings(deadline=None, max_examples=100)
    @given(batches)
    def test_unweighted_counts_occurrences(self, batch):
        groups, values, _ = (np.asarray(c, dtype=np.int64) for c in batch)
        runs = group_reduce(groups, values)
        ref = _reference(groups, values, np.ones(len(groups), dtype=np.int64))
        assert {
            int(g): dict(zip(*map(np.ndarray.tolist, runs.group(int(g)))))
            for g in runs.group_ids
        } == ref

    @settings(deadline=None, max_examples=100)
    @given(a=batches, b=batches, wide=st.booleans(), negative=st.booleans())
    def test_merge_histograms_is_canonical(self, a, b, wide, negative):
        (_, va, ca), (_, vb, cb) = (
            [np.asarray(c, dtype=np.int64) for c in batch] for batch in (a, b)
        )
        if wide:  # 32-bit values + counts past 2**31: too wide to pack
            va, vb, ca, cb = va << 26, vb << 26, ca << 30, cb << 30
        if negative:
            va, vb = va - 20, vb - 20
        merged = merge_histograms(va, ca, vb, cb)
        expected = canonical_histogram(
            np.concatenate([va, vb]), np.concatenate([ca, cb])
        )
        for got, want in zip(merged, expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGroupReduceEdges:
    def test_empty_input(self):
        runs = group_reduce(np.zeros(0), np.zeros(0))
        assert runs.n_groups == 0 and len(runs) == 0
        assert runs.entropies().tolist() == []
        assert runs.totals().tolist() == []

    def test_all_zero_weights(self):
        runs = group_reduce([1, 2], [3, 4], [0, 0])
        assert runs.n_groups == 0

    def test_single_value_group_has_zero_entropy(self):
        runs = group_reduce([5, 5, 5], [9, 9, 9], [2, 3, 4])
        assert runs.group_ids.tolist() == [5]
        assert runs.counts.tolist() == [9]
        assert runs.entropies()[0] == 0.0

    def test_negative_groups(self):
        runs = group_reduce([-2, -2, 7], [1, 1, 0])
        assert runs.group_ids.tolist() == [-2, 7]
        assert runs.counts.tolist() == [2, 1]

    def test_values_past_32_bits(self):
        big = 1 << 40
        runs = group_reduce([0, 0], [big, big])
        assert runs.values.tolist() == [big]
        assert runs.counts.tolist() == [2]

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            group_reduce([0], [1], [-1])

    def test_grouped_entropy_empty_segments(self):
        counts = np.array([2.0, 2.0, 5.0])
        starts = np.array([0, 0, 2, 2, 3, 3])
        out = grouped_entropy(counts, starts)
        assert out.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert out[1] == sample_entropy([2, 2])

    def test_grouped_entropy_ignores_zero_counts(self):
        counts = np.array([3.0, 0.0, 3.0])
        assert grouped_entropy(counts, np.array([0, 3]))[0] == pytest.approx(
            sample_entropy([3, 0, 3])
        )

    def test_segment_sums_with_empties(self):
        out = segment_sums(np.array([1.0, 2.0, 3.0]), np.array([0, 2, 2, 3]))
        assert out.tolist() == [3.0, 0.0, 3.0]

    def test_group_sums_dense(self):
        out = group_sums([0, 3, 3], [7, 1, 2], 5)
        assert out.tolist() == [7, 0, 0, 3, 0]
        assert out.dtype == np.int64


def _bundle(runs: GroupedRuns):
    """Every byte and dtype of a GroupedRuns result."""
    arrays = (runs.group_ids, runs.starts, runs.values, runs.counts)
    return [(a.dtype, a.tobytes()) for a in arrays]


def _as_reference(runs: GroupedRuns):
    return {
        int(g): dict(zip(*map(np.ndarray.tolist, runs.slice(i))))
        for i, g in enumerate(runs.group_ids)
    }


def _tier(groups, values, weights):
    """The ordering tier the documented bit-budget rule selects."""
    def width(x):
        return 64 if x.min() < 0 else int(x.max()).bit_length()

    if width(groups) + width(values) + width(weights) <= 63:
        return "value-sort"
    if width(groups) + width(values) <= 63:
        return "argsort"
    return "lexsort"


#: Maps any ``batches`` draw onto each tier: byte-sized weights overflow
#: the packing budget, negative values rule out packing altogether.
_INTO_TIER = {
    "value-sort": lambda g, v, w: (g, v, w),
    "argsort": lambda g, v, w: (g, v + (1 << 31), w << 32),
    "lexsort": lambda g, v, w: (g, v - 50, w),
}


class TestOrderingTiers:
    @pytest.mark.parametrize("tier", sorted(_INTO_TIER))
    @settings(deadline=None, max_examples=60)
    @given(batch=batches, seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_invariance(self, tier, batch, seed):
        columns = (np.asarray(c, dtype=np.int64) for c in batch)
        groups, values, weights = _INTO_TIER[tier](*columns)
        if weights.any():
            assert _tier(groups, values, weights) == tier
        shuffle = np.random.default_rng(seed).permutation(len(groups))
        straight = group_reduce(groups, values, weights)
        shuffled = group_reduce(groups[shuffle], values[shuffle], weights[shuffle])
        assert _bundle(shuffled) == _bundle(straight)
        assert _as_reference(straight) == _reference(groups, values, weights)

    @pytest.mark.parametrize("weight_bits, tier", [(16, "value-sort"), (17, "argsort")])
    def test_bit_budget_boundary(self, weight_bits, tier):
        # 7 + 40 + 16 = 63 bits packs; one more weight bit must not.
        rng = np.random.default_rng(weight_bits)
        n = 4000
        groups = rng.integers(0, 1 << 7, size=n)
        values = rng.integers(0, 1 << 40, size=n) >> rng.integers(0, 40, size=n)
        weights = rng.integers(0, 1 << weight_bits, size=n)
        groups[0], values[0], weights[0] = (1 << 7) - 1, (1 << 40) - 1, (1 << weight_bits) - 1
        groups[1], values[1], weights[1] = groups[0], values[0], weights[0]  # extreme run
        assert _tier(groups, values, weights) == tier
        runs = group_reduce(groups, values, weights)
        assert _as_reference(runs) == _reference(groups, values, weights)

    def test_byte_sized_weights(self):
        rng = np.random.default_rng(1)
        n = 3000
        groups = rng.integers(0, 121, size=n)
        values = rng.integers(0, 1 << 32, size=n) & ~np.int64(0xFFFFF)
        weights = rng.integers(0, 1 << 34, size=n)
        assert weights.max() > 1 << 31
        assert _tier(groups, values, weights) == "argsort"
        runs = group_reduce(groups, values, weights)
        assert _as_reference(runs) == _reference(groups, values, weights)

    def test_negative_values_with_zero_weight_rows(self):
        rng = np.random.default_rng(2)
        n = 3000
        groups = rng.integers(0, 30, size=n)
        values = rng.integers(-50, 50, size=n)
        weights = rng.integers(0, 3, size=n)
        assert (weights == 0).any()
        assert _tier(groups, values, weights) == "lexsort"
        runs = group_reduce(groups, values, weights)
        assert (runs.counts > 0).all()
        assert _as_reference(runs) == _reference(groups, values, weights)

    @pytest.mark.parametrize("weight", [1, 1 << 40])
    def test_single_all_equal_key(self, weight):
        n = 257
        runs = group_reduce(np.full(n, 9), np.full(n, 1 << 31), np.full(n, weight))
        assert _as_reference(runs) == {9: {1 << 31: n * weight}}
        assert runs.starts.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "value_bits, tier", [(16, "value-sort"), (32, "argsort")]
    )
    def test_bin_od_composites_at_geant_day_scale(self, value_bits, tier):
        # 288 bins x 484 ODs is an 18-bit group id: ports still pack with
        # 16-bit packet counts, IPv4 addresses no longer do.
        n_bins, p = 288, 484
        rng = np.random.default_rng(value_bits)
        n = 20000
        groups = rng.integers(0, n_bins, size=n) * p + rng.integers(0, p, size=n)
        groups[0] = n_bins * p - 1
        values = rng.integers(0, 64, size=n) << (value_bits - 6)
        weights = rng.integers(0, 1 << 16, size=n)
        assert _tier(groups, values, weights) == tier
        runs = group_reduce(groups, values, weights)
        assert _as_reference(runs) == _reference(groups, values, weights)

    @settings(deadline=None, max_examples=60)
    @given(batch=batches, wide=st.booleans(), negative=st.booleans())
    def test_sort_order_sorts_on_every_tier(self, batch, wide, negative):
        groups, values, _ = (np.asarray(c, dtype=np.int64) for c in batch)
        if wide:  # (group, value) no longer fits one packed key
            values = values << 56
        if negative:
            groups = groups - 3
        order = sort_order(groups, values)
        assert sorted(order.tolist()) == list(range(len(groups)))
        keys = list(zip(groups[order].tolist(), values[order].tolist()))
        assert keys == sorted(keys)


class TestDerivedRunIds:
    """Trace v2 run ids are a function of the (od, value) keys alone."""

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), anonymize=st.booleans())
    def test_run_ids_equal_unique_reference(self, seed, anonymize):
        topology = abilene()
        router = Router(topology)
        rng = np.random.default_rng(seed)
        n = 400
        pops = rng.integers(0, topology.n_pops, size=n)
        prefixes = [pop.prefix for pop in topology.pops]
        batch = FlowRecordBatch(
            src_ip=np.array([prefixes[i].network for i in pops], dtype=np.int64)
            | rng.integers(0, 4, size=n),
            dst_ip=np.array(
                [prefixes[i].network for i in rng.integers(0, len(prefixes), size=n)],
                dtype=np.int64,
            )
            | rng.integers(0, 4, size=n),
            src_port=rng.integers(1024, 1030, size=n),
            dst_port=rng.integers(80, 83, size=n),
            protocol=np.full(n, 6, dtype=np.int64),
            packets=rng.integers(0, 4, size=n),  # ~1/4 zero-packet records
            bytes=np.full(n, 40, dtype=np.int64),
            timestamp=rng.uniform(0, 300, size=n),
            ingress_pop=pops,
        )
        bits = topology.anonymization_bits if anonymize else 0
        ods, runids = derive_columns(batch, router, bits)
        anon = batch.anonymized(bits) if bits else batch
        kept = batch.packets > 0
        shuffle = rng.permutation(n)
        _, shuffled = derive_columns(batch.select(shuffle), router, bits)
        for name, rid, shuffled_rid in zip(FEATURES, runids, shuffled):
            pairs = np.stack([ods[kept], getattr(anon, name)[kept]], axis=1)
            _, inverse = np.unique(pairs, axis=0, return_inverse=True)
            expected = np.full(n, -1, dtype=np.int64)
            expected[kept] = inverse.ravel()
            assert rid.dtype == np.int64
            np.testing.assert_array_equal(rid, expected)
            # ... and therefore of neither record order nor tie order.
            np.testing.assert_array_equal(shuffled_rid, expected[shuffle])


class TestSketchBankEquivalence:
    @pytest.mark.parametrize("width, values", [
        (128, (0, 4000)),
        # A non-power-of-two width and values mostly outside [0, 2**61 - 1)
        # take both of hash_columns' floor-division branches.
        (1000, (-(1 << 63), (1 << 63) - 1)),
    ])
    def test_bank_matches_per_group_sketches_exactly(self, width, values):
        rng = np.random.default_rng(13)
        bank = SketchBank(11, width=width, depth=4, seed=3)
        refs = {}
        for _ in range(5):
            n = int(rng.integers(1, 300))
            g = rng.integers(0, 11, size=n)
            v = rng.integers(*values, size=n)
            w = rng.integers(0, 5, size=n)
            runs = group_reduce(g, v, w)
            bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
            for i, gid in enumerate(runs.group_ids):
                ref = refs.setdefault(
                    int(gid), CountMinSketch(width=width, depth=4, seed=3)
                )
                ref.add_histogram(*runs.slice(i))
        assert set(np.flatnonzero(bank.totals)) == set(refs)
        probe = rng.integers(*values, size=64)
        for gid, ref in refs.items():
            got = bank.sketches([gid])[0]
            np.testing.assert_array_equal(got.table, ref.table)
            assert got.total == ref.total
            np.testing.assert_array_equal(got.query_many(probe), ref.query_many(probe))

    # (group, value, weight) rows of one update over 24 of the bank's 25
    # groups; zero weights are dropped.
    _rows = st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 50), st.integers(0, 5)),
        min_size=1, max_size=60,
    )

    @given(st.lists(_rows, max_size=4), st.lists(_rows, min_size=1, max_size=4),
           st.sampled_from([8, 64]))
    @settings(max_examples=60, deadline=None)
    def test_reset_bank_matches_fresh_bank_exactly(self, before, after, width):
        reused = SketchBank(25, width=width, depth=2, seed=5)
        fresh = SketchBank(25, width=width, depth=2, seed=5)
        # Three full rounds write 864 cell indices: more than the 400
        # cells of the width-8 bank (reset clears densely), fewer than
        # the 3200 of the width-64 bank (reset replays the indices).
        full = [(g, v, 1) for g in range(24) for v in range(6)]
        for rows in [full] * 3 + before:
            runs = group_reduce(*np.array(rows).T)
            reused.update(runs.group_ids, runs.starts, runs.values, runs.counts)
        reused.reset()
        assert set(np.flatnonzero(reused.totals)) == set()
        assert not reused.tables.any() and not reused.totals.any()
        probe_groups = np.arange(25)  # 24 is never updated
        probe_starts = np.arange(0, 26 * 51, 51)
        probe_values = np.tile(np.arange(51), 25)
        for rows in after:
            runs = group_reduce(*np.array(rows).T)
            for bank in (reused, fresh):
                bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
            got = reused.query_runs(probe_groups, probe_starts, probe_values)
            want = fresh.query_runs(probe_groups, probe_starts, probe_values)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert set(np.flatnonzero(reused.totals)) == set(np.flatnonzero(fresh.totals))
        for gid in np.flatnonzero(fresh.totals).tolist():
            np.testing.assert_array_equal(
                reused.sketches([gid])[0].table, fresh.sketches([gid])[0].table
            )
            assert reused.totals[gid] == fresh.totals[gid]

    def test_query_runs_and_vectorized_entropy_match_scalar(self):
        rng = np.random.default_rng(29)
        bank = SketchBank(43, width=256, depth=4, seed=1)
        cands = {}
        for _ in range(3):
            g = rng.integers(0, 6, size=500)
            v = (rng.zipf(1.3, size=500) % 3000).astype(np.int64)
            runs = group_reduce(g, v)
            bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
            for i, gid in enumerate(runs.group_ids):
                cands.setdefault(int(gid), set()).update(runs.slice(i)[0].tolist())
        ods = np.asarray(sorted(cands) + [42])  # 42 never seen
        lists = [sorted(cands.get(int(o), set())) for o in ods]
        starts = np.zeros(len(ods) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in lists], out=starts[1:])
        values = np.concatenate([np.asarray(c, dtype=np.int64) for c in lists])
        estimates, totals = bank.query_runs(ods, starts, values)
        entropies = entropy_from_sketch_runs(estimates, totals, starts)
        for i, od in enumerate(ods):
            ref = entropy_from_sketch(
                bank.sketches([int(od)])[0], np.asarray(lists[i], dtype=np.int64)
            )
            assert entropies[i] == pytest.approx(ref, abs=1e-9)

    def test_query_of_the_updated_runs_reuses_nothing_stale(self):
        # Probing the very arrays of the last update reuses their cells;
        # any other arrays hash afresh.  Either way the estimates are the
        # per-group sketches' own, after later updates and a reset alike.
        rng = np.random.default_rng(3)
        bank = SketchBank(9, width=32, depth=3, seed=2)
        runs = group_reduce(rng.integers(0, 9, 400), rng.integers(0, 90, 400))
        other = group_reduce(rng.integers(0, 9, 400), rng.integers(0, 90, 400))
        # Same shape as the updated runs, other values.
        shifted = GroupedRuns(runs.group_ids, runs.starts, runs.values + 1, runs.counts)
        bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
        for step in ("updated", "other runs added", "reset"):
            for probe in (runs, other, shifted):
                estimates, totals = bank.query_runs(
                    probe.group_ids, probe.starts, probe.values
                )
                sketches = bank.sketches(probe.group_ids)
                want = [s.query_many(probe.slice(i)[0]) for i, s in enumerate(sketches)]
                np.testing.assert_array_equal(estimates, np.concatenate(want), err_msg=step)
                assert totals.tolist() == [s.total for s in sketches], step
            if step == "updated":
                bank.update(other.group_ids, other.starts, other.values, other.counts)
                bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
            else:
                bank.reset()
        assert not estimates.any() and not totals.any()

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_group_ids_are_refused(self, bad):
        # A group id is its slot: -1 would wrap onto group 5 and 6 would
        # land on group 0's cell one column over, so both are refused
        # before any counter moves.
        bank = SketchBank(6, width=64, depth=2, seed=0)
        runs = group_reduce(np.array([0, 3, 3]), np.array([7, 7, 9]))
        bank.update(runs.group_ids, runs.starts, runs.values, runs.counts)
        tables, totals = bank.tables.copy(), bank.totals.copy()
        ids, starts = np.array([2, bad]), np.array([0, 1, 2])
        with pytest.raises(ValueError, match=f"group id {bad} outside"):
            bank.update(ids, starts, np.array([7, 7]), np.array([1, 1]))
        with pytest.raises(ValueError, match=f"group id {bad} outside"):
            bank.query_runs(ids, starts, np.array([7, 7]))
        np.testing.assert_array_equal(bank.tables, tables)
        np.testing.assert_array_equal(bank.totals, totals)


class TestVectorizedODAttribution:
    def test_mixed_ingress_matches_scalar_resolution(self):
        topo = geant()  # two prefix allocations exercise the LPM walk
        router = Router(topo)
        rng = np.random.default_rng(4)
        onnet = np.concatenate(
            [
                pop.prefix.network | rng.integers(0, pop.prefix.size, size=20)
                for pop in topo.pops
            ]
        ).astype(np.int64)
        offnet = rng.integers(0, 1 << 32, size=300).astype(np.int64)
        ips = np.concatenate([onnet, offnet])
        pops = rng.integers(0, topo.n_pops, size=len(ips)).astype(np.int64)
        got = router.resolve_ods_mixed(pops, ips)
        expected = np.array(
            [router.resolve_od(int(p), int(ip)) for p, ip in zip(pops, ips)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_lookup_respects_route_changes(self):
        topo = geant()
        router = Router(topo)
        pop = topo.pops[3]
        before = router.egress_pops(np.array([pop.prefix.network + 5]))
        assert before[0] == pop.index
        router.table.remove(pop.prefix)
        after = router.egress_pops(np.array([pop.prefix.network + 5]))
        assert after[0] == router.default_egress


class TestSeedDetectionByteEquality:
    """Exact-mode detections must match the frozen parity fixture.

    The fixture pins one workload's detections
    (``tests/parity_fixture.py`` builds it,
    ``tools/freeze_parity_fixture.py`` re-freezes it on purpose); the
    kernel path must reproduce it byte-for-byte once serialized the
    same way.
    """

    def test_exact_mode_reproduces_seed_output(self):
        wl, topology, batches = parity_fixture.seed_workload()
        engine = StreamingDetectionEngine(
            topology, parity_fixture.stream_config(wl)
        )
        report = engine.process(batches)
        rendered = parity_fixture.render(wl, report)
        assert rendered == parity_fixture.FIXTURE_PATH.read_bytes()
        # The planted scan must actually be caught for this to mean much.
        assert parity_fixture.scan_caught(wl, report)

    def test_every_scored_bin_carries_its_entropy_spe(self):
        """Clean bins report their SPE too, and the entropy flag is
        exactly "SPE above the threshold"."""
        wl, topology, batches = parity_fixture.seed_workload()
        engine = StreamingDetectionEngine(
            topology, parity_fixture.stream_config(wl)
        )
        report = engine.process(batches)
        assert report.detections
        assert not all(d.detected_by_entropy for d in report.detections)
        for d in report.detections:
            assert d.spe_entropy > 0, d.bin
            assert d.detected_by_entropy == (d.spe_entropy > d.threshold), d.bin


class TestSeedSketchDetectionByteEquality:
    """Sketch-mode detections, entropy SPEs included, must match their
    frozen fixture: a hashing or estimator change that moves any
    Count-Min counter moves an SPE bit."""

    def test_sketch_mode_reproduces_seed_output(self):
        wl, topology, batches = parity_fixture.seed_workload()
        engine = StreamingDetectionEngine(
            topology, parity_fixture.stream_config(wl, exact=False)
        )
        report = engine.process(batches)
        rendered = parity_fixture.render(wl, report)
        assert rendered == parity_fixture.SKETCH_FIXTURE_PATH.read_bytes()
        assert parity_fixture.scan_caught(wl, report)
