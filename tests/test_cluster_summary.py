"""The exact shard summary as arrays: merge algebra and hostile payloads.

Two contracts beyond ``test_cluster.py``'s:

* **algebra on arrays** — however a bin's records are split (by OD, by
  row stripe, with empty parts) and in whatever order and grouping the
  parts are folded, the merged payload is the same bytes and scores
  bit for bit like ``BinAccumulator.finalize`` on the unsplit records —
  the every-fold-order suite is the oracle for the one K-way
  ``merge_summaries``; the no-value-sort interleave for disjoint OD
  sets and the ``group_reduce`` path for overlapping ones agree
  wherever both apply; sketch mode equals a pairwise
  ``CountMinSketch.merge`` fold;
* **hostile payloads** — ``from_bytes`` builds zero-copy views of
  whatever arrives, so a body that lies about its shapes *under a valid
  CRC* must be refused before any view is built from a declared size.
"""

import itertools
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cluster import _random_batch, _summary_from_batch

from repro.cluster import ShardBinSummary, SummaryCorruptError, merge_summaries
from repro.kernels import group_reduce
from repro.stream.window import BinAccumulator

P = 6  # OD flows in these tests' ensembles
_BODY_WORDS = 48  # magic + CRC + header: the int64 words start here


def _orders(parts, seed=0, n_sampled=24):
    """Every order of up to four parts; a seeded sample of the K!
    orders beyond that."""
    if len(parts) <= 4:
        return list(itertools.permutations(parts))
    rng = np.random.default_rng(seed)
    return [[parts[i] for i in rng.permutation(len(parts))] for _ in range(n_sampled)]


def _foldings(parts, seed=0):
    """Orders of ``parts`` under one K-way merge, a right fold and a
    balanced tree of two-way merges — all the shapes a coordinator or
    tier can produce."""
    for order in _orders(parts, seed):
        yield merge_summaries(order)
        right = order[-1]
        for part in reversed(order[:-1]):
            right = merge_summaries([part, right])
        yield right
        level = list(order)
        while len(level) > 1:
            level = [
                merge_summaries(level[i:i + 2]) for i in range(0, len(level), 2)
            ]
        yield level[0]


class TestMergeAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 120),
        n_parts=st.integers(1, 8),
        by_od=st.booleans(),
    )
    def test_any_split_any_fold_is_the_unsplit_bin(self, seed, n, n_parts, by_od):
        rng = np.random.default_rng(seed)
        # Few distinct values, so stripes genuinely share (OD, value)
        # keys and the overlapping branch has counts to sum.
        batch = _random_batch(n, rng)
        batch.src_port[:] = rng.integers(0, 5, size=n)
        ods = rng.integers(0, P, size=n)
        whole = BinAccumulator(n_od_flows=P, exact=True)
        whole.add_batch(ods, batch)
        expected = whole.finalize(3)
        reference = ShardBinSummary.from_accumulator(whole, 3).to_bytes()

        owner = ods % n_parts if by_od else np.arange(n) % n_parts
        parts = [
            _summary_from_batch(
                batch.select(owner == s), ods[owner == s], n_od_flows=P,
                bin_index=3,
            )
            for s in range(n_parts)
        ]
        # Half the parts cross the wire first: read-only views and
        # fresh kernel output must be interchangeable.
        parts[::2] = [ShardBinSummary.from_bytes(s.to_bytes()) for s in parts[::2]]
        for merged in _foldings(parts, seed):
            assert merged.to_bytes() == reference
            scored = merged.to_bin_summary()
            np.testing.assert_array_equal(scored.entropy, expected.entropy)
            np.testing.assert_array_equal(scored.packets, expected.packets)
            np.testing.assert_array_equal(scored.bytes, expected.bytes)
            assert (scored.bin, scored.n_records) == (3, expected.n_records)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 80),
        n_parts=st.integers(2, 6),
    )
    def test_interleave_agrees_with_group_reduce_on_disjoint_ods(
        self, seed, n, n_parts
    ):
        rng = np.random.default_rng(seed)
        ods = rng.integers(0, 12, size=n)
        values = rng.integers(0, 9, size=n)
        weights = rng.integers(1, 50, size=n)
        parts = []
        for s in range(n_parts):  # disjoint OD sets, interleaved ids
            part = ShardBinSummary(0, 12)
            mine = ods % n_parts == s
            part._runs = [group_reduce(ods[mine], values[mine], weights[mine])] * 4
            parts.append(part)
        interleaved = merge_summaries(parts)._runs[0]
        reduced = group_reduce(ods, values, weights)  # the overlapping branch's call
        for name in ("group_ids", "starts", "values", "counts"):
            np.testing.assert_array_equal(
                getattr(interleaved, name), getattr(reduced, name), err_msg=name
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_parts=st.integers(1, 6))
    def test_sketch_merge_is_the_pairwise_count_min_fold(self, seed, n_parts):
        # A random record split: parts share ODs, so an OD's tables are
        # summed across every part that holds it.  The reference folds
        # CountMinSketch.merge two at a time.
        rng = np.random.default_rng(seed)
        batch = _random_batch(150, rng)
        batch.src_port[:] = rng.integers(0, 40, size=150)
        ods = rng.integers(0, P, size=150)
        owner = rng.integers(0, n_parts, size=150)
        parts = [
            _summary_from_batch(
                batch.select(owner == s), ods[owner == s], n_od_flows=P,
                exact=False, width=64, bin_index=2,
            )
            for s in range(n_parts)
        ]
        parts[1::2] = [ShardBinSummary.from_bytes(s.to_bytes()) for s in parts[1::2]]
        merged = merge_summaries(parts[::-1])
        for od in range(P):
            holders = [part._sketches[od] for part in parts if od in part._sketches]
            assert (od in merged._sketches) == bool(holders)
            for k in range(4) if holders else ():
                sketch = holders[0][k].sketch
                for entry in holders[1:]:
                    sketch = sketch.merge(entry[k].sketch)
                ours = merged._sketches[od][k]
                np.testing.assert_array_equal(ours.sketch.table, sketch.table)
                assert ours.sketch.total == sketch.total
                assert ours.candidates == set().union(
                    *(entry[k].candidates for entry in holders)
                )
        np.testing.assert_array_equal(merged.packets, sum(p.packets for p in parts))
        assert merged.n_records == 150
        again = merge_summaries([merge_summaries(parts[:1]), *parts[1:]])
        assert again.to_bytes() == merged.to_bytes()

    def test_partial_features_empty_shard_and_gap_bin_round_trip(self):
        acc = BinAccumulator(n_od_flows=P, exact=True)
        nothing = (np.zeros(0, dtype=np.int64),) * 2
        # OD 1 has source features only, OD 4 none at all (volume only).
        acc.add_histograms(
            1, [([7, 9], [3, 1]), nothing, ([80], [4]), nothing], 4, 400
        )
        acc.add_histograms(4, [nothing] * 4, 2, 90)
        partial = ShardBinSummary.from_accumulator(acc, 5)
        empty_shard = ShardBinSummary(5, P)  # a shard that saw no record
        gap = ShardBinSummary.from_accumulator(BinAccumulator(P, exact=True), 6)
        for summary in (partial, empty_shard, gap):
            clone = ShardBinSummary.from_bytes(summary.to_bytes())
            assert clone.to_bytes() == summary.to_bytes()
            np.testing.assert_array_equal(
                clone.entropy_matrix(), summary.entropy_matrix()
            )
        assert partial.active_ods == [1]
        assert partial.packets.tolist() == [0, 4, 0, 0, 2, 0]
        entropy = partial.entropy_matrix()
        assert entropy[1, 0] > 0 and not entropy[1, 1] and not entropy[4].any()
        assert merge_summaries([empty_shard, partial]).to_bytes() == partial.to_bytes()
        assert merge_summaries([partial, empty_shard]).to_bytes() == partial.to_bytes()
        assert gap.active_ods == [] and not gap.entropy_matrix().any()

    @pytest.mark.parametrize("overlap", [False, True])
    def test_merge_mutates_neither_read_only_input(self, overlap):
        rng = np.random.default_rng(2)
        batch = _random_batch(90, rng)
        ods = rng.integers(0, P, size=90)
        owner = np.arange(90) % 2 if overlap else ods % 2
        wire = [
            _summary_from_batch(
                batch.select(owner == s), ods[owner == s], n_od_flows=P
            ).to_bytes()
            for s in range(2)
        ]
        a, b = (ShardBinSummary.from_bytes(payload) for payload in wire)
        assert not a.packets.flags.writeable
        assert not any(runs.counts.flags.writeable for runs in a._runs)
        merged = merge_summaries([a, b])
        assert [a.to_bytes(), b.to_bytes()] == wire
        whole = _summary_from_batch(batch, ods, n_od_flows=P)
        assert merged.to_bytes() == whole.to_bytes()


def _payload(exact=True):
    rng = np.random.default_rng(17)
    return _summary_from_batch(
        _random_batch(60, rng), rng.integers(0, P, size=60), n_od_flows=P,
        exact=exact, width=16,
    ).to_bytes()


def _reframe(payload, mutate=None, header=None):
    """``payload`` with its int64 words (and/or header fields) tampered
    and the CRC recomputed over the result — a *valid* frame."""
    fields = list(struct.unpack_from("<B3xiiiqqq", payload, 8))
    for index, value in (header or {}).items():
        fields[index] = value
    words = np.frombuffer(payload, dtype="<i8", offset=_BODY_WORDS).copy()
    if mutate is not None:
        words = mutate(words)
    body = struct.pack("<B3xiiiqqq", *fields) + words.tobytes()
    return b"RBS3" + struct.pack("<I", zlib.crc32(body)) + body


# Word layout of the exact body after the header, p = P:
# packets[P] bytes[P] | G M group_ids[G] starts[G+1] values[M] counts[M] | ...
_G, _M, _IDS = 2 * P, 2 * P + 1, 2 * P + 2


def _starts(words):
    return _IDS + int(words[_G])


def _counts(words):
    return _starts(words) + int(words[_G]) + 1 + int(words[_M])


def _set(index, value):
    """A tampering that overwrites one word; ``index`` and ``value``
    may be functions of the words (positions depend on G and M)."""
    def mutate(words):
        at = index(words) if callable(index) else index
        words[at] = value(words) if callable(value) else value
        return words
    return mutate


def _swap(i, j):
    def mutate(words):
        a, b = i(words), j(words)
        words[[a, b]] = words[[b, a]]
        return words
    return mutate


HOSTILE_EXACT = {
    "G negative": _set(_G, -1),
    "G huge": _set(_G, 2**62),
    "G overflowing": _set(_G, 2**63 - 1),
    "G one more than held": _set(_G, lambda w: w[_G] + 1),
    "M negative": _set(_M, -3),
    "M huge": _set(_M, 2**61),
    "M one less than held": _set(_M, lambda w: w[_M] - 1),
    "starts not non-decreasing": _swap(lambda w: _starts(w) + 1,
                                       lambda w: _starts(w) + 2),
    "starts do not begin at 0": _set(_starts, 1),
    "starts do not end at M": _set(lambda w: _starts(w) + int(w[_G]),
                                   lambda w: w[_M] - 1),
    "an empty group": _set(lambda w: _starts(w) + 1, 0),
    "group id >= n_od_flows": _set(lambda w: _IDS + int(w[_G]) - 1, P),
    "group id negative": _set(_IDS, -1),
    "group ids unsorted": _swap(lambda w: _IDS, lambda w: _IDS + 1),
    "group ids repeated": _set(_IDS + 1, lambda w: w[_IDS]),
    "zero count": _set(_counts, 0),
    "negative count": _set(lambda w: _counts(w) + 1, -5),
    "trailing bytes": lambda w: np.append(w, 0),
    "truncated slab": lambda w: w[:-1],
    "nothing after the header": lambda w: w[:0],
}


class TestHostilePayloads:
    def test_the_tampering_helper_is_an_identity_by_default(self):
        assert _reframe(_payload()) == _payload()
        assert _reframe(_payload(exact=False)) == _payload(exact=False)

    @pytest.mark.parametrize("case", sorted(HOSTILE_EXACT))
    def test_exact_shape_lies_under_a_valid_crc_are_refused(self, case):
        bad = _reframe(_payload(), HOSTILE_EXACT[case])
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(bad)

    @pytest.mark.parametrize("header", [
        {0: 7},          # unknown mode
        {1: -1},         # negative ensemble width
        {1: 2**31 - 1},  # ensemble far wider than the payload
        {1: P - 1},      # every slab shifts by one OD
    ])
    def test_header_lies_under_a_valid_crc_are_refused(self, header):
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(_reframe(_payload(), header=header))

    @pytest.mark.parametrize("mutate, header", [
        (_set(2 * P, 2**40), None),       # n_active
        (_set(2 * P, -1), None),          # no ODs, then trailing bytes
        (_set(2 * P + 1, P), None),       # first OD id out of range
        (_set(2 * P + 3, 2**59), None),   # n_candidates
        (None, {2: 2**20}),               # width: tables the payload lacks
        (None, {2: 4}),                   # width below the sketch minimum
        (None, {3: -4}),                  # depth
        (lambda w: w[:-1], None),
    ])
    def test_sketch_shape_lies_under_a_valid_crc_are_refused(self, mutate, header):
        bad = _reframe(_payload(exact=False), mutate, header)
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(bad)

    def test_every_negative_sketch_counter_is_refused(self):
        # A negative total under a valid CRC used to pass and score as
        # a NaN (or negative) entropy; walk the body to reach all 24
        # (OD, feature) totals, then a table counter and a volume.
        good = _payload(exact=False)
        width, depth = struct.unpack_from("<B3xiiiqqq", good, 8)[2:4]
        words = np.frombuffer(good, dtype="<i8", offset=_BODY_WORDS)
        totals, at = [], 2 * P + 1
        for _ in range(int(words[2 * P])):
            at += 1  # the OD id
            for _ in range(4):
                totals.append(at)
                at += 2 + depth * width + int(words[at + 1])
        assert len(totals) == 4 * P and at == len(words)
        for position in totals + [totals[0] + 2, 0, P]:
            for value in (-1, -3, -(2**63)):
                bad = _reframe(good, _set(position, value))
                with pytest.raises(SummaryCorruptError, match="negative"):
                    ShardBinSummary.from_bytes(bad)

    def test_short_and_foreign_payloads(self):
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(b"RBS3" + bytes(12))
        with pytest.raises(ValueError, match="RBS3"):
            ShardBinSummary.from_bytes(b"")

    @settings(max_examples=300, deadline=None)
    @given(
        exact=st.booleans(),
        position=st.floats(0, 1, exclude_max=True),
        value=st.one_of(
            st.integers(-3, 2 * P),
            st.sampled_from([2**31, 2**62, 2**63 - 1, -(2**63)]),
        ),
    )
    def test_any_single_word_lie_is_refused_or_harmless(self, exact, position, value):
        # Whatever one int64 of the body claims, from_bytes either
        # refuses it (ValueError, never IndexError / MemoryError /
        # struct.error) or returns a summary that scores, merges and
        # re-serializes within bounds.
        good = _payload(exact)
        n_words = (len(good) - _BODY_WORDS) // 8
        bad = _reframe(good, _set(int(position * n_words), value))
        try:
            summary = ShardBinSummary.from_bytes(bad)
        except SummaryCorruptError:
            return
        assert summary.entropy_matrix().shape == (P, 4)
        assert np.isfinite(summary.entropy_matrix()).all()
        merged = merge_summaries([summary, ShardBinSummary.from_bytes(good)])
        assert merged.entropy_matrix().shape == (P, 4)
        assert np.isfinite(merged.entropy_matrix()).all()
        again = summary.to_bytes()
        assert ShardBinSummary.from_bytes(again).to_bytes() == again
        if exact:  # views of the payload: nothing was re-derived
            assert again == bad
