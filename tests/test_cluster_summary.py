"""The exact shard summary as arrays: merge algebra and hostile payloads.

Two contracts beyond ``test_cluster.py``'s:

* **algebra on arrays** — however a bin's records are split (by OD, by
  row stripe, with empty parts) and in whatever order and grouping the
  parts are folded, the merged payload is the same bytes and scores
  bit for bit like ``BinAccumulator.finalize`` on the unsplit records;
  the no-value-sort interleave for disjoint OD sets and the
  ``group_reduce`` path for overlapping ones agree wherever both apply;
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
from repro.cluster.summary import _merge_runs
from repro.kernels import group_reduce
from repro.stream.window import BinAccumulator

P = 6  # OD flows in these tests' ensembles
_BODY_WORDS = 48  # magic + CRC + header: the int64 words start here


def _foldings(parts):
    """Every order of ``parts`` under a left fold, a right fold and a
    balanced tree — all the shapes a coordinator or tier can produce."""
    for order in itertools.permutations(parts):
        yield merge_summaries(order)
        right = order[-1]
        for part in reversed(order[:-1]):
            right = part.merge(right)
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
        n_parts=st.integers(1, 4),
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
        for merged in _foldings(parts):
            assert merged.to_bytes() == reference
            scored = merged.to_bin_summary()
            np.testing.assert_array_equal(scored.entropy, expected.entropy)
            np.testing.assert_array_equal(scored.packets, expected.packets)
            np.testing.assert_array_equal(scored.bytes, expected.bytes)
            assert (scored.bin, scored.n_records) == (3, expected.n_records)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80))
    def test_interleave_agrees_with_group_reduce_on_disjoint_ods(self, seed, n):
        rng = np.random.default_rng(seed)
        ods = rng.integers(0, 12, size=n)
        values = rng.integers(0, 9, size=n)
        weights = rng.integers(1, 50, size=n)
        left = ods % 3 == 0  # disjoint OD sets, interleaved ids
        a = group_reduce(ods[left], values[left], weights[left])
        b = group_reduce(ods[~left], values[~left], weights[~left])
        interleaved = _merge_runs(a, b)
        reduced = group_reduce(ods, values, weights)  # the overlapping branch's call
        for name in ("group_ids", "starts", "values", "counts"):
            np.testing.assert_array_equal(
                getattr(interleaved, name), getattr(reduced, name), err_msg=name
            )

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
        assert empty_shard.merge(partial).to_bytes() == partial.to_bytes()
        assert partial.merge(empty_shard).to_bytes() == partial.to_bytes()
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
        merged = a.merge(b)
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
        merged = summary.merge(ShardBinSummary.from_bytes(good))
        assert merged.entropy_matrix().shape == (P, 4)
        again = summary.to_bytes()
        assert ShardBinSummary.from_bytes(again).to_bytes() == again
        if exact:  # views of the payload: nothing was re-derived
            assert again == bad
