"""The shard row block: rows, scatter, ownership and hostile payloads.

Three contracts beyond ``test_cluster.py``'s:

* **rows** — a block holds exactly the rows ``BinAccumulator.finalize``
  computes for the ODs its shard saw, and scattering it back gives the
  finalized ``BinSummary`` bit for bit;
* **scatter** — blocks of an OD split, merged in any order, give the
  unsplit bin's rows; a block carrying an OD its shard does not own, a
  second block from one shard, and blocks of different bins are
  refused;
* **hostile payloads** — ``from_bytes`` builds zero-copy views of
  whatever arrives, so a body that lies about its shapes *under a valid
  CRC* must be refused before any view is built from a declared size.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cluster import _random_batch, _summary_from_batch

from repro.cluster import ShardBinSummary, SummaryCorruptError, merge_summaries
from repro.stream.window import BinAccumulator, BinSummary

P = 6  # OD flows in these tests' ensembles
_HEADER = "<iiqqq"  # n_od_flows, shard, bin, n_records, n rows
_WORDS = 8 + struct.calcsize(_HEADER)  # magic + CRC + header: rows start here


def _assert_rows_equal(got, want):
    np.testing.assert_array_equal(got.entropy, want.entropy)
    np.testing.assert_array_equal(got.packets, want.packets)
    np.testing.assert_array_equal(got.bytes, want.bytes)
    assert (got.bin, got.n_records) == (want.bin, want.n_records)


class TestRows:
    @pytest.mark.parametrize("exact", [True, False])
    def test_block_scatters_back_to_the_finalized_bin(self, exact):
        rng = np.random.default_rng(4)
        acc = BinAccumulator(n_od_flows=P, exact=exact, width=64)
        acc.add_batch(rng.integers(1, P, size=150), _random_batch(150, rng))
        block = ShardBinSummary.from_accumulator(acc, 7)
        assert block.ods.tolist() == [1, 2, 3, 4, 5]  # OD 0 saw nothing
        _assert_rows_equal(block.to_bin_summary(), acc.finalize(7))
        clone = ShardBinSummary.from_bytes(block.to_bytes())
        assert clone.to_bytes() == block.to_bytes()
        assert not clone.entropy.flags.writeable  # views of the payload
        _assert_rows_equal(clone.to_bin_summary(), acc.finalize(7))

    def test_partial_features_volume_only_od_and_gap_bin(self):
        entropy = np.zeros((P, 4))
        # OD 1 has a source-address entropy only, OD 4 none at all
        # (volume only).
        entropy[1, 0] = 0.811
        packets, byte_counts = np.zeros(P), np.zeros(P)
        packets[[1, 4]], byte_counts[[1, 4]] = (4, 2), (400, 90)
        partial = ShardBinSummary.from_bin_summary(
            BinSummary(bin=5, entropy=entropy, packets=packets, bytes=byte_counts)
        )
        gap = ShardBinSummary.from_accumulator(BinAccumulator(P, exact=True), 6)
        assert partial.ods.tolist() == [1, 4]
        assert partial.packets.tolist() == [4, 2]
        assert partial.entropy[0, 0] > 0 and not partial.entropy[1].any()
        assert gap.ods.tolist() == [] and gap.n_records == 0
        for block in (partial, gap, ShardBinSummary(5, P)):
            clone = ShardBinSummary.from_bytes(block.to_bytes())
            assert clone.to_bytes() == block.to_bytes()
            _assert_rows_equal(clone.to_bin_summary(), block.to_bin_summary())


class TestScatter:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 120),
        n_shards=st.integers(1, 8),
    )
    def test_od_split_in_any_order_is_the_unsplit_bin(self, seed, n, n_shards):
        rng = np.random.default_rng(seed)
        batch = _random_batch(n, rng)
        batch.src_port[:] = rng.integers(0, 5, size=n)
        ods = rng.integers(0, P, size=n)
        whole = BinAccumulator(n_od_flows=P, exact=True)
        whole.add_batch(ods, batch)
        expected = whole.finalize(3)
        blocks = [
            _summary_from_batch(
                batch.select(ods % n_shards == s), ods[ods % n_shards == s],
                n_od_flows=P, bin_index=3, shard=s,
            )
            for s in range(n_shards)
        ]
        # Half the blocks cross the wire first: read-only views and
        # fresh rows must be interchangeable.
        blocks[::2] = [ShardBinSummary.from_bytes(b.to_bytes()) for b in blocks[::2]]
        reference = None
        for order in (blocks, blocks[::-1], list(rng.permutation(blocks))):
            merged = merge_summaries(order, n_shards)
            _assert_rows_equal(merged.to_bin_summary(), expected)
            reference = reference or merged.to_bytes()
            assert merged.to_bytes() == reference

    @pytest.mark.parametrize("exact", [True, False])
    def test_k_od_split_is_the_unsplit_block_byte_for_byte(self, exact):
        # Each OD's row depends only on its own records, so in either
        # mode the K shards' blocks scatter to the one-shard block.
        rng = np.random.default_rng(2)
        batch = _random_batch(400, rng)
        ods = rng.integers(0, P, size=400)
        whole = _summary_from_batch(batch, ods, n_od_flows=P, exact=exact)
        for n_shards in (1, 2, 3, 5):
            blocks = [
                _summary_from_batch(
                    batch.select(ods % n_shards == s), ods[ods % n_shards == s],
                    n_od_flows=P, exact=exact, shard=s,
                )
                for s in range(n_shards)
            ]
            merged = merge_summaries(blocks, n_shards)
            assert merged.to_bytes() == whole.to_bytes()
            assert merged.n_records == 400

    @pytest.mark.parametrize("wire", [True, False], ids=["read-only", "writable"])
    def test_merge_mutates_neither_input(self, wire):
        rng = np.random.default_rng(6)
        batch = _random_batch(90, rng)
        ods = rng.integers(0, P, size=90)
        blocks = [
            _summary_from_batch(batch.select(ods % 2 == s), ods[ods % 2 == s],
                                n_od_flows=P, shard=s)
            for s in range(2)
        ]
        if wire:
            blocks = [ShardBinSummary.from_bytes(b.to_bytes()) for b in blocks]
        before = [b.to_bytes() for b in blocks]
        merged = merge_summaries(blocks[::-1], 2)
        scored = merged.to_bin_summary()
        scored.entropy[:] = -1.0  # the scored bin is the caller's to write
        assert [b.to_bytes() for b in blocks] == before
        for block in blocks:
            for name in ("ods", "entropy", "packets", "bytes"):
                assert not np.shares_memory(getattr(merged, name), getattr(block, name))

    def test_a_block_with_a_foreign_od_is_refused(self):
        rng = np.random.default_rng(2)
        batch = _random_batch(40, rng)
        mine = _summary_from_batch(batch, np.full(40, 2), n_od_flows=P, shard=0)
        theirs = _summary_from_batch(batch, np.full(40, 3), n_od_flows=P, shard=1)
        assert mine.merge(theirs, 2).ods.tolist() == [2, 3]
        liar = _summary_from_batch(batch, np.full(40, 5), n_od_flows=P, shard=0)
        with pytest.raises(ValueError, match="shard 0 of 2 sent OD 5, which shard 1 owns"):
            merge_summaries([liar, theirs], 2)
        with pytest.raises(ValueError, match="shard 1 of 1 sent OD 3"):
            merge_summaries([theirs], 1)

    def test_mismatched_blocks_are_refused(self):
        rng = np.random.default_rng(5)
        batch = _random_batch(30, rng)
        base = _summary_from_batch(batch, np.zeros(30, dtype=np.int64))
        other_bin = _summary_from_batch(
            batch, np.ones(30, dtype=np.int64), bin_index=1, shard=1
        )
        with pytest.raises(ValueError, match="different bins"):
            merge_summaries([base, other_bin], 2)
        with pytest.raises(ValueError, match="different bins or ensembles"):
            merge_summaries([base, ShardBinSummary(0, P + 1, shard=1)], 2)
        with pytest.raises(ValueError, match="two blocks of bin 0 from shard 0"):
            merge_summaries([base, ShardBinSummary(0, 4)], 2)
        with pytest.raises(ValueError):
            merge_summaries([])


def _payload():
    rng = np.random.default_rng(17)
    return _summary_from_batch(
        _random_batch(60, rng), rng.integers(0, P, size=60), n_od_flows=P,
    ).to_bytes()


def _reframe(payload, mutate=None, header=None):
    """``payload`` with its row words (and/or header fields) tampered
    and the CRC recomputed over the result — a *valid* frame."""
    fields = list(struct.unpack_from(_HEADER, payload, 8))
    for index, value in (header or {}).items():
        fields[index] = value(fields) if callable(value) else value
    words = np.frombuffer(payload, dtype="<i8", offset=_WORDS).copy()
    if mutate is not None:
        words = mutate(words)
    body = struct.pack(_HEADER, *fields) + words.tobytes()
    return b"RBS4" + struct.pack("<I", zlib.crc32(body)) + body


# Word layout of the rows, n of them (P = 6 ODs, all seen here):
# ods[n] entropy[4n] (float64 bits) packets[n] bytes[n]
_N = P
_ENTROPY, _PACKETS, _BYTES = _N, 5 * _N, 6 * _N


def _set(index, value):
    """A tampering that overwrites one word."""
    def mutate(words):
        words[index] = value
        return words
    return mutate


def _set_float(index, value):
    def mutate(words):
        words.view("<f8")[index] = value
        return words
    return mutate


def _swap(i, j):
    def mutate(words):
        words[[i, j]] = words[[j, i]]
        return words
    return mutate


HOSTILE = {
    "n one more than held": (None, {4: lambda f: f[4] + 1}),
    "n one less than held": (None, {4: lambda f: f[4] - 1}),
    "n negative": (None, {4: -1}),
    "n huge": (None, {4: 2**62}),
    "n above the ensemble": (None, {0: _N - 1}),
    "ensemble negative": (None, {0: -1}),
    "shard negative": (None, {1: -2}),
    "records negative": (None, {3: -1}),
    "OD id negative": (_set(0, -1), None),
    "OD id >= n_od_flows": (_set(_N - 1, P), None),
    "OD ids unsorted": (_swap(0, 1), None),
    "OD ids repeated": (_set(1, 0), None),
    "negative packets": (_set(_PACKETS + 2, -1), None),
    "negative bytes": (_set(_BYTES, -(2**63)), None),
    "negative entropy": (_set_float(_ENTROPY + 3, -0.5), None),
    "NaN entropy": (_set_float(_ENTROPY, np.nan), None),
    "infinite entropy": (_set_float(_ENTROPY + 1, np.inf), None),
    "trailing bytes": (lambda w: np.append(w, 0), None),
    "truncated slab": (lambda w: w[:-1], None),
    "nothing after the header": (lambda w: w[:0], None),
}


class TestHostilePayloads:
    def test_the_tampering_helper_is_an_identity_by_default(self):
        assert _reframe(_payload()) == _payload()
        assert ShardBinSummary.from_bytes(_payload()).ods.tolist() == list(range(P))

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_shape_lies_under_a_valid_crc_are_refused(self, case):
        bad = _reframe(_payload(), *HOSTILE[case])
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(bad)

    def test_out_of_order_ods_are_named(self):
        bad = _reframe(_payload(), *HOSTILE["OD ids unsorted"])
        with pytest.raises(SummaryCorruptError, match="OD ids out of order"):
            ShardBinSummary.from_bytes(bad)

    @pytest.mark.parametrize("magic", [b"RBS3", b"XXXX", b""])
    def test_foreign_and_older_magics_are_version_errors(self, magic):
        with pytest.raises(ValueError, match="RBS4") as excinfo:
            ShardBinSummary.from_bytes(magic + _payload()[4:])
        assert not isinstance(excinfo.value, SummaryCorruptError)

    def test_short_payload_is_corrupt(self):
        with pytest.raises(SummaryCorruptError):
            ShardBinSummary.from_bytes(b"RBS4" + bytes(12))

    @settings(max_examples=300, deadline=None)
    @given(
        position=st.floats(0, 1, exclude_max=True),
        value=st.one_of(
            st.integers(-3, 2 * P),
            st.sampled_from([2**31, 2**62, 2**63 - 1, -(2**63)]),
        ),
    )
    def test_any_single_word_lie_is_refused_or_harmless(self, position, value):
        # Whatever one int64 of the body claims, from_bytes either
        # refuses it (ValueError, never IndexError / MemoryError /
        # struct.error) or returns a block that scatters within bounds
        # and re-serializes to the same bytes.
        good = _payload()
        n_words = (len(good) - _WORDS) // 8
        bad = _reframe(good, _set(int(position * n_words), value))
        try:
            block = ShardBinSummary.from_bytes(bad)
        except SummaryCorruptError:
            return
        scored = block.to_bin_summary()
        assert scored.entropy.shape == (P, 4)
        assert np.isfinite(scored.entropy).all()
        assert block.to_bytes() == bad
