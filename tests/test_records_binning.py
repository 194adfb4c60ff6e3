"""Tests for flow records and time binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.binning import BIN_SECONDS, BINS_PER_DAY, BINS_PER_WEEK, TimeBins, bin_flows
from repro.flows.records import COLUMN_SPEC, FlowRecord, FlowRecordBatch
from repro.net.addressing import parse_ip


def _sample_batch(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return FlowRecordBatch(
        src_ip=rng.integers(0, 1 << 32, n),
        dst_ip=rng.integers(0, 1 << 32, n),
        src_port=rng.integers(0, 65536, n),
        dst_port=rng.integers(0, 65536, n),
        protocol=np.full(n, 6),
        packets=rng.integers(1, 100, n),
        bytes=rng.integers(40, 100_000, n),
        timestamp=rng.uniform(0, 600, n),
        ingress_pop=rng.integers(0, 11, n),
    )


class TestFlowRecord:
    def test_str_contains_ips_and_ports(self):
        rec = FlowRecord(
            src_ip=parse_ip("10.0.0.1"), dst_ip=parse_ip("10.0.0.2"),
            src_port=1234, dst_port=80, packets=5, bytes=500,
        )
        text = str(rec)
        assert "10.0.0.1:1234" in text and "10.0.0.2:80" in text

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            FlowRecord(src_ip=0, dst_ip=0, src_port=0, dst_port=0, packets=-1)

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            FlowRecord(src_ip=0, dst_ip=0, src_port=70000, dst_port=0)


class TestFlowRecordBatch:
    def test_from_records_round_trip(self):
        records = [
            FlowRecord(src_ip=1, dst_ip=2, src_port=3, dst_port=4, packets=5, bytes=6,
                       timestamp=7.0, ingress_pop=8)
        ]
        batch = FlowRecordBatch.from_records(records)
        assert len(batch) == 1
        assert batch.record(0) == records[0]

    def test_empty(self):
        batch = FlowRecordBatch.empty()
        assert len(batch) == 0
        assert batch.total_packets == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            FlowRecordBatch(src_ip=np.zeros(2), dst_ip=np.zeros(3))

    def test_columns_read_only(self):
        batch = _sample_batch()
        with pytest.raises(AttributeError):
            batch.src_ip = np.zeros(len(batch))

    def test_concat(self):
        a, b = _sample_batch(5, 0), _sample_batch(7, 1)
        merged = FlowRecordBatch.concat([a, b])
        assert len(merged) == 12
        assert merged.total_packets == a.total_packets + b.total_packets

    def test_concat_empty_list(self):
        assert len(FlowRecordBatch.concat([])) == 0

    def test_select_mask(self):
        batch = _sample_batch(20)
        mask = batch.packets > 50
        sub = batch.select(mask)
        assert len(sub) == int(mask.sum())
        assert np.all(sub.packets > 50)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), seed=st.integers(0, 2**16), density=st.floats(0, 1))
    def test_select_mask_equals_per_column_mask(self, n, seed, density):
        batch = _sample_batch(n, seed)
        mask = np.random.default_rng(seed).uniform(size=n) < density
        sub = batch.select(mask)
        for name, dtype in COLUMN_SPEC:
            got, want = getattr(sub, name), getattr(batch, name)[mask]
            assert got.dtype == want.dtype == dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("length", [0, 9, 11])
    def test_select_rejects_a_wrong_length_mask(self, length):
        with pytest.raises(IndexError):
            _sample_batch(10).select(np.ones(length, dtype=bool))

    def test_with_columns_rejects_unknown(self):
        with pytest.raises(KeyError):
            _sample_batch().with_columns(nonsense=np.zeros(10))

    def test_anonymized_masks_11_bits(self):
        batch = _sample_batch()
        anon = batch.anonymized(11)
        assert np.all(anon.src_ip & 0x7FF == 0)
        assert np.all(anon.src_ip >> 11 == batch.src_ip >> 11)

    def test_anonymized_zero_bits_is_identity(self):
        batch = _sample_batch()
        assert batch.anonymized(0) is batch

    def test_sort_by_time(self):
        batch = _sample_batch(50).sort_by_time()
        assert np.all(np.diff(batch.timestamp) >= 0)

    def test_iteration_yields_records(self):
        batch = _sample_batch(3)
        records = list(batch)
        assert len(records) == 3
        assert all(isinstance(r, FlowRecord) for r in records)


class TestTimeBins:
    def test_constants(self):
        assert BIN_SECONDS == 300.0
        assert BINS_PER_DAY == 288
        assert BINS_PER_WEEK == 2016

    def test_for_weeks(self):
        assert TimeBins.for_weeks(3).n_bins == 3 * 2016

    def test_index_and_bounds(self):
        bins = TimeBins(10)
        assert bins.index(0.0) == 0
        assert bins.index(299.9) == 0
        assert bins.index(300.0) == 1
        with pytest.raises(ValueError):
            bins.index(3000.0)
        with pytest.raises(ValueError):
            bins.index(-1.0)

    def test_indices_vectorized_marks_outside(self):
        bins = TimeBins(2)
        idx = bins.indices(np.array([-5.0, 10.0, 550.0, 600.0]))
        assert list(idx) == [-1, 0, 1, -1]

    def test_bin_start(self):
        bins = TimeBins(5, start=100.0)
        assert bins.bin_start(2) == 700.0
        with pytest.raises(ValueError):
            bins.bin_start(5)

    def test_centers_and_hours(self):
        bins = TimeBins(4)
        assert bins.centers()[0] == pytest.approx(150.0)
        assert bins.hours()[-1] == pytest.approx((3.5 * 300) / 3600)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TimeBins(0)
        with pytest.raises(ValueError):
            TimeBins(5, width=-1)


class TestBinFlows:
    def test_partition_preserves_records_inside_grid(self):
        batch = _sample_batch(100)
        bins = TimeBins(2)
        parts = bin_flows(batch, bins)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == len(batch)

    def test_bins_are_time_consistent(self):
        batch = _sample_batch(100)
        bins = TimeBins(2)
        parts = bin_flows(batch, bins)
        assert np.all(parts[0].timestamp < 300.0)
        assert np.all(parts[1].timestamp >= 300.0)

    def test_outside_records_dropped(self):
        batch = _sample_batch(50)
        shifted = batch.with_columns(timestamp=batch.timestamp + 10_000)
        parts = bin_flows(shifted, TimeBins(2))
        assert sum(len(p) for p in parts) == 0
