"""Tests for unsupervised classification helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.classify import (
    ANOMALY_LABELS,
    label_statistics,
    plurality_label,
    signature_label,
    signature_string,
    summarize_clusters,
    unit_normalize,
)
from repro.core.clustering import hierarchical


class TestUnitNormalize:
    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        out = unit_normalize(X)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        X = np.zeros((3, 4))
        assert np.all(unit_normalize(X) == 0.0)

    def test_direction_preserved(self):
        X = np.array([[3.0, 0.0, 4.0, 0.0]])
        out = unit_normalize(X)
        assert np.allclose(out, [[0.6, 0.0, 0.8, 0.0]])

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            unit_normalize(np.ones(4))

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    @example([0.0, 0.0, 0.0, 2.2055108010589854e-162])  # subnormal sum of squares
    @example([1e-170, 0.0, 0.0, 0.0])  # norm underflows to 0
    @settings(max_examples=40)
    def test_idempotent(self, row):
        X = np.array([row])
        once = unit_normalize(X)
        twice = unit_normalize(once)
        assert np.allclose(once, twice, atol=1e-9)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4))
    @example([0.0, 0.0, 0.0, 2.2055108010589854e-162])
    @example([1e-170, 0.0, 0.0, 0.0])
    @example([5e-324, 0.0, -5e-324, 0.0])
    @example([1.7e308, -1.7e308, 0.0, 0.0])  # sum of squares overflows
    @settings(max_examples=80)
    def test_every_finite_nonzero_row_has_unit_norm(self, row):
        out = unit_normalize(np.array([row]))
        if any(row):
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
            assert (out[0] * np.array(row) >= 0).all()  # no sign flips
        else:
            assert not out.any()


class TestSummarizeClusters:
    def _clustered_points(self):
        rng = np.random.default_rng(1)
        # Cluster A: strongly positive dstPort; cluster B: negative srcIP.
        a = rng.normal([0, 0, 0, 0.9], 0.02, size=(30, 4))
        b = rng.normal([-0.9, 0, 0, 0], 0.02, size=(20, 4))
        X = unit_normalize(np.vstack([a, b]))
        clustering = hierarchical(X, 2, linkage="average")
        return X, clustering

    def test_summaries_sorted_by_size(self):
        X, clustering = self._clustered_points()
        summaries = summarize_clusters(X, clustering)
        assert summaries[0].size >= summaries[1].size

    def test_signatures_detect_dominant_axes(self):
        X, clustering = self._clustered_points()
        summaries = summarize_clusters(X, clustering)
        sigs = {s.size: s.signature for s in summaries}
        assert sigs[30][3] == "+"
        assert sigs[20][0] == "-"

    def test_plurality_labels(self):
        X, clustering = self._clustered_points()
        labels = ["port_scan"] * 30 + ["unknown"] * 20
        # Align label list with clustering order by membership
        summaries = summarize_clusters(X, clustering, labels=labels)
        top = summaries[0]
        assert top.plurality_label == "port_scan"
        assert summaries[1].n_unknown == 20

    def test_wrong_width_rejected(self):
        X = np.ones((5, 3))
        with pytest.raises(ValueError):
            summarize_clusters(X, hierarchical(np.ones((5, 3)), 2))

    def test_signature_str(self):
        X, clustering = self._clustered_points()
        s = summarize_clusters(X, clustering)[0]
        assert len(s.signature_str()) == 4
        assert set(s.signature_str()) <= {"+", "-", "0"}


class TestSignatureLabel:
    def test_port_scan_template(self):
        # Concentrated srcIP/dstIP, strongly dispersed dstPort
        assert signature_label(np.array([-0.3, 0.0, -0.4, 0.8])) == "port_scan"

    def test_network_scan_template(self):
        assert signature_label(np.array([-0.2, 0.8, 0.4, -0.4])) in (
            "network_scan",
            "worm",
        )

    def test_alpha_template(self):
        assert signature_label(np.array([-0.5, -0.3, -0.5, -0.5])) == "alpha"

    def test_ddos_template(self):
        assert signature_label(np.array([0.6, 0.2, -0.7, -0.1])) == "ddos"

    def test_point_multipoint_template(self):
        assert signature_label(np.array([-0.2, -0.2, 0.7, 0.7])) == "point_multipoint"

    def test_zero_vector_unknown(self):
        assert signature_label(np.zeros(4)) == "unknown"

    def test_orthogonal_region_unknown(self):
        # A direction far from every template
        assert signature_label(np.array([0.9, -0.9, 0.1, -0.1])) == "unknown"

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            signature_label(np.zeros(3))

    def test_labels_are_canonical(self):
        for vec in (np.array([-0.5, -0.3, -0.5, -0.5]), np.array([0.6, 0.2, -0.7, -0.1])):
            assert signature_label(vec) in ANOMALY_LABELS


class TestLabelStatistics:
    def test_counts_and_means(self):
        X = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 0, 0, 0]])
        stats = label_statistics(X, ["a", "b", "a"])
        assert stats["a"][0] == 2
        assert np.allclose(stats["a"][1], [1, 0, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            label_statistics(np.ones((2, 4)), ["a"])


class TestPluralityLabel:
    def test_simple(self):
        assert plurality_label(["a", "b", "a"]) == ("a", 2)

    def test_empty(self):
        assert plurality_label([]) == ("", 0)


def test_signature_string_format():
    assert signature_string(("-", "0", "+", "0")) == "srcIP:- srcPort:0 dstIP:+ dstPort:0"
