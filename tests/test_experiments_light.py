"""Smoke tests for the cheap experiment modules and the registry.

The dataset-scale experiments are exercised by the paper scorecard
(benchmarks/paper_claims.py); here we cover the experiment modules
whose cost is dominated by the shared clean-week fixture, plus all
report formatters (formatting must never crash on real results), and
hold the one name -> module registry that ``repro experiment`` and the
scorecard both read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser
from repro.experiments import (
    EXPERIMENTS,
    EXTENSIONS,
    fig1_histograms,
    fig2_timeseries,
    load,
    table4_traces,
    table5_thinning,
)

REPO = Path(__file__).resolve().parent.parent


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_name_parses_and_loads(self, name):
        assert build_parser().parse_args(["experiment", name]).name == name
        module = load(name)
        assert callable(module.run) and callable(module.format_report)

    def test_extensions_are_registered(self):
        assert EXTENSIONS < set(EXPERIMENTS)

    def test_scorecard_has_rows_for_every_entry(self):
        spec = importlib.util.spec_from_file_location(
            "paper_claims", REPO / "benchmarks" / "paper_claims.py"
        )
        claims = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(claims)
        assert list(claims.CLAIMS) == list(EXPERIMENTS)
        assert {f"test_{name}" for name in EXPERIMENTS} <= set(vars(claims))


@pytest.fixture(scope="module", autouse=True)
def _warm_clean_week():
    # Build the shared clean cube once for this module.
    from repro.experiments.cache import get_clean_abilene_week

    get_clean_abilene_week()


class TestFig1:
    def test_ports_disperse_addresses_concentrate(self):
        result = fig1_histograms.run()
        assert len(result.dst_port_anomalous) > 3 * len(result.dst_port_normal)
        assert result.dst_ip_anomalous.max() > 1.5 * result.dst_ip_normal.max()

    def test_histograms_rank_ordered(self):
        result = fig1_histograms.run()
        for arr in (result.dst_port_anomalous, result.dst_ip_anomalous):
            assert np.all(np.diff(arr) <= 0)

    def test_report_mentions_shape(self):
        report = fig1_histograms.format_report(fig1_histograms.run())
        assert "distinct ports" in report


class TestFig2:
    def test_entropy_stands_out_volume_does_not(self):
        result = fig2_timeseries.run()
        assert abs(result.z_scores["bytes"]) < abs(result.z_scores["H(dstPort)"])
        assert result.z_scores["H(dstPort)"] > 3
        assert result.z_scores["H(dstIP)"] < -2

    def test_series_lengths_match(self):
        result = fig2_timeseries.run(window=36)
        assert len(result.bytes) == len(result.h_dst_ip) <= 72

    def test_report_formats(self):
        assert "z-score" in fig2_timeseries.format_report(fig2_timeseries.run())


class TestTable4:
    def test_intensities(self):
        rows = table4_traces.run()
        assert table4_traces.verify_intensities(rows)

    def test_report_formats(self):
        assert "3.47e" in table4_traces.format_report(table4_traces.run()).replace(
            "347000", "3.47e"
        )


class TestTable5:
    def test_percentages_match_paper_anchors(self):
        result = table5_thinning.run()
        cells = {(c.trace, c.thinning): c for c in result.cells}
        # Paper Table 5 anchors.
        assert cells[("dos", 1)].percent_of_od > 95
        assert cells[("worm", 1)].percent_of_od == pytest.approx(6.3, abs=2.0)
        assert cells[("ddos", 10)].percent_of_od == pytest.approx(57, abs=15)

    def test_grid_matches_paper(self):
        assert table5_thinning.THINNING_GRID["worm"] == (1, 10, 100, 500, 1000)

    def test_report_formats(self):
        assert "Thinning" in table5_thinning.format_report(table5_thinning.run())
