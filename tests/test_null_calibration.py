"""The null-calibration curve: exact binomial intervals and its payload."""

import json

import pytest

from repro.quality import calibration, clopper_pearson, null_calibration


class TestClopperPearson:
    @pytest.mark.parametrize("n", [1, 7, 24, 480])
    def test_closed_forms_at_the_edges(self, n):
        lower, upper = clopper_pearson(0, n)
        assert lower == 0.0
        assert upper == pytest.approx(1.0 - 0.025 ** (1.0 / n), rel=1e-10)
        lower, upper = clopper_pearson(n, n)
        assert upper == 1.0
        assert lower == pytest.approx(0.025 ** (1.0 / n), rel=1e-10)

    def test_interval_brackets_the_rate_and_mirrors(self):
        lower, upper = clopper_pearson(3, 480)
        assert lower < 3 / 480 < upper
        mirror_lower, mirror_upper = clopper_pearson(477, 480)
        assert mirror_lower == pytest.approx(1.0 - upper, rel=1e-10)
        assert mirror_upper == pytest.approx(1.0 - lower, rel=1e-10)

    @pytest.mark.parametrize("k,n", [(-1, 5), (6, 5), (0, 0)])
    def test_impossible_counts_rejected(self, k, n):
        with pytest.raises(ValueError):
            clopper_pearson(k, n)


class TestNullCalibrationPayload:
    def test_small_shape_is_deterministic_and_consistent(self, monkeypatch):
        reductions = []
        real = calibration.null_summaries

        def counting(seed, *args):
            reductions.append(seed)
            return real(seed, *args)

        monkeypatch.setattr(calibration, "null_summaries", counting)
        kwargs = {"n_bins": 24, "max_records_per_od": 10}
        payload = null_calibration([1, 2], **kwargs)
        assert reductions == [1, 2]  # each seed reduced once for all cells
        again = null_calibration([1, 2], **kwargs)
        assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)

        assert payload["scenario"] == "baseline-diurnal"
        assert payload["shape"]["warmup_bins"] == 16
        cells = payload["cells"]
        assert [(c["alpha"], c["margin"]) for c in cells] == [
            (a, m) for a in (0.99, 0.995, 0.999) for m in ("0", "1", "1.5", "default")
        ]
        for cell in cells:
            assert cell["nominal_rate"] == pytest.approx(1.0 - cell["alpha"])
            if cell["margin"] == "default":
                pair = (cell["calibration_margin"], cell["volume_calibration_margin"])
                assert pair == (1.25, 2.5)
            else:
                assert cell["calibration_margin"] == float(cell["margin"])
                assert cell["volume_calibration_margin"] == float(cell["margin"])
            for channel in ("entropy", "volume"):
                entry = cell["channels"][channel]
                assert entry["scored_bins"] == 2 * (24 - 16)
                assert 0 <= entry["alarms"] <= entry["scored_bins"]
                assert entry["rate"] == entry["alarms"] / entry["scored_bins"]
                assert entry["ci95"] == list(
                    clopper_pearson(entry["alarms"], entry["scored_bins"])
                )
