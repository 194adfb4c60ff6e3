"""Tests for the synthetic traffic generator."""

import hashlib

import numpy as np
import pytest

from repro.anomalies.builders import BUILDERS
from repro.flows.binning import TimeBins
from repro.flows.features import FEATURES, N_FEATURES
from repro.flows.records import COLUMN_SPEC
from repro.net.topology import abilene
from repro.scenarios import anomaly_record_batch
from repro.traffic.generator import (
    FeatureModel,
    GeneratorConfig,
    TrafficGenerator,
    record_uniforms,
)


@pytest.fixture(scope="module")
def small_gen():
    return TrafficGenerator(abilene(), TimeBins.for_days(0.5), seed=11)


@pytest.fixture(scope="module")
def small_cube(small_gen):
    return small_gen.generate()


class TestGeneratorBasics:
    def test_cube_shapes(self, small_cube):
        t, p = small_cube.n_bins, small_cube.n_od_flows
        assert (t, p) == (144, 121)
        assert small_cube.entropy.shape == (144, 121, N_FEATURES)

    def test_volumes_positive(self, small_cube):
        assert np.all(small_cube.packets >= 1)
        assert np.all(small_cube.bytes > 0)

    def test_entropy_within_bounds(self, small_cube):
        # Supports are <= 2*96=192 -> entropy < log2(192) ~ 7.6
        assert np.all(small_cube.entropy >= 0)
        assert np.all(small_cube.entropy < 8.5)

    def test_mean_od_rate_near_config(self, small_cube):
        assert small_cube.mean_od_pps() == pytest.approx(2068, rel=0.35)

    def test_network_name(self, small_cube):
        assert small_cube.network == "Abilene"


class TestDeterminism:
    def test_regenerated_stream_is_identical(self, small_gen, small_cube):
        od = 17
        stream = small_gen.od_stream(od)
        small_gen._stream_cache.clear()
        again = small_gen.od_stream(od)
        for a, b in zip(stream.histograms, again.histograms):
            assert np.array_equal(a, b)
        assert np.array_equal(stream.packets, again.packets)

    def test_stream_matches_cube(self, small_gen, small_cube):
        od = 33
        stream = small_gen.od_stream(od)
        assert np.allclose(stream.entropy, small_cube.entropy[:, od, :])
        assert np.allclose(stream.packets, small_cube.packets[:, od])
        assert np.allclose(stream.bytes, small_cube.bytes[:, od])

    def test_two_generators_same_seed_agree(self):
        bins = TimeBins.for_days(0.25)
        a = TrafficGenerator(abilene(), bins, seed=3).generate()
        b = TrafficGenerator(abilene(), bins, seed=3).generate()
        assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(a.packets, b.packets)

    def test_different_seeds_differ(self):
        bins = TimeBins.for_days(0.25)
        a = TrafficGenerator(abilene(), bins, seed=3).generate()
        b = TrafficGenerator(abilene(), bins, seed=4).generate()
        assert not np.array_equal(a.packets, b.packets)

    def test_histogram_entropy_consistency(self, small_gen):
        from repro.core.entropy import sample_entropy

        stream = small_gen.od_stream(5)
        for k in range(N_FEATURES):
            assert stream.entropy[40, k] == pytest.approx(
                sample_entropy(stream.histograms[k][40]), abs=1e-9
            )


class TestStatisticalProperties:
    def test_low_dimensionality(self, small_cube):
        """Normal traffic must be PCA-compressible (the paper's premise)."""
        from repro.core.multiway import MultiwaySubspaceDetector

        det = MultiwaySubspaceDetector(identify=False).fit(small_cube.entropy)
        assert det.model.pca.variance_captured(10) > 0.9

    def test_diurnal_cycle_in_volume(self):
        gen = TrafficGenerator(abilene(), TimeBins.for_days(2), seed=5)
        stream = gen.od_stream(0)
        day1 = stream.packets[:288].astype(float)
        day2 = stream.packets[288:].astype(float)
        corr = np.corrcoef(day1, day2)[0, 1]
        assert corr > 0.7  # strong daily periodicity

    def test_entropy_volume_coupling(self, small_gen):
        """Entropy should co-vary with volume (paper Section 3)."""
        stream = small_gen.od_stream(2)
        corr = np.corrcoef(stream.packets, stream.entropy[:, 0])[0, 1]
        assert corr > 0.2

    def test_volume_exponent_zero_fixes_support(self):
        models = tuple(
            FeatureModel(support=m.support, alpha=m.alpha, kind=m.kind,
                         volume_exponent=0.0)
            for m in GeneratorConfig().feature_models
        )
        cfg = GeneratorConfig(feature_models=models, seed=9)
        gen = TrafficGenerator(abilene(), TimeBins.for_days(0.5), config=cfg)
        stream = gen.od_stream(2)
        # With the coupling off, the active support never exceeds the base.
        assert stream.histograms[0].shape[1] == models[0].support

    def test_default_volume_exponent_varies_support(self, small_gen):
        stream = small_gen.od_stream(2)
        # Diurnal volume swings activate more (or fewer) feature values.
        assert stream.histograms[0].shape[1] > 96

    def test_gravity_spread_across_ods(self, small_cube):
        means = small_cube.packets.mean(axis=0)
        assert means.max() / means.min() > 5


class TestMaterialization:
    def test_records_have_right_od_and_bin(self, small_gen):
        topo = abilene()
        od = topo.od_index("STTL", "NYCM")
        batch = small_gen.materialize_bin(od, 10)
        assert len(batch) > 0
        origin, dest = topo.od_pair(od)
        assert np.all(batch.ingress_pop == origin.index)
        assert np.all(batch.timestamp >= small_gen.bins.bin_start(10))
        assert np.all(batch.timestamp < small_gen.bins.bin_start(10) + 300.0)
        # Destination addresses come from the destination PoP's prefix pool.
        assert np.all(dest.prefix.contains_array(batch.dst_ip))

    def test_materialize_bin_is_one_cell_of_the_group_path(self, small_gen):
        ods, group = [3, 17, 40], [9, 10, 11]
        batches = small_gen.materialize_bin_group(ods, group, max_records=50, salt=6)
        single = small_gen.materialize_bin(17, 10, max_records=50, salt=6)
        assert len(single) > 0
        origin, dest = abilene().od_pair(17)
        batch = batches[1]
        rows = (batch.ingress_pop == origin.index) & dest.prefix.contains_array(
            batch.dst_ip
        )
        for name, _ in COLUMN_SPEC:
            np.testing.assert_array_equal(
                getattr(batch, name)[rows], getattr(single, name), err_msg=name
            )

    def test_group_must_be_increasing_bins_on_the_grid(self, small_gen):
        for group in ([5, 4], [5, 5], [-1], [small_gen.bins.n_bins]):
            with pytest.raises(ValueError):
                small_gen.materialize_bin_group([3], group)

    def test_feature_values_deterministic(self, small_gen):
        a = small_gen.feature_values(3, 0, 50)
        b = small_gen.feature_values(3, 0, 50)
        assert np.array_equal(a, b)

    def test_feature_values_ports_start_well_known(self, small_gen):
        ports = small_gen.feature_values(3, 1, 30)
        assert 80 in ports.tolist()

    def test_feature_values_bad_index(self, small_gen):
        with pytest.raises(ValueError):
            small_gen.feature_values(3, 9, 10)


class TestRecordDistributions:
    """What one fat (OD, bin) draws, against the model it draws from."""

    BIN = 5

    @pytest.fixture(scope="class")
    def fat(self):
        gen = TrafficGenerator(abilene(), TimeBins(n_bins=12), seed=11)
        od = int(np.argmax(gen.mean_rates))
        batch = gen.materialize_bin(od, self.BIN, max_records=4000, salt=3)
        return gen, od, batch

    def test_rank_frequencies_follow_the_bin_pmf(self, fat):
        gen, od, batch = fat
        assert len(batch) == 4000
        _, alphas, supports = gen._od_model(od)
        b = [self.BIN]
        for k, model in enumerate(gen.config.feature_models):
            n_max = int(supports[k].max())
            pmf = gen._feature_pmf_rows(model, alphas[k][b], supports[k][b], n_max)[0]
            values = gen.feature_values(od, k, n_max)
            order = np.argsort(values)
            drawn = getattr(batch, FEATURES[k])
            ranks = order[np.searchsorted(values[order], drawn)]
            np.testing.assert_array_equal(values[ranks], drawn)
            assert ranks.max() < supports[k][self.BIN]
            observed = np.bincount(ranks, minlength=n_max) / len(batch)
            # Total variation; 4000 draws over <= 192 ranks sit near
            # 0.05, an off-by-one rank mapping above 0.2.
            assert 0.5 * np.abs(observed - pmf).sum() < 0.08

    def test_packets_match_the_sampled_bin_total(self, fat):
        gen, od, batch = fat
        packets, _, _ = gen._od_model(od)
        total = int(packets[self.BIN]) // gen.histogram_sampling
        assert np.all(batch.packets >= 1)
        assert abs(int(batch.packets.sum()) - total) <= len(batch) / 2
        np.testing.assert_array_equal(
            batch.bytes, np.round(batch.packets * gen.config.mean_packet_size)
        )

    def test_timestamps_sorted_inside_the_bin(self, fat):
        gen, _, batch = fat
        start = gen.bins.bin_start(self.BIN)
        assert np.all(batch.timestamp >= start)
        assert np.all(batch.timestamp < start + gen.bins.width)
        assert np.all(np.diff(batch.timestamp) >= 0)

    def test_zero_total_feature_emits_literal_zeros(self, monkeypatch):
        gen = TrafficGenerator(abilene(), TimeBins(n_bins=4), seed=11)
        real = TrafficGenerator._feature_pmf_rows
        dst_port = gen.config.feature_models[3]

        def no_dst_ports_in_second_row(self, model, alphas, supports, n_max):
            rows = real(self, model, alphas, supports, n_max)
            if model is dst_port:
                rows[1] = 0.0
            return rows

        monkeypatch.setattr(
            TrafficGenerator, "_feature_pmf_rows", no_dst_ports_in_second_row
        )
        first, second = gen.materialize_bin_group([7], [1, 2], max_records=40)
        assert np.all(first.dst_port > 0)
        assert np.all(second.dst_port == 0)
        assert np.all(second.src_port > 0)


class TestRecordUniforms:
    """The counter-based uniform source behind every record draw."""

    N = 100_002  # 16,667 records x 6 draw slots

    @staticmethod
    def _looks_uniform(u):
        n = len(u)
        assert np.all((u >= 0) & (u < 1))
        assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 4 * np.sqrt(1 / 180 / n)
        counts = np.bincount((u * 64).astype(np.int64), minlength=64)
        chi2 = ((counts - n / 64) ** 2 / (n / 64)).sum()
        assert 25 < chi2 < 120  # 63 degrees of freedom
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 4 / np.sqrt(n)

    def test_consecutive_counters(self):
        index = np.arange(self.N // 6)
        u = record_uniforms(11, 5, 14, np.zeros_like(index), index)
        assert u.shape == (6, len(index))
        self._looks_uniform(u.T.ravel())  # counter order: 6 * index + slot

    def test_adjacent_bin_keys(self):
        bins = np.arange(self.N)
        u = record_uniforms(11, 5, 14, bins, np.zeros_like(bins))
        for slot in range(6):
            self._looks_uniform(u[slot])

    def test_adjacent_od_keys(self):
        bins = np.arange(200)
        by_od = np.array([
            record_uniforms(11, 5, od, bins, np.zeros_like(bins))[0]
            for od in range(500)
        ])
        self._looks_uniform(by_od.T.ravel())  # od varies fastest

    def test_no_duplicates_over_a_key_grid(self):
        bins, index = (a.ravel() for a in np.meshgrid(np.arange(8), np.arange(50)))
        grid = np.array([
            record_uniforms(seed, salt, od, bins, index)
            for seed in (0, 1) for salt in (0, 1) for od in range(4)
        ])
        assert len(np.unique(grid)) == grid.size

    def test_pure_function_of_its_counter(self):
        full = record_uniforms(3, 0, 9, np.full(40, 2), np.arange(40))
        pick = np.array([31, 4, 17])
        again = record_uniforms(3, 0, 9, np.full(3, 2), pick)
        np.testing.assert_array_equal(again, full[:, pick])
        for other in ((4, 0, 9), (3, 1, 9), (3, 0, 10)):  # seed, salt, od
            changed = record_uniforms(*other, np.full(40, 2), np.arange(40))
            assert not np.any(changed == full)
        # Seeds wider than 64 bits fold instead of overflowing.
        folded = record_uniforms(3 + 2**64, 0, 9, np.full(40, 2), np.arange(40))
        np.testing.assert_array_equal(folded, full)


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestPinnedAgainstPreSplitParent:
    """What the counter-based record path must not have moved.

    Digests recorded at commit 01a1cfe (numpy 2.4, x86-64), before
    ``od_stream`` was split into model and realisation: the cube, the
    injector's background histograms and the anomaly record path are
    bit-identical across that refactor, not merely statistically alike.
    """

    OD_STREAM = {
        14: "eb30499919ec96ae7218f7702549bd68d828f5a3576e23e7d4782b9911326c99",
        87: "36f57ce1ccf9af0c8ed5148627ae7c7ddd65fc55603ea0eb295b51beadbdecee",
    }
    ANOMALY = "1372d30392c956a10283d0a236a78a8a6bf684ec04c28e7317000f19521f66ff"

    @pytest.fixture(scope="class")
    def gen(self):
        return TrafficGenerator(abilene(), TimeBins(n_bins=36), seed=11)

    @pytest.mark.parametrize("od", sorted(OD_STREAM))
    def test_od_stream_bit_identical(self, gen, od):
        s = gen.od_stream(od)
        got = _sha256([s.packets, s.bytes, s.entropy, *s.histograms])
        assert got == self.OD_STREAM[od]

    def test_anomaly_record_batch_bit_identical(self, gen):
        trace = BUILDERS["port_scan"](np.random.default_rng(5), pps=400.0)
        batch = anomaly_record_batch(gen, 14, 22, trace, salt=3)
        assert len(batch) == 4000
        got = _sha256([getattr(batch, name) for name, _ in COLUMN_SPEC])
        assert got == self.ANOMALY


class TestConfigValidation:
    def test_wrong_model_count(self):
        with pytest.raises(ValueError):
            GeneratorConfig(feature_models=(FeatureModel(support=8, alpha=1.0),))

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            GeneratorConfig(mean_od_pps=0)

    def test_feature_model_validation(self):
        with pytest.raises(ValueError):
            FeatureModel(support=2, alpha=1.0)
        with pytest.raises(ValueError):
            FeatureModel(support=8, alpha=-1.0)
        with pytest.raises(ValueError):
            FeatureModel(support=8, alpha=1.0, kind="weird")

    def test_scaled(self):
        cfg = GeneratorConfig().scaled(2.0)
        assert cfg.mean_od_pps == pytest.approx(2 * 2068.0)

    def test_glitches_disabled_by_zero_rate(self):
        from dataclasses import replace

        bins = TimeBins.for_days(0.25)
        base = GeneratorConfig(seed=6, glitch_rate=0.0)
        cube = TrafficGenerator(abilene(), bins, config=base).generate()
        assert cube.n_bins == 72
