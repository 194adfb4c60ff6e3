"""Tests for labeled datasets and schedules."""

import hashlib

import numpy as np
import pytest

from repro.datasets.labeled import abilene_dataset, geant_dataset, make_labeled_dataset
from repro.datasets.schedule import DEFAULT_MIX, make_schedule
from repro.flows.binning import TimeBins
from repro.net.topology import abilene
from repro.traffic.generator import TrafficGenerator


@pytest.fixture(scope="module")
def dataset():
    return make_labeled_dataset(abilene(), weeks=0.25, seed=42)


class TestSchedule:
    def test_counts_scale_with_length(self):
        topo = abilene()
        short = make_schedule(topo, TimeBins.for_weeks(0.5), seed=0)
        long = make_schedule(topo, TimeBins.for_weeks(1.5), seed=0)
        assert len(long) > len(short)

    def test_full_mix_at_three_weeks(self):
        topo = abilene()
        schedule = make_schedule(topo, TimeBins.for_weeks(3), seed=1)
        for label, count in DEFAULT_MIX.items():
            assert schedule.count(label) == count

    def test_bins_unique(self):
        schedule = make_schedule(abilene(), TimeBins.for_weeks(1), seed=2)
        bins = [e.bin for e in schedule.events]
        assert len(bins) == len(set(bins))

    def test_events_sorted_by_bin(self):
        schedule = make_schedule(abilene(), TimeBins.for_weeks(1), seed=3)
        bins = [e.bin for e in schedule.events]
        assert bins == sorted(bins)

    def test_outages_span_multiple_ods(self):
        schedule = make_schedule(abilene(), TimeBins.for_weeks(3), seed=4)
        outages = [e for e in schedule.events if e.label == "outage"]
        assert outages
        assert all(len(e.ods) >= 2 for e in outages)

    def test_alpha_split_into_surges_and_traces(self):
        schedule = make_schedule(abilene(), TimeBins.for_weeks(3), seed=5)
        alphas = [e for e in schedule.events if e.label == "alpha"]
        surges = [e for e in alphas if e.surge is not None]
        additive = [e for e in alphas if e.trace is not None]
        assert surges and additive
        assert 0.2 < len(surges) / len(alphas) < 0.6

    def test_schedule_deterministic(self):
        topo = abilene()
        bins = TimeBins.for_weeks(0.5)
        a = make_schedule(topo, bins, seed=7)
        b = make_schedule(topo, bins, seed=7)
        assert [e.bin for e in a.events] == [e.bin for e in b.events]
        assert [e.label for e in a.events] == [e.label for e in b.events]

    def test_too_many_events_rejected(self):
        # 8 bins leave only 4 usable slots but the minimum mix has 9 events.
        with pytest.raises(ValueError):
            make_schedule(abilene(), TimeBins(8), seed=0)

    def test_labels_by_bin(self):
        schedule = make_schedule(abilene(), TimeBins.for_weeks(1), seed=8)
        mapping = schedule.labels_by_bin()
        assert len(mapping) == len(schedule)


class TestLabeledDataset:
    def test_cube_differs_from_clean_exactly_at_events(self, dataset):
        diff_bins = set(
            np.flatnonzero(
                np.any(dataset.cube.entropy != dataset.clean_cube.entropy, axis=(1, 2))
                | np.any(dataset.cube.packets != dataset.clean_cube.packets, axis=1)
            ).tolist()
        )
        event_bins = {e.bin for e in dataset.schedule.events}
        assert diff_bins <= event_bins
        # Almost every scheduled event visibly changes its bin.
        assert len(diff_bins) >= 0.8 * len(event_bins)

    def test_event_at(self, dataset):
        event = dataset.schedule.events[0]
        assert dataset.event_at(event.bin) is event
        free_bin = 0
        assert dataset.event_at(free_bin) is None

    def test_surge_bins_change_volume_not_entropy(self, dataset):
        surges = [e for e in dataset.schedule.events if e.surge is not None]
        if not surges:
            pytest.skip("no surge scheduled at this scale")
        e = surges[0]
        od = e.ods[0]
        assert dataset.cube.packets[e.bin, od] > 2 * dataset.clean_cube.packets[e.bin, od]
        # Rounding of small sampled counts perturbs entropy slightly;
        # the surge stays far below the detector's ~0.3-bit scale.
        assert np.allclose(
            dataset.cube.entropy[e.bin, od],
            dataset.clean_cube.entropy[e.bin, od],
            atol=0.08,
        )

    def test_additive_bins_change_entropy(self, dataset):
        additive = [
            e for e in dataset.schedule.events
            if e.trace is not None and e.label in ("port_scan", "network_scan", "worm")
        ]
        if not additive:
            pytest.skip("no scan scheduled at this scale")
        e = additive[0]
        od = e.ods[0]
        delta = np.abs(
            dataset.cube.entropy[e.bin, od] - dataset.clean_cube.entropy[e.bin, od]
        )
        assert delta.max() > 0.05

    def test_dataset_deterministic(self):
        a = make_labeled_dataset(abilene(), weeks=0.1, seed=3)
        b = make_labeled_dataset(abilene(), weeks=0.1, seed=3)
        assert np.array_equal(a.cube.entropy, b.cube.entropy)

    def test_generator_regenerates_clean_background(self, dataset):
        od = 5
        stream = dataset.generator.od_stream(od)
        assert np.allclose(stream.entropy, dataset.clean_cube.entropy[:, od, :])


def _cube_digest(cube) -> str:
    h = hashlib.sha256()
    for a in (cube.packets, cube.bytes, cube.entropy):
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestLabelledBuildRealisesEachStreamOnce:
    """The labelled build injects each OD's events while the stream built
    for the clean cube is in hand: ``p`` realisations, not ``p`` plus one
    per OD that carries an event, and the same bytes as the two-pass
    build (digests computed with the clean cube generated first, then
    every event OD's stream realised again to inject it)."""

    DIGESTS = {
        "abilene": (
            "9567fc786d69f4eb6c04f258f414669f32fee34d77980bf0ed241885b40a52d8",
            "6100c0a11c97794ef683351c1fade9d5b9a989c04a09f598e1716a4dbeb86fec",
        ),
        "geant": (
            "9db9883423252775b6bdabb02dc4aa61ef66aede059edc67f2059ffd76abea80",
            "a0684819acd3d1fc3231f6517b145aee67d51652d1bfb4291794be521eb0ce7d",
        ),
    }

    @pytest.mark.parametrize("network, maker, weeks", [
        ("abilene", abilene_dataset, 0.1),
        ("geant", geant_dataset, 0.05),
    ])
    def test_one_stream_per_od_and_the_same_bytes(self, monkeypatch, network, maker, weeks):
        realised = []
        model = TrafficGenerator._model

        def counting(self, ods):
            realised.extend(ods)
            return model(self, ods)

        monkeypatch.setattr(TrafficGenerator, "_model", counting)
        data = maker(weeks=weeks)
        assert any(e.outage is not None or e.surge is not None
                   for e in data.schedule.events)
        assert sorted(realised) == list(range(data.topology.n_od_flows))
        assert (_cube_digest(data.cube), _cube_digest(data.clean_cube)) == self.DIGESTS[network]
