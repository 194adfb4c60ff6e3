"""Section 5's anonymisation experiment.

The paper quantifies the impact of Abilene-style address anonymisation
(masking the low 11 bits -> /21 prefixes) by anonymising one week of
Geant data and re-running detection: 128 anomalies detected anonymised
vs. 132 raw — a small loss.

Our histograms live in abstract rank space, so anonymisation is applied
as its measurable effect: distinct addresses sharing a /21 collapse
into one histogram bin.  With per-PoP /16 pools and random host
placement, an 11-bit mask merges hosts into groups; we model that by
aggregating address-histogram ranks into groups of
``2**11 / (pool_span / pool_size)`` expected size — computed from the
actual pool geometry — and recomputing entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multiway import MultiwaySubspaceDetector
from repro.experiments.cache import get_geant
from repro.flows.features import DST_IP, SRC_IP

__all__ = ["AnonymizationResult", "merge_ranks", "run", "format_report"]


@dataclass
class AnonymizationResult:
    """Detection counts with and without anonymisation."""

    detections_raw: int
    detections_anonymized: int
    merge_group: int
    n_bins: int


def merge_ranks(counts: np.ndarray, group: int, perm: np.ndarray) -> np.ndarray:
    """Merge histogram columns into prefix groups.

    Args:
        counts: ``(t, n)`` per-bin histogram matrix.
        group: Number of addresses collapsing into one /21.
        perm: Random permutation of the n columns (host placement in
            address space is independent of traffic rank).

    Returns:
        ``(t, ceil(n/group))`` merged histogram matrix.
    """
    if group < 1:
        raise ValueError("group must be >= 1")
    t, n = counts.shape
    shuffled = counts[:, perm]
    n_groups = -(-n // group)
    padded = np.zeros((t, n_groups * group), dtype=counts.dtype)
    padded[:, :n] = shuffled
    return padded.reshape(t, n_groups, group).sum(axis=2)


def run(merge_group: int = 8, alpha: float = 0.999, seed: int = 5) -> AnonymizationResult:
    """Re-run multiway detection on anonymised Geant entropy.

    ``merge_group`` is the expected number of co-prefix hosts per /21:
    with ~400 active hosts scattered over a /16, a /21 holds 2048
    addresses and ~2048 * 400 / 65536 ≈ 12 hosts; 8 is a conservative
    default (the merge only matters when >1 host shares a group).
    """
    from repro.core.entropy import entropy_rows, sample_entropy

    data = get_geant()
    cube = data.cube
    gen = data.generator
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))

    events_by_od = data.schedule.events_by_od()
    anonymized = cube.entropy.copy()
    for od in range(cube.n_od_flows):
        stream = gen.od_stream(od)
        for feature in (SRC_IP, DST_IP):
            counts = stream.histograms[feature]
            perm = rng.permutation(counts.shape[1])
            inv = np.argsort(perm)
            merged = merge_ranks(counts, merge_group, perm)
            anonymized[:, od, feature] = entropy_rows(merged)
            # Re-apply this OD's scheduled anomalies at merged resolution:
            # background ranks map through the permutation into their /21
            # group; novel addresses fall into fresh groups of the same
            # expected occupancy.
            for event in events_by_od.get(od, ()):
                b = event.bin
                row = merged[b].copy()
                scaler = event.outage or event.surge
                if scaler is not None:
                    row = scaler.apply_to_counts(row)
                    anonymized[b, od, feature] = sample_entropy(row)
                    continue
                sampled_trace = event.trace.thin(
                    gen.histogram_sampling, seed=event.bin
                )
                contrib = sampled_trace.contributions[feature]
                for rank, count in contrib.on_background.items():
                    if rank < len(inv):
                        row[inv[rank] // merge_group] += count
                novel = contrib.novel
                if len(novel):
                    pad = (-len(novel)) % merge_group
                    novel_merged = np.concatenate(
                        [novel, np.zeros(pad, dtype=novel.dtype)]
                    ).reshape(-1, merge_group).sum(axis=1)
                    row = np.concatenate([row, novel_merged])
                anonymized[b, od, feature] = sample_entropy(row)
        gen.evict_stream(od)

    det_raw = MultiwaySubspaceDetector(identify=False).fit(cube.entropy)
    n_raw = det_raw.score(cube.entropy).n_detections
    det_anon = MultiwaySubspaceDetector(identify=False).fit(anonymized)
    n_anon = det_anon.score(anonymized).n_detections
    return AnonymizationResult(
        detections_raw=int(n_raw),
        detections_anonymized=int(n_anon),
        merge_group=merge_group,
        n_bins=cube.n_bins,
    )


def format_report(result: AnonymizationResult) -> str:
    """Paper-style two-number comparison."""
    return "\n".join(
        [
            "Anonymisation check (Geant, /21-style rank merging "
            f"group={result.merge_group}, {result.n_bins} bins)",
            f"  detections raw:        {result.detections_raw}",
            f"  detections anonymised: {result.detections_anonymized}",
        ]
    )
