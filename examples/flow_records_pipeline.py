"""The measurement substrate, record by record.

The other examples work at cube level; this one exercises the raw
flow-measurement pipeline the way a collector would see it:

  materialised flow records -> periodic 1/100 packet sampling ->
  /21 address anonymisation -> 5-minute binning -> egress resolution
  (longest-prefix match) -> OD-flow feature histograms -> entropy.

It then shows, on one bin, what Abilene-style anonymisation does to the
address histograms (entropy drops as hosts merge into /21 groups) —
the effect the paper quantifies in Section 5.

Run:
    python examples/flow_records_pipeline.py
"""

import numpy as np

from repro import TimeBins, TrafficGenerator, abilene
from repro.flows.binning import bin_flows
from repro.flows.features import BinFeatures, FEATURES
from repro.flows.odflows import ODFlowAggregator
from repro.flows.records import FlowRecordBatch
from repro.flows.sampling import PacketSampler
from repro.net.addressing import format_ip


def main() -> None:
    topology = abilene()
    bins = TimeBins.for_days(0.1)  # ~29 bins
    generator = TrafficGenerator(topology, bins, seed=41)

    # Materialise raw records for a handful of OD flows and bins: the
    # very rows every pipeline source draws for these (OD, bin) pairs
    # (``materialize_bin(od, b)`` is the one-OD, one-bin case).
    print("Materialising flow records...")
    ods = [topology.od_index("STTL", "NYCM"), topology.od_index("DNVR", "ATLA")]
    records = FlowRecordBatch.concat(generator.materialize_bin_group(ods, range(4)))
    print(f"  {len(records)} records, {records.total_packets} packets")
    print(f"  e.g. {records.record(0)}")

    # Router-style packet sampling.
    sampler = PacketSampler(rate=100, seed=7)
    sampled = sampler.sample_batch(records)
    print(
        f"\n1/100 sampling: {records.total_packets} -> {sampled.total_packets} "
        f"packets, {len(records)} -> {len(sampled)} records survive"
    )

    # Aggregate to OD flows (anonymisation applied inside, per topology).
    aggregator = ODFlowAggregator(topology)
    cube = aggregator.aggregate(sampled, bins)
    print("\nPer-OD entropies (bin 0):")
    for od in ods:
        h = cube.entropy[0, od]
        series = ", ".join(f"H({f})={v:.2f}" for f, v in zip(FEATURES, h))
        print(f"  {topology.od_name(od):<14} {series}")

    # What anonymisation does to one bin's address histogram.
    one_bin = bin_flows(sampled, bins)[0]
    raw = BinFeatures.from_batch(one_bin)
    anon = BinFeatures.from_batch(one_bin.anonymized(11))
    print("\nAbilene /21 anonymisation on bin 0 (all ODs pooled):")
    for feature in ("src_ip", "dst_ip"):
        h_raw = raw.histogram(feature)
        h_anon = anon.histogram(feature)
        print(
            f"  {feature}: {h_raw.n_distinct} -> {h_anon.n_distinct} distinct, "
            f"H {h_raw.entropy():.2f} -> {h_anon.entropy():.2f} bits"
        )
    top_ip, top_count = raw.histogram("dst_ip").top(1)[0]
    print(f"  heaviest destination: {format_ip(int(top_ip))} ({top_count} packets)")


if __name__ == "__main__":
    main()
