"""Parametric builders for every anomaly type in the paper's Table 1.

Each builder returns an :class:`repro.anomalies.base.AnomalyTrace`
whose feature structure matches the paper's description of the type
(Table 1 qualitative effects, Table 6 entropy-space locations, Section
7.3.2 prose).  Intensities are given in packets/second over a 300 s bin
so the paper's Table-4 trace intensities can be replayed exactly
(:func:`known_traces`).

Feature structure summary (C = concentrated, D = dispersed, - = typical):

    type              srcIP  srcPort  dstIP  dstPort
    alpha             C      C        C      C
    alpha (NAT)       C      D        C      D
    dos (single src)  C      D        C      C
    ddos              D      D        C      C
    flash crowd       D(real)D        C      C(web)
    port scan v1      C      D        C      D(big)
    port scan v2      C      C        C      D(big)
    network scan      C      D(incr)  D(big) C
    worm              C      D(incr)  D(big) C (special case of net scan)
    point->multipoint C      C        D      D
"""

from __future__ import annotations

import numpy as np

from repro.anomalies.base import AnomalyTrace, FeatureContribution
from repro.flows.binning import BIN_SECONDS
from repro.traffic.distributions import zipf_pmf

__all__ = [
    "alpha_flow",
    "dos_single",
    "ddos",
    "flash_crowd",
    "port_scan",
    "network_scan",
    "worm_scan",
    "point_multipoint",
    "known_traces",
    "BUILDERS",
]


def _packets(pps: float, duration: float) -> int:
    total = int(round(pps * duration))
    if total < 1:
        raise ValueError("anomaly must contain at least one packet")
    return total


def _spread(
    total: int, n_values: int, rng: np.random.Generator, alpha: float = 0.0
) -> np.ndarray:
    """Distribute ``total`` packets over ``n_values`` novel values."""
    if n_values < 1:
        raise ValueError("n_values must be >= 1")
    n_values = min(n_values, total) or 1
    pmf = zipf_pmf(n_values, alpha)
    return rng.multinomial(total, pmf).astype(np.int64)


def _single(total: int) -> FeatureContribution:
    """All packets on one novel value."""
    return FeatureContribution(novel=np.array([total], dtype=np.int64))


def _on_bg(total: int, rank: int) -> FeatureContribution:
    """All packets on one existing background value (e.g. a victim)."""
    return FeatureContribution(on_background={rank: total})


def _trace(label, src_ip, src_port, dst_ip, dst_port, packets, avg_bytes, meta):
    return AnomalyTrace(
        label=label,
        contributions=(src_ip, src_port, dst_ip, dst_port),
        packets=packets,
        bytes=int(round(packets * avg_bytes)),
        meta=meta,
    )


def alpha_flow(
    rng: np.random.Generator,
    pps: float = 20_000.0,
    duration: float = BIN_SECONDS,
    nat: bool = False,
    n_nat_ports: int = 64,
    packet_size: float = 1200.0,
) -> AnomalyTrace:
    """Unusually large point-to-point flow (e.g. bandwidth tests).

    ``nat=True`` produces the paper's cluster-7 variant discovered via
    clustering: a NAT box on the path spreads the flow across many
    ports, dispersing both port features while addresses stay
    concentrated.
    """
    total = _packets(pps, duration)
    if nat:
        src_port = FeatureContribution(novel=_spread(total, n_nat_ports, rng, 0.2))
        dst_port = FeatureContribution(novel=_spread(total, n_nat_ports, rng, 0.2))
        variant = "nat"
    else:
        src_port = _single(total)
        dst_port = _single(total)
        variant = "plain"
    return _trace(
        "alpha",
        _single(total),
        src_port,
        _single(total),
        dst_port,
        total,
        packet_size,
        {"pps": pps, "variant": variant},
    )


def dos_single(
    rng: np.random.Generator,
    pps: float = 3.47e5,
    duration: float = BIN_SECONDS,
    victim_rank: int = 2,
    n_src_ports: int = 128,
    target_port_rank: int = 1,
    packet_size: float = 60.0,
) -> AnomalyTrace:
    """Single-source bandwidth DOS (paper's Los Nettos trace, 3.47e5 pps).

    One attacking host floods one existing victim; source ports are
    random per packet (typical of flooding tools), the destination port
    is a single existing service port.
    """
    total = _packets(pps, duration)
    return _trace(
        "dos",
        _single(total),
        FeatureContribution(novel=_spread(total, n_src_ports, rng)),
        _on_bg(total, victim_rank),
        _on_bg(total, target_port_rank),
        total,
        packet_size,
        {"pps": pps, "victim_rank": victim_rank},
    )


def ddos(
    rng: np.random.Generator,
    pps: float = 2.75e4,
    duration: float = BIN_SECONDS,
    n_sources: int = 500,
    victim_rank: int = 2,
    n_src_ports: int = 256,
    target_port_rank: int = 1,
    packet_size: float = 60.0,
) -> AnomalyTrace:
    """Multi-source (distributed) DOS (paper's trace, 2.75e4 pps).

    Many spoofed/zombie sources converge on one victim: source address
    entropy rises, destination address entropy collapses.
    """
    total = _packets(pps, duration)
    return _trace(
        "ddos",
        FeatureContribution(novel=_spread(total, n_sources, rng, 0.3)),
        FeatureContribution(novel=_spread(total, n_src_ports, rng)),
        _on_bg(total, victim_rank),
        _on_bg(total, target_port_rank),
        total,
        packet_size,
        {"pps": pps, "n_sources": n_sources, "victim_rank": victim_rank},
    )


def flash_crowd(
    rng: np.random.Generator,
    pps: float = 5_000.0,
    duration: float = BIN_SECONDS,
    n_sources: int = 300,
    victim_rank: int = 1,
    web_port_rank: int = 0,
    packet_size: float = 700.0,
) -> AnomalyTrace:
    """Flash crowd: a legitimate burst to one destination service.

    Sources follow a "typical" (Zipf-ish, non-spoofed) popularity
    profile; traffic converges on an existing destination at a
    well-known port (rank 0 = the heaviest service port, e.g. 80).
    """
    total = _packets(pps, duration)
    return _trace(
        "flash_crowd",
        FeatureContribution(novel=_spread(total, n_sources, rng, 1.0)),
        FeatureContribution(novel=_spread(total, max(n_sources // 2, 8), rng, 0.2)),
        _on_bg(total, victim_rank),
        _on_bg(total, web_port_rank),
        total,
        packet_size,
        {"pps": pps, "n_sources": n_sources},
    )


def port_scan(
    rng: np.random.Generator,
    pps: float = 150.0,
    duration: float = BIN_SECONDS,
    n_ports: int = 1500,
    victim_rank: int = 4,
    dispersed_src_ports: bool = True,
    packet_size: float = 40.0,
) -> AnomalyTrace:
    """Port scan: probe many destination ports on one host.

    Two styles, both found by the paper's clustering (clusters 3 & 4):
    ``dispersed_src_ports=True`` listens on many source ports (stealth),
    ``False`` uses one source port.
    """
    total = _packets(pps, duration)
    if dispersed_src_ports:
        src_port = FeatureContribution(novel=_spread(total, total, rng))
        variant = "dispersed_src_ports"
    else:
        src_port = _single(total)
        variant = "single_src_port"
    return _trace(
        "port_scan",
        _single(total),
        src_port,
        _on_bg(total, victim_rank),
        FeatureContribution(novel=_spread(total, n_ports, rng)),
        total,
        packet_size,
        {"pps": pps, "n_ports": n_ports, "variant": variant},
    )


def network_scan(
    rng: np.random.Generator,
    pps: float = 150.0,
    duration: float = BIN_SECONDS,
    n_targets: int = 2000,
    service_port_rank: int = 11,
    packet_size: float = 40.0,
    label: str = "network_scan",
) -> AnomalyTrace:
    """Network scan: probe one port across many destination hosts.

    Source ports increment per probe (the paper observes exactly this),
    so source-port entropy disperses strongly; the destination port is
    a single service (rank 11 = port 1433 / MS-SQL in the default port
    table — the Snake-worm target the paper identified).
    """
    total = _packets(pps, duration)
    return _trace(
        label,
        _single(total),
        FeatureContribution(novel=_spread(total, total, rng)),  # incrementing
        FeatureContribution(novel=_spread(total, n_targets, rng)),
        _on_bg(total, service_port_rank),
        total,
        packet_size,
        {"pps": pps, "n_targets": n_targets, "port_rank": service_port_rank},
    )


def worm_scan(
    rng: np.random.Generator,
    pps: float = 141.0,
    duration: float = BIN_SECONDS,
    n_targets: int = 3000,
    service_port_rank: int = 11,
    packet_size: float = 404.0,
) -> AnomalyTrace:
    """Worm scanning for vulnerable hosts (paper's Utah trace, 141 pps).

    A special case of a network scan (Table 1); kept as a distinct
    label because the paper injects and clusters it separately.
    """
    return network_scan(
        rng,
        pps=pps,
        duration=duration,
        n_targets=n_targets,
        service_port_rank=service_port_rank,
        packet_size=packet_size,
        label="worm",
    )


def point_multipoint(
    rng: np.random.Generator,
    pps: float = 800.0,
    duration: float = BIN_SECONDS,
    n_destinations: int = 400,
    n_ports: int = 300,
    packet_size: float = 900.0,
) -> AnomalyTrace:
    """Point-to-multipoint: one source distributing to many receivers.

    Content distribution / peer-to-peer / trojan activity: concentrated
    source, widely dispersed destination addresses *and* ports.
    """
    total = _packets(pps, duration)
    return _trace(
        "point_multipoint",
        _single(total),
        _single(total),
        FeatureContribution(novel=_spread(total, n_destinations, rng, 0.2)),
        FeatureContribution(novel=_spread(total, n_ports, rng, 0.2)),
        total,
        packet_size,
        {"pps": pps, "n_destinations": n_destinations},
    )


#: Builder registry by label (used by the dataset scheduler).
BUILDERS = {
    "alpha": alpha_flow,
    "dos": dos_single,
    "ddos": ddos,
    "flash_crowd": flash_crowd,
    "port_scan": port_scan,
    "network_scan": network_scan,
    "worm": worm_scan,
    "point_multipoint": point_multipoint,
}


def known_traces(seed: int = 0) -> dict[str, AnomalyTrace]:
    """The paper's Table-4 injected traces at their documented intensities.

    Returns:
        ``{"dos": 3.47e5 pps single-source DOS,
           "ddos": 2.75e4 pps multi-source DDOS,
           "worm": 141 pps worm scan}``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    return {
        "dos": dos_single(rng, pps=3.47e5),
        "ddos": ddos(rng, pps=2.75e4),
        "worm": worm_scan(rng, pps=141.0),
    }
