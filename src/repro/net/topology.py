"""Backbone topologies: Abilene and Geant.

The paper evaluates on two research backbones:

* **Abilene** — the Internet2 backbone, 11 Points of Presence (PoPs)
  across the continental US, 121 OD flows, flow export sampled 1/100,
  addresses anonymised to /21.
* **Geant** — the European research network, 22 PoPs in major European
  capitals, 484 OD flows, flow export sampled 1/1000, unanonymised.

We model each network as a graph of :class:`PoP` nodes with backbone
links (used for shortest-path routing of OD traffic) and a per-PoP
address prefix (used for egress resolution and host pools).  Link
structure follows the published Abilene map; the Geant map is a faithful
ring-and-chords approximation of the 2004 topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from repro.net.addressing import Prefix, make_ip

__all__ = ["PoP", "Topology", "abilene", "geant", "topology_by_name"]


@dataclass(frozen=True)
class PoP:
    """A Point of Presence: one node of the backbone.

    Attributes:
        index: Dense index in ``[0, n_pops)``; OD-flow indices derive
            from PoP indices.
        code: Short router code (e.g. ``"IPLS"``).
        name: Human-readable city name.
        prefix: Address block originated behind this PoP.  All synthetic
            hosts "at" a PoP live inside its prefix, and the routing
            table resolves egress PoPs by longest-prefix match on these.
    """

    index: int
    code: str
    name: str
    prefix: Prefix


@dataclass
class Topology:
    """A backbone network: PoPs, links, and derived OD-flow indexing.

    OD flows are indexed densely as ``od = origin.index * n_pops +
    destination.index`` including the self pair (traffic entering and
    leaving at the same PoP), matching the paper's counts: 11 PoPs ->
    121 OD flows, 22 PoPs -> 484 OD flows.
    """

    name: str
    pops: list[PoP]
    links: list[tuple[str, str]]
    sampling_rate: int = 100
    anonymization_bits: int = 0

    def __post_init__(self) -> None:
        codes = [pop.code for pop in self.pops]
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate PoP codes")
        for i, pop in enumerate(self.pops):
            if pop.index != i:
                raise ValueError("PoP indices must be dense and ordered")
        self._by_code = {pop.code: pop for pop in self.pops}
        neighbours: dict[str, list[str]] = {code: [] for code in codes}
        for a, b in self.links:
            if a not in neighbours or b not in neighbours:
                raise ValueError(f"link references unknown PoP: {(a, b)}")
            neighbours[a].append(b)
            neighbours[b].append(a)
        if self.links:
            seen, queue = {codes[0]}, deque([codes[0]])
            while queue:
                for nxt in neighbours[queue.popleft()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if len(seen) != len(codes):
                raise ValueError(f"{self.name} topology is not connected")

    @cached_property
    def graph(self):
        """The backbone as a ``networkx.Graph``: PoPs in index order,
        then :attr:`links` in order (fixing ``edges()`` order and
        :meth:`shortest_path`'s tie-breaks).  Built on first use, so
        detection never imports networkx."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(pop.code for pop in self.pops)
        graph.add_edges_from(self.links)
        return graph

    @property
    def n_pops(self) -> int:
        """Number of PoPs."""
        return len(self.pops)

    @property
    def n_od_flows(self) -> int:
        """Number of OD flows (``n_pops ** 2``, self pairs included)."""
        return self.n_pops * self.n_pops

    def pop_by_code(self, code: str) -> PoP:
        """Look a PoP up by its router code."""
        return self._by_code[code]

    def od_index(self, origin: int | str, destination: int | str) -> int:
        """Dense OD-flow index for an (origin, destination) PoP pair."""
        o = self._pop_index(origin)
        d = self._pop_index(destination)
        return o * self.n_pops + d

    def od_pair(self, od: int) -> tuple[PoP, PoP]:
        """Inverse of :meth:`od_index`."""
        if not 0 <= od < self.n_od_flows:
            raise ValueError(f"OD index out of range: {od}")
        return self.pops[od // self.n_pops], self.pops[od % self.n_pops]

    def od_pairs(self) -> list[tuple[PoP, PoP]]:
        """All OD pairs in dense index order."""
        return [(o, d) for o in self.pops for d in self.pops]

    def od_name(self, od: int) -> str:
        """Readable ``"ORIG->DEST"`` name for an OD flow."""
        origin, destination = self.od_pair(od)
        return f"{origin.code}->{destination.code}"

    def ods_with_destination(self, destination: int | str) -> list[int]:
        """All OD-flow indices terminating at ``destination``."""
        d = self._pop_index(destination)
        return [o * self.n_pops + d for o in range(self.n_pops)]

    def ods_with_origin(self, origin: int | str) -> list[int]:
        """All OD-flow indices originating at ``origin``."""
        o = self._pop_index(origin)
        return [o * self.n_pops + d for d in range(self.n_pops)]

    def shortest_path(self, origin: str, destination: str) -> list[str]:
        """Hop-count shortest path between two PoP codes."""
        import networkx as nx

        return nx.shortest_path(self.graph, origin, destination)

    def _pop_index(self, pop: int | str) -> int:
        if isinstance(pop, str):
            return self._by_code[pop].index
        if not 0 <= pop < self.n_pops:
            raise ValueError(f"PoP index out of range: {pop}")
        return int(pop)


def _build(name, spec, links, sampling_rate, anonymization_bits, base_octet) -> Topology:
    pops = []
    for i, (code, city) in enumerate(spec):
        # One /16 per PoP keeps prefixes disjoint and leaves plenty of
        # room for host pools even after /21 anonymisation.
        prefix = Prefix(make_ip(base_octet, i + 1, 0, 0), 16)
        pops.append(PoP(index=i, code=code, name=city, prefix=prefix))
    return Topology(
        name=name,
        pops=pops,
        links=links,
        sampling_rate=sampling_rate,
        anonymization_bits=anonymization_bits,
    )


#: Abilene PoPs as of the paper's December 2003 measurement period.
_ABILENE_POPS = [
    ("STTL", "Seattle"),
    ("SNVA", "Sunnyvale"),
    ("LOSA", "Los Angeles"),
    ("DNVR", "Denver"),
    ("KSCY", "Kansas City"),
    ("HSTN", "Houston"),
    ("IPLS", "Indianapolis"),
    ("CHIN", "Chicago"),
    ("ATLA", "Atlanta"),
    ("WASH", "Washington"),
    ("NYCM", "New York"),
]

#: Published Abilene backbone links (OC-192 core), circa 2003.
_ABILENE_LINKS = [
    ("STTL", "SNVA"),
    ("STTL", "DNVR"),
    ("SNVA", "LOSA"),
    ("SNVA", "DNVR"),
    ("LOSA", "HSTN"),
    ("DNVR", "KSCY"),
    ("KSCY", "HSTN"),
    ("KSCY", "IPLS"),
    ("HSTN", "ATLA"),
    ("IPLS", "CHIN"),
    ("IPLS", "ATLA"),
    ("CHIN", "NYCM"),
    ("ATLA", "WASH"),
    ("WASH", "NYCM"),
]


def abilene() -> Topology:
    """The Abilene backbone: 11 PoPs, 121 OD flows, 1/100 sampling, /21 anonymisation."""
    return _build(
        "Abilene",
        _ABILENE_POPS,
        _ABILENE_LINKS,
        sampling_rate=100,
        anonymization_bits=11,
        base_octet=10,
    )


#: Geant PoPs (22 European capitals) for the November 2004 period.
_GEANT_POPS = [
    ("AT", "Vienna"),
    ("BE", "Brussels"),
    ("CH", "Geneva"),
    ("CZ", "Prague"),
    ("DE", "Frankfurt"),
    ("ES", "Madrid"),
    ("FR", "Paris"),
    ("GR", "Athens"),
    ("HR", "Zagreb"),
    ("HU", "Budapest"),
    ("IE", "Dublin"),
    ("IL", "Tel Aviv"),
    ("IT", "Milan"),
    ("LU", "Luxembourg"),
    ("NL", "Amsterdam"),
    ("PL", "Poznan"),
    ("PT", "Lisbon"),
    ("SE", "Stockholm"),
    ("SI", "Ljubljana"),
    ("SK", "Bratislava"),
    ("UK", "London"),
    ("DK", "Copenhagen"),
]

#: Approximation of the 2004 Geant core: a dense western core
#: (DE/FR/UK/NL/CH/IT) with national rings hanging off it.
_GEANT_LINKS = [
    ("UK", "FR"), ("UK", "NL"), ("UK", "IE"), ("UK", "SE"),
    ("FR", "DE"), ("FR", "ES"), ("FR", "CH"), ("FR", "LU"),
    ("DE", "NL"), ("DE", "CH"), ("DE", "AT"), ("DE", "DK"),
    ("DE", "PL"), ("DE", "CZ"), ("DE", "HU"), ("DE", "IT"),
    ("NL", "BE"), ("BE", "LU"),
    ("CH", "IT"), ("IT", "GR"), ("IT", "IL"),
    ("AT", "HU"), ("AT", "SI"), ("AT", "CZ"), ("AT", "SK"),
    ("HU", "HR"), ("SI", "HR"), ("CZ", "SK"),
    ("ES", "PT"), ("SE", "DK"), ("PL", "CZ"),
]


def geant() -> Topology:
    """The Geant backbone: 22 PoPs, 484 OD flows, 1/1000 sampling, unanonymised."""
    return _build(
        "Geant",
        _GEANT_POPS,
        _GEANT_LINKS,
        sampling_rate=1000,
        anonymization_bits=0,
        base_octet=62,
    )


def topology_by_name(name: str) -> Topology:
    """Build a registered backbone by its (case-insensitive) name.

    The lookup every consumer of a recorded artifact shares: trace
    replay, derived-column backfill, and the CLI all resolve a trace
    header's ``network`` field through here.
    """
    key = str(name).lower()
    if key == "abilene":
        return abilene()
    if key == "geant":
        return geant()
    raise ValueError(
        f"{name!r} is not a known topology (expected 'abilene' or 'geant')"
    )
