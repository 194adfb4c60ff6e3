"""Routing substrate: longest-prefix match and egress-PoP resolution.

The paper aggregates sampled IP flows into Origin-Destination (OD) flows
by resolving, for every flow record sampled at an ingress PoP, the
egress PoP it will leave the network at — using BGP and ISIS tables
(Feldmann et al. [10]).  We reproduce that function with:

* :class:`PrefixTable` — a longest-prefix-match table from CIDR prefixes
  to arbitrary values (here: PoP indices).  Scalar lookups probe
  per-length hash maps from longest to shortest (the specification);
  array lookups gather from a two-level direct-indexed table in the
  manner of Gupta, Lin and McKeown's DIR-24-8 (INFOCOM 1998), split at
  /16 — one or two gathers per address, whatever the prefix lengths —
  and
* :class:`Router` — egress resolution plus intra-domain shortest paths
  over the backbone graph, with a default route for off-net prefixes.

Every lookup refuses an address outside ``[0, 2**32)`` with a
``ValueError`` rather than aliasing it onto some in-range address.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

import numpy as np

from repro.net.addressing import IPV4_BITS, Prefix, mask_low_bits
from repro.net.topology import Topology

__all__ = ["PrefixTable", "Router"]

V = TypeVar("V")

#: Bits of an address that index the level-1 table (and the width of
#: the level-2 rows' index: the remaining low bits).
_SPLIT = 16
_LOW_MASK = (1 << _SPLIT) - 1
_MAX_IP = (1 << IPV4_BITS) - 1


def _check_addresses(arr: np.ndarray) -> None:
    """Refuse addresses outside ``[0, 2**32)``, naming the first one."""
    if len(arr) and (arr.min() < 0 or arr.max() > _MAX_IP):
        bad = arr[(arr < 0) | (arr > _MAX_IP)][0]
        raise ValueError(f"address {int(bad)} outside [0, 2**32)")


def _expand(prefixes: list[tuple[int, int]], bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, route ids)`` covered by same-length prefixes.

    ``prefixes`` holds ``(first slot, route id)`` pairs of one length
    that each span ``1 << bits`` consecutive slots.
    """
    first, ids = np.array(prefixes, dtype=np.int64).T
    span = np.arange(1 << bits, dtype=np.int64)
    return (first[:, None] + span).ravel(), np.repeat(ids, len(span))


class PrefixTable(Generic[V]):
    """Longest-prefix-match table.

    Routes live in one dict per prefix length; :meth:`lookup` masks the
    address at each populated length from /32 downwards and returns the
    first hit — the specification the array lookups are tested against.

    The array lookups gather from a two-level direct-indexed table
    built lazily on first use and dropped by :meth:`add` /
    :meth:`remove`:

    * level 1 holds 2**16 ``int32`` route ids indexed by ``ip >> 16``
      (-1: no route), filled from the prefixes of length <= 16 shortest
      first, so a longer prefix overwrites the shorter ones it nests in;
    * level 2 is one stacked ``(n, 2**16)`` ``int32`` array, one row per
      /16 that holds a prefix longer than /16, indexed by the low 16
      bits.  Each row starts as a copy of its /16's level-1 entry and
      takes the prefixes of length 17–32 shortest first; a ``(2**16,)``
      row-id map sends the addresses of those /16s there.

    Memory is 256 KiB for level 1 plus 256 KiB per /16 that holds a
    longer prefix.  Abilene and GÉANT have no level-2 rows: every PoP
    originates one /16.
    """

    def __init__(self) -> None:
        self._tables: dict[int, dict[int, V]] = {}
        self._lengths: list[int] = []  # sorted descending
        self._direct: tuple[np.ndarray, np.ndarray, np.ndarray, list[V]] | None = None

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def add(self, prefix: Prefix, value: V) -> None:
        """Insert (or replace) a route for ``prefix``."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._lengths = sorted(self._tables, reverse=True)
        table[prefix.network] = value
        self._direct = None

    def remove(self, prefix: Prefix) -> None:
        """Remove the route for ``prefix`` (KeyError if absent)."""
        table = self._tables[prefix.length]
        del table[prefix.network]
        if not table:
            del self._tables[prefix.length]
            self._lengths = sorted(self._tables, reverse=True)
        self._direct = None

    def lookup(self, ip: int) -> V | None:
        """Longest-prefix match; None when no route covers ``ip``."""
        if not 0 <= ip <= _MAX_IP:
            raise ValueError(f"address {ip} outside [0, 2**32)")
        for length in self._lengths:
            key = mask_low_bits(ip, IPV4_BITS - length)
            table = self._tables[length]
            if key in table:
                return table[key]
        return None

    def _direct_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[V]]:
        """``(level1, row_of, level2, values)``, built once per change.

        ``values[i]`` is the value of route id ``i``; ``row_of`` maps a
        /16 to its level-2 row (-1: level 1 is final).
        """
        if self._direct is None:
            values: list[V] = []
            level1 = np.full(1 << _SPLIT, -1, dtype=np.int32)
            deep: dict[int, list[tuple[int, int]]] = {}  # length > 16, ascending
            for length in sorted(self._tables):
                table = self._tables[length]
                routes = [(net, len(values) + i) for i, net in enumerate(table)]
                values.extend(table.values())
                if length > _SPLIT:
                    deep[length] = routes
                    continue
                slots, ids = _expand(
                    [(net >> _SPLIT, i) for net, i in routes], _SPLIT - length
                )
                level1[slots] = ids
            rows = np.unique(np.array(
                [net >> _SPLIT for routes in deep.values() for net, _ in routes],
                dtype=np.int64,
            ))
            row_of = np.full(1 << _SPLIT, -1, dtype=np.int32)
            row_of[rows] = np.arange(len(rows), dtype=np.int32)
            level2 = np.repeat(level1[rows][:, None], 1 << _SPLIT, axis=1)
            flat = level2.reshape(-1)
            for length, routes in deep.items():
                slots, ids = _expand(
                    [((int(row_of[net >> _SPLIT]) << _SPLIT) | (net & _LOW_MASK), i)
                     for net, i in routes],
                    IPV4_BITS - length,
                )
                flat[slots] = ids
            self._direct = (level1, row_of, level2, values)
        return self._direct

    def lookup_indices(self, ips: np.ndarray) -> tuple[np.ndarray, list[V]]:
        """Vectorised longest-prefix match over an address array.

        Returns ``(indices, values)``: ``values[indices[i]]`` is the
        matched route for ``ips[i]``, with index -1 for unrouted
        addresses.  One level-1 gather by ``ip >> 16`` resolves every
        address; addresses in a /16 that holds a longer prefix take one
        more gather from that /16's level-2 row.  ``ValueError`` for an
        address outside ``[0, 2**32)``.
        """
        arr = np.asarray(ips, dtype=np.int64)
        _check_addresses(arr)
        level1, row_of, level2, values = self._direct_tables()
        high = arr >> _SPLIT
        indices = level1[high]
        if len(level2):
            rows = row_of[high]
            deep = np.flatnonzero(rows >= 0)
            indices[deep] = level2[rows[deep], arr[deep] & _LOW_MASK]
        return indices, values

    def lookup_int_many(self, ips: np.ndarray, default: int) -> np.ndarray:
        """Vectorised lookup when the table's values are integers.

        Returns an int64 array with ``default`` for unrouted addresses
        — the hot path behind :meth:`Router.egress_pops`.
        """
        indices, values = self.lookup_indices(ips)
        table = np.asarray([default] + [int(v) for v in values], dtype=np.int64)
        return table[indices + 1]

    def lookup_array(self, ips: np.ndarray, default: V) -> list[V]:
        """Vectorised lookup for an array of addresses (list of values)."""
        indices, values = self.lookup_indices(ips)
        return [values[i] if i >= 0 else default for i in indices.tolist()]

    def items(self) -> Iterable[tuple[Prefix, V]]:
        """Iterate all (prefix, value) routes."""
        for length, table in self._tables.items():
            for network, value in table.items():
                yield Prefix(network, length), value


class Router:
    """Egress resolution and intra-domain paths for a backbone topology.

    Builds a :class:`PrefixTable` from each PoP's originated prefix.
    Destinations that match no PoP prefix (off-net traffic) fall back to
    ``default_egress`` — mirroring how real transit traffic exits at a
    peering PoP.
    """

    def __init__(self, topology: Topology, default_egress: int = 0) -> None:
        self.topology = topology
        self.default_egress = default_egress
        self.table: PrefixTable[int] = PrefixTable()
        for pop in topology.pops:
            self.table.add(pop.prefix, pop.index)

    def egress_pop(self, dst_ip: int) -> int:
        """Egress PoP index for a destination address."""
        hit = self.table.lookup(dst_ip)
        return self.default_egress if hit is None else hit

    def egress_pops(self, dst_ips: np.ndarray) -> np.ndarray:
        """Vectorised egress resolution.

        One gather from the table's direct-indexed level 1 (plus one
        from level 2 for addresses in a /16 that holds a longer prefix;
        none on the per-PoP /16 allocation) instead of per-address
        Python dispatch or a mask pass per PoP.  ``ValueError`` for an
        address outside ``[0, 2**32)``.
        """
        return self.table.lookup_int_many(dst_ips, self.default_egress)

    def resolve_od(self, ingress_pop: int, dst_ip: int) -> int:
        """OD-flow index for a record sampled at ``ingress_pop``."""
        return self.topology.od_index(ingress_pop, self.egress_pop(dst_ip))

    def resolve_ods(self, ingress_pop: int, dst_ips: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`resolve_od`."""
        return ingress_pop * self.topology.n_pops + self.egress_pops(dst_ips)

    def resolve_ods_mixed(
        self, ingress_pops: np.ndarray, dst_ips: np.ndarray
    ) -> np.ndarray:
        """Vectorised OD attribution over mixed ingress PoPs.

        ``od = ingress * n_pops + egress`` — the same rule as
        :meth:`resolve_od`, applied to whole record batches; shared by
        the batch aggregator and the streaming feature stage.
        """
        return (
            np.asarray(ingress_pops, dtype=np.int64) * self.topology.n_pops
            + self.egress_pops(dst_ips)
        )

    def path(self, od: int) -> list[str]:
        """Backbone path (PoP codes) taken by an OD flow."""
        origin, destination = self.topology.od_pair(od)
        return self.topology.shortest_path(origin.code, destination.code)

    def link_load_ods(self, link: tuple[str, str]) -> list[int]:
        """All OD flows whose shortest path traverses ``link``.

        Used by outage modelling: when a link fails, the traffic of the
        OD flows routed over it shifts or disappears.
        """
        a, b = link
        ods = []
        for od in range(self.topology.n_od_flows):
            path = self.path(od)
            for u, v in zip(path, path[1:]):
                if (u, v) == (a, b) or (u, v) == (b, a):
                    ods.append(od)
                    break
        return ods
