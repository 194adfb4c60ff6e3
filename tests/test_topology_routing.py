"""Tests for backbone topologies and routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import Prefix, parse_ip
from repro.net.routing import PrefixTable, Router
from repro.net.topology import PoP, Topology, abilene, geant


class TestAbileneTopology:
    def test_pop_and_od_counts_match_paper(self):
        topo = abilene()
        assert topo.n_pops == 11
        assert topo.n_od_flows == 121

    def test_sampling_and_anonymization(self):
        topo = abilene()
        assert topo.sampling_rate == 100
        assert topo.anonymization_bits == 11

    def test_graph_connected(self):
        import networkx as nx

        assert nx.is_connected(abilene().graph)

    def test_known_link_exists(self):
        topo = abilene()
        assert topo.graph.has_edge("DNVR", "KSCY")

    def test_graph_edges_list_the_links_in_order(self):
        topo = abilene()
        assert list(topo.graph.edges()) == topo.links


class TestGeantTopology:
    def test_pop_and_od_counts_match_paper(self):
        topo = geant()
        assert topo.n_pops == 22
        assert topo.n_od_flows == 484

    def test_sampling_rate(self):
        assert geant().sampling_rate == 1000

    def test_not_anonymized(self):
        assert geant().anonymization_bits == 0

    def test_twice_abilene(self):
        assert geant().n_pops == 2 * abilene().n_pops
        assert geant().n_od_flows == 4 * abilene().n_od_flows


class TestODIndexing:
    def test_od_index_round_trip(self):
        topo = abilene()
        for od in range(topo.n_od_flows):
            o, d = topo.od_pair(od)
            assert topo.od_index(o.index, d.index) == od

    def test_od_index_by_code(self):
        topo = abilene()
        od = topo.od_index("STTL", "NYCM")
        o, d = topo.od_pair(od)
        assert (o.code, d.code) == ("STTL", "NYCM")

    def test_od_name(self):
        topo = abilene()
        assert topo.od_name(topo.od_index("STTL", "NYCM")) == "STTL->NYCM"

    def test_ods_with_destination(self):
        topo = abilene()
        ods = topo.ods_with_destination("NYCM")
        assert len(ods) == topo.n_pops
        assert all(topo.od_pair(od)[1].code == "NYCM" for od in ods)

    def test_ods_with_origin(self):
        topo = abilene()
        ods = topo.ods_with_origin("STTL")
        assert len(ods) == topo.n_pops
        assert all(topo.od_pair(od)[0].code == "STTL" for od in ods)

    def test_out_of_range_rejected(self):
        topo = abilene()
        with pytest.raises(ValueError):
            topo.od_pair(121)
        with pytest.raises(ValueError):
            topo.od_index(11, 0)

    def test_prefixes_disjoint(self):
        topo = geant()
        networks = {p.prefix.network for p in topo.pops}
        assert len(networks) == topo.n_pops


class TestTopologyValidation:
    def _pops(self, n=2):
        return [
            PoP(index=i, code=f"P{i}", name=f"pop{i}", prefix=Prefix(i << 16, 16))
            for i in range(n)
        ]

    def test_duplicate_codes_rejected(self):
        pops = self._pops(2)
        pops[1] = PoP(index=1, code="P0", name="dup", prefix=Prefix(1 << 16, 16))
        with pytest.raises(ValueError):
            Topology("t", pops, [])

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            Topology("t", self._pops(2), [("P0", "P9")])

    def test_disconnected_rejected(self):
        pops = self._pops(3)
        with pytest.raises(ValueError):
            Topology("t", pops, [("P0", "P1")])

    def test_bad_index_order_rejected(self):
        pops = self._pops(2)
        pops[0] = PoP(index=1, code="P0", name="x", prefix=Prefix(0, 16))
        with pytest.raises(ValueError):
            Topology("t", pops, [])


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable()
        table.add(Prefix.parse("10.0.0.0/8"), "short")
        table.add(Prefix.parse("10.1.0.0/16"), "long")
        assert table.lookup(parse_ip("10.1.2.3")) == "long"
        assert table.lookup(parse_ip("10.2.2.3")) == "short"

    def test_miss_returns_none(self):
        table = PrefixTable()
        table.add(Prefix.parse("10.0.0.0/8"), 1)
        assert table.lookup(parse_ip("11.0.0.0")) is None

    def test_remove(self):
        table = PrefixTable()
        p = Prefix.parse("10.0.0.0/8")
        table.add(p, 1)
        table.remove(p)
        assert table.lookup(parse_ip("10.0.0.1")) is None
        assert len(table) == 0

    def test_replace(self):
        table = PrefixTable()
        p = Prefix.parse("10.0.0.0/8")
        table.add(p, 1)
        table.add(p, 2)
        assert table.lookup(parse_ip("10.0.0.1")) == 2
        assert len(table) == 1

    def test_items(self):
        table = PrefixTable()
        table.add(Prefix.parse("10.0.0.0/8"), "a")
        table.add(Prefix.parse("192.168.0.0/16"), "b")
        assert dict((str(p), v) for p, v in table.items()) == {
            "10.0.0.0/8": "a",
            "192.168.0.0/16": "b",
        }


_TOP = (1 << 32) - 1


@st.composite
def _route_ops(draw):
    """1–40 add / remove / replace operations over prefixes of every
    length around 1–3 anchor addresses, so /0, nested and overlapping
    prefixes and several longer-than-/16 prefixes in one /16 all occur."""
    anchors = draw(st.lists(st.integers(0, _TOP), min_size=1, max_size=3))
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        anchor = draw(st.sampled_from(anchors))
        flip = draw(st.one_of(st.integers(0, 0xFFFF), st.integers(0, _TOP)))
        prefix = Prefix(anchor ^ flip, draw(st.integers(0, 32)))
        ops.append((draw(st.sampled_from(["add", "add", "remove"])), prefix,
                    draw(st.integers(0, 20))))
    return ops


def _probe_addresses(prefixes, extra):
    """Every prefix's first and last address and their outside
    neighbours (where in range), plus ``extra``."""
    ips = list(extra)
    for prefix in prefixes:
        last = prefix.network + prefix.size - 1
        ips += [prefix.network - 1, prefix.network, last, last + 1]
    return np.array([ip for ip in ips if 0 <= ip <= _TOP], dtype=np.int64)


class TestDirectTable:
    """The direct-indexed array lookups against the scalar dict probe."""

    @given(ops=_route_ops(), extra=st.lists(st.integers(0, _TOP), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_array_lookups_equal_scalar_lookups(self, ops, extra):
        router = Router(abilene(), default_egress=4)
        table = router.table
        ips = _probe_addresses([prefix for _, prefix, _ in ops], extra)
        held = {}
        for action, prefix, value in ops:
            if action == "add":
                table.add(prefix, value)
                held[prefix] = value
            elif prefix in held:
                table.remove(prefix)
                del held[prefix]
            # Each change must drop the cached direct table.
            assert table.lookup_array(ips, None) == [table.lookup(int(ip)) for ip in ips]
        assert router.egress_pops(ips).tolist() == [
            router.egress_pop(int(ip)) for ip in ips
        ]

    def test_longer_prefixes_share_a_slash16(self):
        table = PrefixTable()
        table.add(Prefix.parse("10.1.0.0/16"), "16")
        table.add(Prefix.parse("10.1.2.0/24"), "24")
        table.add(Prefix.parse("10.1.2.128/25"), "25")
        table.add(Prefix.parse("10.1.2.200/32"), "32")
        table.add(Prefix.parse("0.0.0.0/0"), "0")
        ips = [parse_ip(t) for t in (
            "10.1.0.0", "10.1.2.0", "10.1.2.127", "10.1.2.128", "10.1.2.199",
            "10.1.2.200", "10.1.2.201", "10.1.3.0", "10.2.0.0", "255.255.255.255",
        )]
        assert table.lookup_array(np.array(ips), None) == [
            "16", "24", "24", "25", "25", "32", "25", "16", "0", "0",
        ]

    def test_empty_table_routes_nothing(self):
        table = PrefixTable()
        indices, values = table.lookup_indices(np.array([0, 12345, _TOP]))
        assert indices.tolist() == [-1, -1, -1] and values == []


class TestRouter:
    def test_egress_resolution_per_pop(self):
        topo = abilene()
        router = Router(topo)
        for pop in topo.pops:
            ip = pop.prefix.nth(17)
            assert router.egress_pop(ip) == pop.index

    def test_default_egress_for_offnet(self):
        router = Router(abilene(), default_egress=3)
        assert router.egress_pop(parse_ip("8.8.8.8")) == 3

    def test_vectorized_matches_scalar(self):
        topo = abilene()
        router = Router(topo)
        ips = np.array(
            [p.prefix.nth(9) for p in topo.pops] + [parse_ip("8.8.8.8")]
        )
        vec = router.egress_pops(ips)
        scalar = [router.egress_pop(int(ip)) for ip in ips]
        assert list(vec) == scalar

    @pytest.mark.parametrize("bad", ["wrapped", "minus_one", "negated"])
    def test_out_of_range_addresses_are_refused(self, bad):
        topo = abilene()
        router = Router(topo)
        a = topo.pops[4].prefix.nth(9)
        ip = {"wrapped": a + (1 << 32), "minus_one": -1, "negated": -a}[bad]
        with pytest.raises(ValueError, match=f"address {ip} outside"):
            router.egress_pop(ip)
        with pytest.raises(ValueError, match=f"address {ip} outside"):
            router.egress_pops(np.array([a, ip, a]))
        with pytest.raises(ValueError, match=f"address {ip} outside"):
            router.resolve_ods_mixed(np.array([0, 1, 2]), np.array([a, a, ip]))

    def test_address_range_ends_are_routed(self):
        router = Router(abilene(), default_egress=2)
        ips = np.array([0, _TOP])
        assert router.egress_pops(ips).tolist() == [2, 2]
        assert [router.egress_pop(int(ip)) for ip in ips] == [2, 2]

    def test_resolve_od(self):
        topo = abilene()
        router = Router(topo)
        dst = topo.pops[4].prefix.nth(1)
        assert router.resolve_od(2, dst) == topo.od_index(2, 4)

    def test_path_endpoints(self):
        topo = abilene()
        router = Router(topo)
        od = topo.od_index("STTL", "ATLA")
        path = router.path(od)
        assert path[0] == "STTL" and path[-1] == "ATLA"

    @pytest.mark.parametrize("build", [abilene, geant])
    def test_link_load_ods_match_a_networkx_graph_built_edge_by_edge(self, build):
        """The outage schedule's inputs: ``edges()`` order and every
        link's OD set equal those of a reference graph built edge by
        edge (``nx.Graph``, PoPs, then ``add_edge`` per link)."""
        import networkx as nx

        topo = build()
        reference = nx.Graph()
        reference.add_nodes_from(pop.code for pop in topo.pops)
        for a, b in topo.links:
            reference.add_edge(a, b)
        assert list(topo.graph.edges()) == list(reference.edges())
        router = Router(topo)
        for link in reference.edges():
            want = []
            for od in range(topo.n_od_flows):
                o, d = topo.od_pair(od)
                path = nx.shortest_path(reference, o.code, d.code)
                if any({u, v} == set(link) for u, v in zip(path, path[1:])):
                    want.append(od)
            assert router.link_load_ods(link) == want, link

    def test_link_load_ods_includes_endpoint_flow(self):
        topo = abilene()
        router = Router(topo)
        ods = router.link_load_ods(("DNVR", "KSCY"))
        assert topo.od_index("DNVR", "KSCY") in ods
        assert len(ods) > 1
