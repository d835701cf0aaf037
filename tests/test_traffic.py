"""Traffic-generator tests: distributions, workloads, anomalies."""

import hashlib

import numpy as np
import pytest

from repro.core.interpreter import run_query
from repro.traffic.caida import (
    CaidaTraceConfig,
    generate_caida_like,
    generate_key_stream,
)
from repro.traffic.datacenter import DatacenterConfig, DatacenterWorkload
from repro.traffic.distributions import (
    bimodal_packet_sizes,
    bounded_zipf,
    exponential_gaps,
)
from repro.traffic.incast import IncastConfig, generate_incast
from repro.traffic.tcpgen import (
    TcpAnomalyConfig,
    clean_sequence_table,
    inject_tcp_anomalies,
)
from repro.traffic.trace_io import validate_table

from tests.conftest import synthetic_trace


class TestDistributions:
    def test_zipf_support(self):
        rng = np.random.default_rng(1)
        samples = bounded_zipf(rng, 10_000, alpha=1.2, low=1, high=1000)
        assert samples.min() >= 1 and samples.max() <= 1000

    def test_zipf_is_heavy_tailed(self):
        rng = np.random.default_rng(1)
        samples = bounded_zipf(rng, 50_000, alpha=1.2, low=1, high=10_000)
        # Top 10% of flows should carry well over half the mass.
        top = np.sort(samples)[-len(samples) // 10:]
        assert top.sum() > 0.5 * samples.sum()

    def test_zipf_invalid_support(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            bounded_zipf(rng, 10, alpha=1.0, low=5, high=2)

    def test_bimodal_mean(self):
        rng = np.random.default_rng(2)
        sizes = bimodal_packet_sizes(rng, 100_000, mean=850.0)
        assert sizes.mean() == pytest.approx(850.0, rel=0.02)
        assert set(np.unique(sizes)) <= {64, 1500}

    def test_bimodal_mean_out_of_range(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            bimodal_packet_sizes(rng, 10, small=64, large=1500, mean=2000)

    def test_exponential_gaps_positive(self):
        rng = np.random.default_rng(3)
        gaps = exponential_gaps(rng, 1000, mean_ns=50.0)
        assert gaps.min() >= 1


class TestCaidaGenerator:
    CFG = CaidaTraceConfig(scale=1 / 2048)

    def test_deterministic(self):
        a = generate_key_stream(self.CFG)
        b = generate_key_stream(self.CFG)
        assert np.array_equal(a, b)

    def test_flow_packet_ratio_near_paper(self):
        keys = generate_key_stream(CaidaTraceConfig(scale=1 / 512))
        ratio = len(np.unique(keys)) / len(keys)
        # Paper: 3.8M/157M ≈ 0.0242; generator targets the same decade.
        assert 0.01 < ratio < 0.05

    def test_full_table_fields(self):
        table = generate_caida_like(self.CFG)
        assert len(table) > 10_000
        record = table[0]
        assert record.pkt_len >= 64
        assert record.tout > record.tin

    def test_table_time_ordered(self):
        table = generate_caida_like(self.CFG)
        tins = [r.tin for r in table[:5000]]
        assert tins == sorted(tins)

    def test_protocol_mix(self):
        table = generate_caida_like(self.CFG)
        protos = {r.proto for r in table[:20_000]}
        assert protos <= {6, 17} and 6 in protos


class TestDatacenterWorkload:
    def test_observation_table_valid(self):
        workload = DatacenterWorkload(DatacenterConfig(n_flows=200,
                                                       duration_ns=50_000_000))
        table = workload.observation_table()
        assert validate_table(table) == []

    def test_mean_packet_size(self):
        workload = DatacenterWorkload(DatacenterConfig(n_flows=500,
                                                       duration_ns=100_000_000))
        table = workload.observation_table()
        sizes = np.array([r.pkt_len for r in table])
        assert sizes.mean() == pytest.approx(850, rel=0.05)

    def test_injection_events_sorted(self):
        workload = DatacenterWorkload(DatacenterConfig(n_flows=100,
                                                       duration_ns=20_000_000))
        events = workload.injection_events()
        times = [e.time_ns for e in events]
        assert times == sorted(times)

    def test_rack_locality(self):
        config = DatacenterConfig(n_flows=2000, intra_rack_fraction=0.9,
                                  duration_ns=10_000_000)
        workload = DatacenterWorkload(config)
        ids, _flow_of, _times = workload.packet_schedule()
        same_rack = (ids["src_host"] // config.hosts_per_rack ==
                     ids["dst_host"] // config.hosts_per_rack)
        assert same_rack.mean() > 0.8


class TestIncast:
    def test_incast_causes_drops_at_hotspot(self):
        result = generate_incast(IncastConfig(n_senders=16, rounds=3))
        assert result.drops > 0
        assert result.peak_depth >= 16
        drops_at_hotspot = sum(
            1 for r in result.table
            if r.qid == result.hotspot_qid and r.dropped)
        assert drops_at_hotspot == result.drops

    def test_senders_identified(self):
        result = generate_incast(IncastConfig(n_senders=8, rounds=2))
        srcs_at_hotspot = {r.srcip for r in result.table
                           if r.qid == result.hotspot_qid}
        for sender_ip in result.sender_ips:
            assert sender_ip in srcs_at_hotspot


class TestTcpAnomalies:
    def _clean_table(self):
        workload = DatacenterWorkload(DatacenterConfig(n_flows=100,
                                                       duration_ns=50_000_000))
        table = workload.observation_table()
        clean_sequence_table(table)
        return table

    def test_clean_table_has_zero_out_of_seq(self):
        table = self._clean_table()
        result = run_query(
            "def outofseq ((lastseq, oos), (tcpseq, payload_len)):\n"
            "    if lastseq + 1 != tcpseq: oos = oos + 1\n"
            "    lastseq = tcpseq + payload_len\n"
            "SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP",
            table)
        oos_counts = [r["outofseq.oos"] for r in result]
        # Only each flow's first packet trips the check (lastseq=0 init).
        assert all(c <= 1 for c in oos_counts)

    def test_anomalies_detected_by_nonmt_query(self):
        table = self._clean_table()
        counts = inject_tcp_anomalies(table, TcpAnomalyConfig(
            retransmit_rate=0.05, reorder_rate=0.0, duplicate_rate=0.0))
        assert counts["retransmit"] > 0
        result = run_query(
            "def nonmt ((maxseq, nm), tcpseq):\n"
            "    if maxseq > tcpseq: nm = nm + 1\n"
            "    maxseq = max(maxseq, tcpseq)\n"
            "SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP",
            table)
        total_nm = sum(r["nonmt.nm"] for r in result)
        assert total_nm >= counts["retransmit"] * 0.8

    def test_injection_counts_reported(self):
        table = self._clean_table()
        counts = inject_tcp_anomalies(table)
        assert set(counts) == {"retransmit", "reorder", "duplicate"}
        assert all(v >= 0 for v in counts.values())

    @staticmethod
    def _digest(table) -> str:
        """sha256 over the column bytes in sorted field order."""
        columns = table.columns()
        digest = hashlib.sha256()
        for name in sorted(columns):
            digest.update(columns[name].tobytes())
        return digest.hexdigest()

    def test_rewrite_is_pinned_datacenter(self):
        """Counts and columns recorded from the per-record implementation
        (dict of flows, sequential writes on record objects)."""
        table = DatacenterWorkload(DatacenterConfig(
            n_flows=400, duration_ns=100_000_000, seed=16)).observation_table()
        clean_sequence_table(table)
        counts = inject_tcp_anomalies(table, TcpAnomalyConfig(
            retransmit_rate=0.05, reorder_rate=0.05, duplicate_rate=0.02,
            seed=16))
        assert counts == {"retransmit": 2109, "reorder": 2198,
                          "duplicate": 862}
        assert self._digest(table) == (
            "28d3dfe601eaf09fbbd59d866f6fef11"
            "4bbacbde443760631b4588d978b160cd")

    def test_rewrite_is_pinned_mixed_protocols(self):
        """UDP rows in between keep their values and do not join a flow."""
        table = synthetic_trace(n_packets=3000, n_flows=40, seed=5)
        counts = inject_tcp_anomalies(table, TcpAnomalyConfig(
            retransmit_rate=0.1, reorder_rate=0.1, duplicate_rate=0.05,
            seed=5))
        assert counts == {"retransmit": 251, "reorder": 230,
                          "duplicate": 118}
        assert self._digest(table) == (
            "51c2d22444d30df729847630e7af4a24"
            "03179197378d3c8fe29f9c2682502e2f")
