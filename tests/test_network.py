"""Tests for links, topology, the MPI cost model and the IB fabric."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.infiniband import InfinibandFabric
from repro.network.link import Link
from repro.network.mpi import MPICostModel
from repro.network.topology import ClusterTopology, Switch


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link("l", bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            Link("l", latency_s=-1)
        with pytest.raises(ValueError):
            Link("l", degraded_factor=0.5)


class TestTopology:
    def test_port_limit(self):
        with pytest.raises(ValueError):
            ClusterTopology([f"n{i}" for i in range(99)])

    def test_p2p_time_includes_switch_latency(self):
        topology = ClusterTopology(["a", "b"],
                                   link_bandwidth_bytes_per_s=100e6,
                                   link_latency_s=1e-4,
                                   switch=Switch(port_to_port_latency_s=1e-3))
        model = MPICostModel(topology, software_overhead_s=0.0)
        # Latency on both links plus the switch, then serialisation.
        assert model.point_to_point(0) == pytest.approx(2e-4 + 1e-3)
        assert model.point_to_point(100_000_000) == \
            pytest.approx(1.0 + 2e-4 + 1e-3)


class TestMPICostModel:
    MODEL = MPICostModel(ClusterTopology([f"n{i}" for i in range(8)]))

    def test_broadcast_zero_for_single_rank(self):
        assert self.MODEL.broadcast(1_000_000, 1) == 0.0

    def test_broadcast_scales_log2(self):
        t2 = self.MODEL.broadcast(1_000_000, 2)
        t8 = self.MODEL.broadcast(1_000_000, 8)
        assert t8 == pytest.approx(3 * t2)

    def test_allreduce_twice_broadcast_rounds(self):
        assert self.MODEL.allreduce(1_000_000, 8) == \
            pytest.approx(2 * self.MODEL.broadcast(1_000_000, 8))

    def test_ring_exchange_spreads_volume(self):
        # Ring over P ranks moves (P-1)/P of the volume per endpoint.
        dt = self.MODEL.ring_exchange(8_000_000, 8)
        latency, bandwidth = self.MODEL._link_params()
        expected = 7 * (latency + 1_000_000 / bandwidth)
        assert dt == pytest.approx(expected)

    def test_software_overhead_dominates_small_messages(self):
        small = self.MODEL.point_to_point(8)
        assert small > self.MODEL.software_overhead_s

    @given(size=st.integers(min_value=0, max_value=10 ** 9),
           ranks=st.integers(min_value=2, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_collectives_monotone_in_size(self, size, ranks):
        """Property: larger payloads never complete faster."""
        assert (self.MODEL.broadcast(size + 1024, ranks)
                >= self.MODEL.broadcast(size, ranks))


class TestInfinibandFabric:
    def test_paper_status_snapshot(self):
        fabric = InfinibandFabric()
        fabric.bring_up()
        status = fabric.status()
        # §III, all five claims.
        assert status.device_recognised
        assert status.driver_loaded
        assert status.ofed_mounted
        assert status.board_to_board_ping
        assert status.board_to_server_ping
        assert not status.rdma_functional

    def test_status_before_bringup(self):
        status = InfinibandFabric().status()
        assert status.device_recognised
        assert not status.board_to_board_ping

    def test_two_nodes_carry_hcas(self):
        fabric = InfinibandFabric()
        assert set(fabric.hcas) == {"mc-node-1", "mc-node-2"}
