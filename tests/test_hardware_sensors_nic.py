"""Tests for thermal sensors/hwmon (Table IV) and the network interfaces."""

import pytest

from repro.hardware.nic import (
    GigabitEthernet,
    IBState,
    InfinibandHCA,
    RDMAUnsupportedError,
)
from repro.hardware.sensors import HWMON_PATHS, HwmonTree, ThermalSensor


class TestThermalSensor:
    def test_millidegrees(self):
        sensor = ThermalSensor(name="cpu_temp", temperature_c=42.5)
        assert sensor.millidegrees() == 42500


class TestHwmonTree:
    def test_table_iv_paths(self):
        # Table IV verbatim.
        assert HWMON_PATHS["nvme_temp"] == "/sys/class/hwmon/hwmon0/temp1_input"
        assert HWMON_PATHS["mb_temp"] == "/sys/class/hwmon/hwmon1/temp1_input"
        assert HWMON_PATHS["cpu_temp"] == "/sys/class/hwmon/hwmon1/temp2_input"

    def test_read_returns_kernel_format(self):
        tree = HwmonTree()
        tree.set_celsius("cpu_temp", 55.0)
        raw = tree.read("/sys/class/hwmon/hwmon1/temp2_input")
        assert raw == "55000\n"

    def test_read_unknown_path_raises_filenotfound(self):
        with pytest.raises(FileNotFoundError):
            HwmonTree().read("/sys/class/hwmon/hwmon9/temp1_input")


class TestGigabitEthernet:
    def test_traffic_accounting(self):
        nic = GigabitEthernet()
        nic.account_send(100)
        nic.account_receive(200)
        assert nic.bytes_sent == 100
        assert nic.bytes_received == 200

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            GigabitEthernet().account_send(-1)


class TestInfinibandHCA:
    def test_bringup_state_machine(self):
        hca = InfinibandHCA()
        assert hca.state is IBState.DETECTED
        hca.load_driver()
        assert hca.state is IBState.DRIVER_LOADED
        hca.activate_link()
        assert hca.state is IBState.LINK_ACTIVE

    def test_link_needs_driver(self):
        hca = InfinibandHCA()
        with pytest.raises(RuntimeError, match="driver"):
            hca.activate_link()

    def test_absent_hca(self):
        hca = InfinibandHCA(installed=False)
        assert not hca.installed
        with pytest.raises(RuntimeError):
            hca.load_driver()

    def test_ibping_needs_both_links_active(self):
        a, b = InfinibandHCA(), InfinibandHCA()
        for hca in (a, b):
            hca.load_driver()
        assert not a.ibping(b)
        a.activate_link()
        b.activate_link()
        assert a.ibping(b)

    def test_rdma_always_unsupported(self):
        # §III: RDMA capabilities unusable on Monte Cimone.
        a, b = InfinibandHCA(), InfinibandHCA()
        for hca in (a, b):
            hca.load_driver()
            hca.activate_link()
        with pytest.raises(RDMAUnsupportedError):
            a.rdma_write(b, 4096)
