"""Tests for the simulated /proc view."""

import pytest

from repro.cluster.procfs import CpuTimes, ProcFS

GIB = 1024 ** 3
NAN = float("nan")


class TestCpuTimes:
    def test_empty_is_idle(self):
        assert CpuTimes().percentages()["idl"] == 100.0

    def test_percentages_sum_to_100(self):
        times = CpuTimes(usr=30, sys=10, idl=55, wai=5)
        assert sum(times.percentages().values()) == pytest.approx(100.0)


class TestProcFS:
    def _procfs(self):
        return ProcFS(n_cores=4, dram_bytes=16 * GIB)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcFS(n_cores=0, dram_bytes=1)

    def test_busy_interval_shows_user_time(self):
        procfs = self._procfs()
        procfs.account_cpu(10.0, utilisation=1.0)
        pct = procfs.cpu.percentages()
        assert pct["usr"] > 85.0
        assert pct["idl"] < 5.0

    def test_idle_interval_shows_idle_time(self):
        procfs = self._procfs()
        procfs.account_cpu(10.0, utilisation=0.0)
        assert procfs.cpu.percentages()["idl"] == pytest.approx(100.0)

    def test_load_average_rises_under_load(self):
        procfs = self._procfs()
        for _ in range(120):
            procfs.account_cpu(1.0, utilisation=1.0)
        # 4 busy cores → load approaches 4; 1m average reacts fastest.
        assert procfs.load_1m > 3.0
        assert procfs.load_1m > procfs.load_5m > procfs.load_15m

    def test_load_average_decays_when_idle(self):
        procfs = self._procfs()
        for _ in range(120):
            procfs.account_cpu(1.0, utilisation=1.0)
        peak = procfs.load_1m
        for _ in range(300):
            procfs.account_cpu(1.0, utilisation=0.0)
        assert procfs.load_1m < 0.2 * peak

    def test_interrupts_scale_with_activity(self):
        busy, idle = self._procfs(), self._procfs()
        busy.account_cpu(10.0, utilisation=1.0)
        idle.account_cpu(10.0, utilisation=0.0)
        assert busy.interrupts_total > idle.interrupts_total

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            self._procfs().account_cpu(-1.0, 0.5)

    @pytest.mark.parametrize("args", [(NAN, 0.5), (1.0, NAN),
                                      (1.0, 0.5, NAN), (1.0, 0.5, 0.08, NAN)])
    def test_nan_rejected_before_any_counter_moves(self, args):
        procfs = self._procfs()
        procfs.account_cpu(1.0, 0.5)
        before = (repr(procfs.cpu), procfs.loadavg(), procfs.system())
        with pytest.raises(ValueError):
            procfs.account_cpu(*args)
        assert (repr(procfs.cpu), procfs.loadavg(), procfs.system()) == before

    def test_memory_mirror(self):
        procfs = self._procfs()
        procfs.update_memory({"used": 100, "free": 200, "buff": 10, "cach": 20})
        assert procfs.memory() == {"used": 100, "free": 200,
                                   "buff": 10, "cach": 20}
