"""Cross-subsystem integration: energy integrals, DTM quiescence, boots."""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.node import ComputeNode
from repro.events.engine import Engine
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.thermal.dtm import ClusterDTM
from repro.thermal.enclosure import EnclosureConfig


class TestEnergyIntegrals:
    def test_boot_energy_matches_phase_model(self):
        """The rail energy accumulated through a boot equals the piecewise
        phase powers × durations (R1: 1.385 W × 6 s, R2: 4.024 W × 15 s)."""
        engine = Engine()
        node = ComputeNode(hostname="n")
        engine.run_until_complete(engine.spawn(node.boot_process(engine)))
        # Close the integrals at the boot-complete instant.
        node.sync_to(engine.now)
        total_j = sum(rail.energy_j for rail in node.board.rails)
        expected = 1.385 * 6.0 + 4.024 * 15.0
        assert total_j == pytest.approx(expected, rel=0.02)

    def test_idle_hour_energy(self):
        engine = Engine()
        node = ComputeNode(hostname="n")
        engine.run_until_complete(engine.spawn(node.boot_process(engine)))
        node.advance(3600.0)
        energy_after_boot = sum(rail.energy_j for rail in node.board.rails)
        # Idle hour at 4.81 W plus the boot's ~69 J.
        assert energy_after_boot == pytest.approx(4.81 * 3600.0 + 69.0,
                                                  rel=0.02)


class TestDTMQuiescence:
    def test_no_throttling_in_mitigated_enclosure(self):
        """DTM is a no-op on the fixed machine: no governor ever steps."""
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        dtm = ClusterDTM(cluster.nodes)
        dtm.start(cluster.engine)
        api = SlurmAPI(cluster.slurm)
        api.srun("hpl", "bench", 8, duration_s=1200.0, profile=HPL_PROFILE)
        assert dtm.all_events() == []
        assert all(governor.scale == 1.0
                   for governor in dtm.governors.values())

    def test_governor_releases_only_after_mechanical_fix(self):
        """With the lids on, slot 4 is so starved that even *idle* heat
        keeps the governor engaged (steady ~99 °C at 4.8 W); the throttle
        releases once the §V-C mechanical mitigation is applied — DTM is
        a survival tool, not a substitute for fixing the airflow."""
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.original())
        cluster.boot_all()
        dtm = ClusterDTM(cluster.nodes)
        dtm.start(cluster.engine)
        api = SlurmAPI(cluster.slurm)
        api.srun("hpl", "bench", 8, duration_s=1800.0, profile=HPL_PROFILE)
        governor = dtm.governors["mc-node-7"]
        assert governor.throttled
        cluster.run_for(600.0)              # idle, lids still on:
        assert governor.throttled           # still too hot to release
        cluster.apply_thermal_mitigation()  # the paper's fix
        cluster.run_for(600.0)
        assert not governor.throttled
        assert cluster.nodes["mc-node-7"].frequency_scale == 1.0


class TestRepeatedCampaigns:
    def test_back_to_back_full_machine_runs_stay_stable(self):
        """Three consecutive full-machine HPL runs: temperatures and the
        scheduler stay in steady state (no drift, no leaks)."""
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        api = SlurmAPI(cluster.slurm)
        peaks = []
        for i in range(3):
            api.srun(f"hpl-{i}", "bench", 8, duration_s=600.0,
                     profile=HPL_PROFILE)
            peaks.append(cluster.hottest_node()[1])
        # Thermal steady state: later runs peak where the first did.
        assert max(peaks) - min(peaks) < 2.0
        assert cluster.slurm.partitions["compute"].n_idle() == 8
        assert cluster.watchdog.tripped_nodes() == []
