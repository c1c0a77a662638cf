"""Tests for Spack display, ASCII plots, sbatch_script API, CLI."""

import pytest

from repro.benchmarks.hpl import HPLModel
from repro.perf.plots import render_scaling_plot
from repro.perf.scaling import strong_scaling_table
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.spack.concretizer import Concretizer
from repro.spack.display import render_find, render_spec_tree
from repro.spack.installer import Installer
from repro.spack.spec import Spec


class TestSpackDisplay:
    def test_spec_tree_shows_dependencies_indented(self):
        concrete = Concretizer().concretize(Spec.parse("hpl@2.3"))
        tree = render_spec_tree(concrete)
        lines = tree.splitlines()
        assert lines[0].startswith("hpl@2.3")
        assert any(line.startswith("    openblas") for line in lines)
        assert any(line.startswith("    openmpi") for line in lines)

    def test_shared_deps_referenced_once(self):
        concrete = Concretizer().concretize(Spec.parse("netlib-scalapack"))
        tree = render_spec_tree(concrete)
        # openblas appears under both lapack and scalapack; the second
        # occurrence is a back-reference.
        assert tree.count("(see above)") >= 1

    def test_find_empty_database(self):
        assert render_find(Installer()) == "==> 0 installed packages"

    def test_find_lists_installed(self):
        installer = Installer()
        installer.install(Concretizer().concretize(Spec.parse("stream@5.10")))
        text = render_find(installer)
        assert "==> 1 installed packages" in text
        assert "stream@5.10" in text
        assert "linux-u74mc" in text


class TestPlots:
    def test_scaling_plot_contains_points_and_reference(self):
        points = strong_scaling_table(HPLModel())
        text = render_scaling_plot(points)
        assert text.count("o") >= 4          # the four measured points
        assert "." in text                   # the linear reference
        assert "86." in text or "85." in text  # fraction-of-linear label

    def test_scaling_plot_rejects_empty(self):
        with pytest.raises(ValueError):
            render_scaling_plot([])


class TestSbatchScriptAPI:
    def test_script_submission(self):
        from tests.test_slurm import make_controller

        api = SlurmAPI(make_controller(n_nodes=4))
        script = ("#!/bin/bash\n"
                  "#SBATCH --job-name=scripted\n"
                  "#SBATCH -N 2\n"
                  "#SBATCH --time=01:00:00\n"
                  "srun xhpl\n")
        job_id = api.sbatch_script(script, user="alice", duration_s=100.0)
        job = api.controller.jobs[job_id]
        assert job.name == "scripted"
        assert job.n_nodes == 2
        assert job.time_limit_s == 3600.0
        api.wait_all()
        assert job.state is JobState.COMPLETED

    def test_script_time_limit_enforced(self):
        from tests.test_slurm import make_controller

        api = SlurmAPI(make_controller())
        script = ("#!/bin/bash\n"
                  "#SBATCH -N 1\n"
                  "#SBATCH -t 10:00\n"          # 10 minutes
                  "srun long-job\n")
        job_id = api.sbatch_script(script, user="bob", duration_s=10000.0)
        api.wait_all()
        assert api.controller.jobs[job_id].state is JobState.TIMEOUT


class TestCLI:
    def test_power_command(self, capsys):
        from repro.__main__ import main

        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "core" in out and "leakage_fraction" in out

    def test_stack_command(self, capsys):
        from repro.__main__ import main

        assert main(["stack"]) == 0
        out = capsys.readouterr().out
        assert "hpl@2.3" in out

    def test_scaling_command(self, capsys):
        from repro.__main__ import main

        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "GFLOP/s" in out

    def test_report_command(self, tmp_path, capsys):
        from repro.__main__ import main

        output = tmp_path / "exp.md"
        assert main(["report", "--output", str(output),
                     "--sim-duration", "120"]) == 0
        assert output.exists()
        assert "Table VI" in output.read_text()

    def test_unknown_command_exits_nonzero(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
