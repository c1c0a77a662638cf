"""Tests for the concretizer, installer, environment and archspec."""

import pytest

from repro.analysis import paper
from repro.spack.archspec import ARCHSPEC_TARGETS
from repro.spack.concretizer import ConcretizationError, Concretizer
from repro.spack.environment import MONTE_CIMONE_STACK, SpackEnvironment
from repro.spack.installer import InstallError, Installer
from repro.spack.package import Dependency, PackageDefinition
from repro.spack.repo import Repository, builtin_repo
from repro.spack.spec import Spec
from repro.spack.version import Version, VersionRange


class TestArchspec:
    def test_u74mc_target_present(self):
        # §IV: "Explicit support for the linux-sifive-u74mc target triple
        # was already present".
        target = ARCHSPEC_TARGETS["u74mc"]
        assert target.triple == "linux-sifive-u74mc"

    def test_gcc_flags_for_u74mc(self):
        flags = ARCHSPEC_TARGETS["u74mc"].gcc_flags()
        assert "-march=rv64gc" in flags and "sifive-7-series" in flags


class TestRepository:
    REPO = builtin_repo()

    def test_table_i_packages_present(self):
        for name in paper.TABLE_I_STACK:
            assert name in self.REPO

    def test_paper_versions_available(self):
        for name, version in paper.TABLE_I_STACK.items():
            definition = self.REPO.get(name)
            assert version in definition.versions

    def test_unknown_package_hints(self):
        with pytest.raises(KeyError, match="did you mean"):
            self.REPO.get("openmpi4")

    def test_versions_must_be_newest_first(self):
        with pytest.raises(ValueError, match="newest-first"):
            PackageDefinition(name="bad", versions=["1.0", "2.0"])


class TestConcretizer:
    def test_simple_concretization(self):
        concrete = Concretizer().concretize(Spec.parse("hpl@2.3"))
        assert concrete.is_concrete
        assert str(concrete.version) == "2.3"
        assert concrete.target == "u74mc"
        assert concrete.compiler == "gcc"

    def test_transitive_dependencies_resolved(self):
        concrete = Concretizer().concretize(Spec.parse("quantum-espresso@6.8"))
        names = {node.name for node in concrete.traverse()}
        # fftw pulls openmpi which pulls hwloc etc.
        assert {"fftw", "openmpi", "hwloc", "openblas",
                "netlib-scalapack"} <= names

    def test_user_constraint_pins_dependency(self):
        concrete = Concretizer().concretize(
            Spec.parse("hpl@2.3 ^openblas@0.3.18"))
        assert str(concrete.dependencies["openblas"].version) == "0.3.18"

    def test_newest_version_preferred(self):
        concrete = Concretizer().concretize(Spec.parse("gcc"))
        assert str(concrete.version) == "12.1.0"

    def test_unsatisfiable_version(self):
        with pytest.raises(ConcretizationError, match="no version"):
            Concretizer().concretize(Spec.parse("hpl@9.9"))

    def test_unknown_package(self):
        with pytest.raises(ConcretizationError):
            Concretizer().concretize(Spec.parse("no-such-package"))

    def test_unknown_variant(self):
        with pytest.raises(ConcretizationError, match="variant"):
            Concretizer().concretize(Spec.parse("hpl +gpu"))

    def test_unused_user_constraint_rejected(self):
        with pytest.raises(ConcretizationError, match="dependency graph"):
            Concretizer().concretize(Spec.parse("stream ^openblas@0.3.18"))

    def test_dag_unification(self):
        """One node per package: hpl and scalapack share one openblas."""
        concrete = Concretizer().concretize(
            Spec.parse("quantum-espresso@6.8"))
        nodes = concrete.traverse()
        assert len([n for n in nodes if n.name == "openblas"]) == 1

    def test_cycle_detection(self):
        repo = Repository({
            "a": PackageDefinition(name="a", versions=["1.0"],
                                   dependencies=[Dependency("b")]),
            "b": PackageDefinition(name="b", versions=["1.0"],
                                   dependencies=[Dependency("a")]),
        })
        with pytest.raises(ConcretizationError, match="cycle"):
            Concretizer(repo=repo).concretize(Spec.parse("a"))

    def test_deterministic_hashes(self):
        first = Concretizer().concretize(Spec.parse("hpl@2.3"))
        second = Concretizer().concretize(Spec.parse("hpl@2.3"))
        assert first.dag_hash() == second.dag_hash()


class TestInstaller:
    def test_install_closure_dependencies_first(self):
        installer = Installer()
        concrete = Concretizer().concretize(Spec.parse("hpl@2.3"))
        records = installer.install(concrete)
        names = [record.name for record in records]
        assert names.index("openblas") < names.index("hpl")
        assert names.index("openmpi") < names.index("hpl")

    def test_abstract_spec_rejected(self):
        with pytest.raises(InstallError, match="abstract"):
            Installer().install(Spec.parse("hpl"))

    def test_reinstall_is_noop(self):
        installer = Installer()
        concrete = Concretizer().concretize(Spec.parse("hpl@2.3"))
        installer.install(concrete)
        assert installer.install(concrete) == []

    def test_prefix_layout(self):
        installer = Installer()
        concrete = Concretizer().concretize(Spec.parse("stream@5.10"))
        records = installer.install(concrete)
        record = next(r for r in records if r.name == "stream")
        assert record.prefix.startswith("/opt/spack/u74mc/stream-5.10-")
        assert installer.nfs.exists(record.prefix)

    def test_modules_registered(self):
        installer = Installer()
        installer.install(Concretizer().concretize(Spec.parse("hpl@2.3")))
        assert "hpl/2.3" in installer.modules.avail()


class TestEnvironment:
    def test_table_i_versions_installed(self):
        environment = SpackEnvironment.monte_cimone()
        installer = Installer()
        environment.install(installer)
        table = dict(environment.user_facing_table(installer))
        assert table == paper.TABLE_I_STACK

    def test_shared_dependencies_installed_once(self):
        environment = SpackEnvironment.monte_cimone()
        installer = Installer()
        environment.install(installer)
        assert len(installer.find("openmpi")) == 1
        assert len(installer.find("openblas")) == 1

    def test_gcc_build_dominates_deployment_time(self):
        environment = SpackEnvironment.monte_cimone()
        installer = Installer()
        environment.install(installer)
        gcc_cost = installer.find("gcc")[0].build_seconds
        assert gcc_cost > 0.4 * installer.total_build_seconds()

    def test_add_validates_spec(self):
        environment = SpackEnvironment(name="test")
        with pytest.raises(Exception):
            environment.add("not a spec @@")

    def test_stack_is_table_i(self):
        assert MONTE_CIMONE_STACK == paper.TABLE_I_STACK
