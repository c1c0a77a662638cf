"""Tests for the Spack version objects and spec language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spack.spec import Spec, SpecParseError
from repro.spack.version import Version, VersionRange


class TestVersion:
    def test_ordering(self):
        assert Version("10.3.0") > Version("9.9.9")
        assert Version("2.36.1") < Version("2.37")
        assert Version("3.3.10") > Version("3.3.9")

    def test_equality_and_hash(self):
        assert Version("1.2") == Version("1.2")
        assert hash(Version("1.2")) == hash(Version("1.2"))

    def test_prefix_is_smaller(self):
        assert Version("2.1") < Version("2.1.0")

    def test_alpha_suffix_orders_after_numeric(self):
        assert Version("2.37.x") > Version("2.37.5")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Version("")

    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                              st.integers(0, 99)), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_ordering_matches_tuple_ordering(self, triples):
        """Property: dotted numeric versions order like their tuples."""
        versions = [Version(f"{a}.{b}.{c}") for a, b, c in triples]
        assert sorted(versions) == [Version(f"{a}.{b}.{c}")
                                    for a, b, c in sorted(triples)]


class TestVersionRange:
    def test_exact(self):
        constraint = VersionRange.exact("2.3")
        assert constraint.contains(Version("2.3"))
        assert not constraint.contains(Version("2.3.1"))

    def test_parse_lower_bound(self):
        constraint = VersionRange.parse("1.2:")
        assert constraint.contains(Version("1.2"))
        assert constraint.contains(Version("99.0"))
        assert not constraint.contains(Version("1.1"))

    def test_parse_upper_bound(self):
        constraint = VersionRange.parse(":2.0")
        assert constraint.contains(Version("2.0"))
        assert not constraint.contains(Version("2.0.1"))

    def test_parse_interval(self):
        constraint = VersionRange.parse("1.2:2.0")
        assert constraint.contains(Version("1.5"))
        assert not constraint.contains(Version("2.1"))

    def test_open_range_contains_everything(self):
        assert VersionRange().contains(Version("0.0.1"))

    def test_intersects(self):
        assert VersionRange.parse("1:3").intersects(VersionRange.parse("2:5"))
        assert not VersionRange.parse("1:2").intersects(VersionRange.parse("3:4"))
        assert VersionRange.exact("2.3").intersects(VersionRange.parse("2:3"))


class TestSpecParsing:
    def test_simple_name(self):
        spec = Spec.parse("hpl")
        assert spec.name == "hpl"
        assert not spec.is_concrete

    def test_version_constraint(self):
        spec = Spec.parse("hpl@2.3")
        assert spec.versions.contains(Version("2.3"))

    def test_variants(self):
        spec = Spec.parse("fftw +mpi ~openmp")
        assert spec.variants == {"mpi": True, "openmp": False}

    def test_compiler_and_target(self):
        spec = Spec.parse("hpl@2.3 %gcc@10.3.0 target=u74mc")
        assert spec.compiler == "gcc"
        assert spec.compiler_version.contains(Version("10.3.0"))
        assert spec.target == "u74mc"

    def test_dependency_constraints(self):
        spec = Spec.parse("hpl@2.3 ^openblas@0.3.18 ^openmpi@4.1.1")
        assert set(spec.dependencies) == {"openblas", "openmpi"}

    def test_bad_token_rejected(self):
        with pytest.raises(SpecParseError):
            Spec.parse("hpl what=ever")

    def test_bad_name_rejected(self):
        with pytest.raises(SpecParseError):
            Spec.parse("HPL")

    def test_roundtrip_format(self):
        text = "hpl@2.3 +openmp %gcc@10.3.0 target=u74mc"
        spec = Spec.parse(text)
        assert Spec.parse(spec.format()).format() == spec.format()


class TestSpecOperations:
    def test_constrain_merges(self):
        spec = Spec.parse("hpl")
        spec.constrain(Spec.parse("hpl@2.3 target=u74mc"))
        assert spec.versions.contains(Version("2.3"))
        assert spec.target == "u74mc"

    def test_constrain_conflicting_versions(self):
        spec = Spec.parse("hpl@2.3")
        with pytest.raises(ValueError, match="conflicting"):
            spec.constrain(Spec.parse("hpl@2.4"))

    def test_constrain_conflicting_variants(self):
        spec = Spec.parse("fftw +mpi")
        with pytest.raises(ValueError, match="variant"):
            spec.constrain(Spec.parse("fftw ~mpi"))

    def test_constrain_wrong_package(self):
        with pytest.raises(ValueError):
            Spec.parse("hpl").constrain(Spec.parse("stream"))

    def test_dag_hash_requires_concrete(self):
        with pytest.raises(ValueError):
            Spec.parse("hpl").dag_hash()

    def test_version_property_requires_concrete(self):
        with pytest.raises(ValueError):
            _ = Spec.parse("hpl@2.3:2.4").version
