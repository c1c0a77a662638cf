"""The builtin package repository.

Carries the Table I user-facing stack at the paper's exact versions plus a
realistic transitive dependency set (what Spack 0.17 would actually pull
in, trimmed to the packages that matter for the stack's shape).  The
newest-first version lists include the paper's versions; pinned installs
(the environment) request them explicitly, so the repo can also serve
"latest" experiments such as the GCC 12 bit-manipulation ablation.
"""

from __future__ import annotations

from typing import Dict

from repro.spack.package import Dependency, PackageDefinition
from repro.spack.version import VersionRange

__all__ = ["builtin_repo", "Repository"]


class Repository:
    """A name → definition mapping with lookup helpers."""

    def __init__(self, packages: Dict[str, PackageDefinition]) -> None:
        self._packages = dict(packages)

    def get(self, name: str) -> PackageDefinition:
        """Look up a package; KeyError lists close alternatives."""
        if name not in self._packages:
            close = [p for p in self._packages if name in p or p in name]
            hint = f" (did you mean {', '.join(close)}?)" if close else ""
            raise KeyError(f"no package {name!r} in repository{hint}")
        return self._packages[name]

    def __contains__(self, name: str) -> bool:
        return name in self._packages


def _pkg(name: str, versions: list[str],
         deps: list[Dependency] | None = None,
         variants: Dict[str, bool] | None = None,
         build_seconds: float = 600.0) -> PackageDefinition:
    return PackageDefinition(name=name, versions=versions,
                             dependencies=deps or [],
                             variants=variants or {},
                             build_seconds_u74=build_seconds)


def _dep(name: str, constraint: str = "", deptype: str = "link") -> Dependency:
    return Dependency(name=name, constraint=VersionRange.parse(constraint),
                      deptype=deptype)


def builtin_repo() -> Repository:
    """Build the repository (fresh instance; definitions are mutable)."""
    packages = [
        # -- toolchain ----------------------------------------------------
        _pkg("gcc", ["12.1.0", "11.2.0", "10.3.0"],
             deps=[_dep("gmp"), _dep("mpfr"), _dep("mpc"),
                   _dep("binutils", deptype="link"), _dep("zlib")],
             build_seconds=28000.0),
        _pkg("binutils", ["2.37", "2.36.1"],
             deps=[_dep("zlib")], build_seconds=1500.0),
        _pkg("gmp", ["6.2.1"], build_seconds=500.0),
        _pkg("mpfr", ["4.1.0"],
             deps=[_dep("gmp")], build_seconds=400.0),
        _pkg("mpc", ["1.2.1"],
             deps=[_dep("gmp"), _dep("mpfr")], build_seconds=200.0),
        _pkg("zlib", ["1.2.11"], build_seconds=60.0),

        # -- MPI and its plumbing ---------------------------------------------
        _pkg("openmpi", ["4.1.1"],
             deps=[_dep("hwloc"), _dep("libevent"), _dep("pmix"),
                   _dep("zlib"), _dep("numactl")],
             build_seconds=5200.0),
        _pkg("hwloc", ["2.6.0"],
             deps=[_dep("libxml2")], build_seconds=700.0),
        _pkg("libevent", ["2.1.12"], build_seconds=300.0),
        _pkg("pmix", ["3.2.3"],
             deps=[_dep("libevent"), _dep("hwloc")], build_seconds=800.0),
        _pkg("numactl", ["2.0.14"], build_seconds=150.0),
        _pkg("libxml2", ["2.9.12"],
             deps=[_dep("zlib")], build_seconds=600.0),

        # -- math libraries ---------------------------------------------------
        _pkg("openblas", ["0.3.18"],
             variants={"threads": True}, build_seconds=4200.0),
        _pkg("fftw", ["3.3.10"],
             deps=[_dep("openmpi", deptype="link")],
             variants={"mpi": True, "openmp": True}, build_seconds=2600.0),
        _pkg("netlib-lapack", ["3.9.1"],
             deps=[_dep("openblas")], build_seconds=1900.0),
        _pkg("netlib-scalapack", ["2.1.0"],
             deps=[_dep("openmpi"), _dep("netlib-lapack"), _dep("openblas")],
             build_seconds=2400.0),

        # -- benchmarks and applications (Table I) ------------------------------
        _pkg("hpl", ["2.3"],
             deps=[_dep("openmpi"), _dep("openblas")],
             build_seconds=350.0),
        _pkg("stream", ["5.10"],
             variants={"openmp": True}, build_seconds=20.0),
        _pkg("quantum-espresso", ["6.8"],
             deps=[_dep("openmpi"), _dep("fftw"), _dep("openblas"),
                   _dep("netlib-lapack"), _dep("netlib-scalapack")],
             variants={"mpi": True}, build_seconds=9800.0),
    ]
    return Repository({p.name: p for p in packages})
