"""The installer: build concrete DAGs into the NFS software tree.

Installs dependencies before dependents (post-order), creates Spack-style
prefixes ``<root>/<target>/<name>-<version>-<hash>``, records an install
database, and generates environment modules — the §IV deployment path
("deploy the full software stack and make it available to all system
users via environment modules").  Build time is modelled from each
recipe's U740 build cost so examples can report realistic on-target
deployment times (compiling GCC on a 1.2 GHz in-order core hurts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.services.modules import EnvironmentModules, Module
from repro.cluster.services.nfs import NFSServer
from repro.spack.repo import Repository, builtin_repo
from repro.spack.spec import Spec

__all__ = ["Installer", "InstallError", "InstallRecord"]


class InstallError(RuntimeError):
    """Install-time failures (abstract spec, missing dependency record)."""


@dataclass(frozen=True)
class InstallRecord:
    """One installed package instance."""

    name: str
    version: str
    dag_hash: str
    prefix: str
    build_seconds: float


class Installer:
    """Installs concrete specs into an NFS-backed store."""

    def __init__(self, nfs: Optional[NFSServer] = None,
                 modules: Optional[EnvironmentModules] = None,
                 repo: Optional[Repository] = None,
                 root: str = "/opt/spack") -> None:
        self.nfs = nfs if nfs is not None else NFSServer()
        if not self.nfs.is_exported(root):
            self.nfs.export(root)
        self.modules = modules if modules is not None else EnvironmentModules()
        self.repo = repo if repo is not None else builtin_repo()
        self.root = root
        self._db: Dict[str, InstallRecord] = {}   # dag_hash -> record

    # -- queries ----------------------------------------------------------
    def find(self, name: str) -> List[InstallRecord]:
        """All installed instances of a package."""
        return sorted((r for r in self._db.values() if r.name == name),
                      key=lambda r: r.version)

    def records(self) -> List[InstallRecord]:
        """The full install database, deterministic order."""
        return sorted(self._db.values(), key=lambda r: (r.name, r.version))

    # -- installation ------------------------------------------------------
    def install(self, spec: Spec) -> List[InstallRecord]:
        """Install a concrete spec and its closure; returns new records.

        Already-installed nodes are skipped (the Spack behaviour that
        makes a shared dependency tree cheap across the Table I stack).
        """
        if not spec.is_concrete:
            raise InstallError(
                f"cannot install abstract spec {spec.name!r}; concretize first")
        new_records: List[InstallRecord] = []
        for node in spec.traverse():
            dag_hash = node.dag_hash()
            if dag_hash in self._db:
                continue
            definition = self.repo.get(node.name)
            prefix = f"{self.root}/{node.target}/{node.name}-{node.version}-{dag_hash}"
            self.nfs.mkdir(prefix, parents=True)
            self.nfs.write(f"{prefix}/.spack-spec", str(node).encode())
            record = InstallRecord(
                name=node.name, version=str(node.version), dag_hash=dag_hash,
                prefix=prefix, build_seconds=definition.build_seconds_u74)
            self._db[dag_hash] = record
            self._register_module(node, prefix)
            new_records.append(record)
        return new_records

    def total_build_seconds(self) -> float:
        """Cumulative modelled build time of everything installed."""
        return sum(r.build_seconds for r in self._db.values())

    def _register_module(self, node: Spec, prefix: str) -> None:
        self.modules.register(Module(name=node.name,
                                     version=str(node.version),
                                     prefix=prefix))
