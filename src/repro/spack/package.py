"""Package definitions for the repository."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.spack.version import Version, VersionRange

__all__ = ["Dependency", "PackageDefinition"]


@dataclass(frozen=True)
class Dependency:
    """A dependency edge with an optional version constraint.

    ``deptype`` follows Spack: ``build`` dependencies are needed only at
    install time; ``link``/``run`` dependencies become part of the
    installed closure and its module environment.
    """

    name: str
    constraint: VersionRange = field(default_factory=VersionRange)
    deptype: str = "link"

    def __post_init__(self) -> None:
        if self.deptype not in ("build", "link", "run"):
            raise ValueError(f"bad deptype {self.deptype!r}")


@dataclass
class PackageDefinition:
    """One package recipe in the repository.

    ``versions`` must be listed newest-first; the concretizer prefers the
    first version satisfying all constraints (Spack's "preferred version"
    rule with the default ordering).
    """

    name: str
    versions: List[str]
    dependencies: List[Dependency] = field(default_factory=list)
    variants: Dict[str, bool] = field(default_factory=dict)
    #: Approximate build cost in seconds on the U740 (drives install-time
    #: modelling; compiling GCC on the target is famously slow).
    build_seconds_u74: float = 600.0

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError(f"package {self.name} has no versions")
        parsed = [Version(v) for v in self.versions]
        if parsed != sorted(parsed, reverse=True):
            raise ValueError(f"package {self.name}: versions must be "
                             f"listed newest-first")

    def preferred_version(self, constraint: VersionRange) -> Optional[Version]:
        """Newest version satisfying ``constraint``, or None."""
        for text in self.versions:
            version = Version(text)
            if constraint.contains(version):
                return version
        return None
