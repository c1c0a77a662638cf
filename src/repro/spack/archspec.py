"""archspec: microarchitecture labels and toolchain flags.

§IV: "Actual Spack architecture and microarchitecture support, in the form
of platform-specific toolchain flags, is provided by the archspec module.
Explicit support for the linux-sifive-u74mc target triple was already
present (archspec version 0.1.3) and tested to be working without
modifications."  This module reproduces that contract: a target database
with the ``u74mc`` entry and the GCC flags it maps to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Microarchitecture", "ARCHSPEC_TARGETS"]


@dataclass(frozen=True)
class Microarchitecture:
    """One archspec target."""

    name: str
    vendor: str
    family: str                       # ISA family (riscv64, ppc64le, aarch64)
    compiler_flags: Dict[str, str] = field(default_factory=dict)
    parent: Optional[str] = None

    @property
    def triple(self) -> str:
        """The platform-os-target triple Spack displays."""
        return f"linux-{self.vendor.lower()}-{self.name}"

    def gcc_flags(self) -> str:
        """Flags a GCC toolchain should receive for this target."""
        return self.compiler_flags.get("gcc", "")


#: The archspec 0.1.3 database slice this project uses.
ARCHSPEC_TARGETS: Dict[str, Microarchitecture] = {
    "riscv64": Microarchitecture(
        name="riscv64", vendor="generic", family="riscv64",
        compiler_flags={"gcc": "-march=rv64gc -mabi=lp64d"}),
    "u74mc": Microarchitecture(
        name="u74mc", vendor="SiFive", family="riscv64",
        compiler_flags={"gcc": "-march=rv64gc -mabi=lp64d -mtune=sifive-7-series"},
        parent="riscv64"),
    "power9": Microarchitecture(
        name="power9", vendor="IBM", family="ppc64le",
        compiler_flags={"gcc": "-mcpu=power9 -mtune=power9"}),
    "thunderx2": Microarchitecture(
        name="thunderx2", vendor="Cavium", family="aarch64",
        compiler_flags={"gcc": "-mcpu=thunderx2t99"},
        parent="aarch64"),
    "aarch64": Microarchitecture(
        name="aarch64", vendor="generic", family="aarch64",
        compiler_flags={"gcc": "-march=armv8-a"}),
}
