"""archspec: microarchitecture detection, labels and toolchain flags.

§IV: "Actual Spack architecture and microarchitecture support, in the form
of platform-specific toolchain flags, is provided by the archspec module.
Explicit support for the linux-sifive-u74mc target triple was already
present (archspec version 0.1.3) and tested to be working without
modifications."  This module reproduces that contract: a target database
with the ``u74mc`` entry (including its ISA feature list and the GCC flags
it maps to), plus detection from a SoC spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.hardware.specs import SoCSpec

__all__ = ["Microarchitecture", "ARCHSPEC_TARGETS", "detect_target"]


@dataclass(frozen=True)
class Microarchitecture:
    """One archspec target."""

    name: str
    vendor: str
    family: str                       # ISA family (riscv64, ppc64le, aarch64)
    features: Tuple[str, ...]
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
        features=("rv64", "i", "m", "a", "f", "d", "c"),
        compiler_flags={"gcc": "-march=rv64gc -mabi=lp64d"}),
    "u74mc": Microarchitecture(
        name="u74mc", vendor="SiFive", family="riscv64",
        features=("rv64", "i", "m", "a", "f", "d", "c", "zba", "zbb"),
        compiler_flags={"gcc": "-march=rv64gc -mabi=lp64d -mtune=sifive-7-series"},
        parent="riscv64"),
    "power9": Microarchitecture(
        name="power9", vendor="IBM", family="ppc64le",
        features=("altivec", "vsx", "htm"),
        compiler_flags={"gcc": "-mcpu=power9 -mtune=power9"}),
    "thunderx2": Microarchitecture(
        name="thunderx2", vendor="Cavium", family="aarch64",
        features=("fp", "asimd", "atomics", "cpuid"),
        compiler_flags={"gcc": "-mcpu=thunderx2t99"},
        parent="aarch64"),
    "aarch64": Microarchitecture(
        name="aarch64", vendor="generic", family="aarch64",
        features=("fp", "asimd"),
        compiler_flags={"gcc": "-march=armv8-a"}),
}

_SOC_TO_TARGET = {
    "SiFive Freedom U740": "u74mc",
    "Marconi100 Power9": "power9",
    "Armida ThunderX2": "thunderx2",
}


def detect_target(soc: SoCSpec) -> Microarchitecture:
    """Map a SoC spec to its archspec target (the ``archspec cpu`` call).

    Unknown RISC-V parts fall back to the generic ``riscv64`` family
    target, exactly as archspec does for unrecognised cores.
    """
    name = _SOC_TO_TARGET.get(soc.name)
    if name is not None:
        return ARCHSPEC_TARGETS[name]
    if soc.isa.lower().startswith("rv64"):
        return ARCHSPEC_TARGETS["riscv64"]
    raise KeyError(f"no archspec target for SoC {soc.name!r} ({soc.isa})")
