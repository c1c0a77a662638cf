"""DDR4 memory-subsystem model.

The HiFive Unmatched carries 16 GB of 64-bit DDR4 at up to 1866 MT/s; the
paper computes STREAM efficiency against a 7760 MB/s peak.  Beyond the
bandwidth role (delegated to :class:`repro.hardware.cache.L2Cache` for
pattern effects), this model tracks allocation (the scheduler and the
benchmarks reserve memory) and activity level (the power model's
``ddr_mem`` rail input).
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.specs import MemorySpec, DDR_SPEC

__all__ = ["DDR4Subsystem", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the remaining node DRAM."""


class DDR4Subsystem:
    """The node's main memory: capacity accounting plus activity level.

    ``activity`` is the fraction of peak bandwidth currently being drawn;
    the power model maps it onto the ``ddr_mem``/``ddr_soc``/``ddr_vpp``
    rails (Table VI shows STREAM.DDR pushing ddr_mem from 404 mW idle to
    592 mW).
    """

    def __init__(self, spec: MemorySpec = DDR_SPEC) -> None:
        self.spec = spec
        self._allocations: Dict[str, int] = {}
        self._activity = 0.0
        self._initialised = False

    # -- boot --------------------------------------------------------------
    @property
    def initialised(self) -> bool:
        """Whether memory training (bootloader region R2) has completed."""
        return self._initialised

    def initialise(self) -> None:
        """Run DDR training; required before any allocation.

        A (re-)initialisation clears all previous allocations — DRAM does
        not survive a power cycle.
        """
        self._initialised = True
        self._allocations.clear()
        self._activity = 0.0

    # -- capacity ------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Installed capacity."""
        return self.spec.capacity_bytes

    @property
    def allocated_bytes(self) -> int:
        """Currently reserved bytes across all owners."""
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        """Bytes available for new allocations."""
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, owner: str, n_bytes: int) -> None:
        """Reserve ``n_bytes`` for ``owner`` (cumulative per owner)."""
        if not self._initialised:
            raise RuntimeError("allocation before DDR initialisation")
        if n_bytes < 0:
            raise ValueError(f"negative allocation {n_bytes}")
        if n_bytes > self.free_bytes:
            raise OutOfMemoryError(
                f"{owner}: requested {n_bytes} bytes, only {self.free_bytes} free")
        self._allocations[owner] = self._allocations.get(owner, 0) + n_bytes

    def release(self, owner: str) -> int:
        """Free everything held by ``owner``; returns the byte count."""
        return self._allocations.pop(owner, 0)

    def usage(self) -> Dict[str, int]:
        """Memory usage in the shape stats_pub reports (Table III)."""
        capacity = self.spec.capacity_bytes
        used = sum(self._allocations.values())
        free = capacity - used
        # Buffers/cache modelled as a fixed small OS share of free memory.
        buff = int(0.01 * capacity)
        cach = int(0.04 * capacity)
        return {"used": used, "free": max(0, free - buff - cach),
                "buff": buff, "cach": cach}

    # -- activity -----------------------------------------------------------
    @property
    def activity(self) -> float:
        """Fraction of peak bandwidth currently drawn (power-model input)."""
        return self._activity

    def set_activity(self, fraction: float) -> None:
        """Set instantaneous bandwidth draw as a fraction of peak."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"activity {fraction} outside [0, 1]")
        self._activity = fraction
