"""DDR4 memory-subsystem model.

The HiFive Unmatched carries 16 GB of 64-bit DDR4 at up to 1866 MT/s; the
paper computes STREAM efficiency against a 7760 MB/s peak.  Beyond the
bandwidth role (delegated to :class:`repro.hardware.cache.L2Cache` for
pattern effects), this model tracks allocation (the scheduler and the
benchmarks reserve memory).
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.specs import MemorySpec, DDR_SPEC

__all__ = ["DDR4Subsystem", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the remaining node DRAM."""


class DDR4Subsystem:
    """The node's main memory: capacity accounting.

    The bandwidth draw is a property of the running workload
    (``WorkloadProfile.ddr_data_activity``); the power model maps it onto
    the ``ddr_mem``/``ddr_soc``/``ddr_vpp`` rails (Table VI shows
    STREAM.DDR pushing ddr_mem from 404 mW idle to 592 mW).
    """

    def __init__(self, spec: MemorySpec = DDR_SPEC) -> None:
        self.spec = spec
        self._allocations: Dict[str, int] = {}
        self._initialised = False

    # -- boot --------------------------------------------------------------
    def initialise(self) -> None:
        """Run DDR training; required before any allocation.

        A (re-)initialisation clears all previous allocations — DRAM does
        not survive a power cycle.
        """
        self._initialised = True
        self._allocations.clear()

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
