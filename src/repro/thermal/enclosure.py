"""Enclosure and airflow model for the E4 RV007 blade stack.

Monte Cimone packs eight nodes into four 1U dual-board blades.  Each blade
carries two 250 W PSUs whose waste heat joins the boards' own; with the
original lids on and the blades stacked tightly, the centre blades see
strongly reduced airflow (§V-C: "the nodes in the centre blades were
significantly hotter ... an effect of the 1U case and the suboptimal
airflow design").  The model assigns every slot a thermal resistance from
junction to rack-ambient as a function of:

* whether the blade lid is on,
* the vertical spacing between blades,
* the slot's position in the stack (centre slots are starved),
* PSU waste heat recirculation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["SlotPosition", "EnclosureConfig", "Enclosure"]


class SlotPosition(Enum):
    """Vertical position class of a blade in the four-blade stack."""

    EDGE = "edge"      # top or bottom blade: unobstructed intake
    CENTRE = "centre"  # middle blades: intake preheated and obstructed


@dataclass(frozen=True)
class EnclosureConfig:
    """Mechanical configuration of the blade stack.

    The paper's two configurations:

    * original: ``lid_on=True, blade_spacing_u=0`` — runaway configuration;
    * mitigated: ``lid_on=False, blade_spacing_u=1`` — after removing the
      lids and adding vertical spacing (§V-C).
    """

    lid_on: bool = True
    blade_spacing_u: int = 0
    ambient_c: float = 25.0

    @classmethod
    def original(cls) -> "EnclosureConfig":
        """The as-built configuration that triggered the runaway."""
        return cls(lid_on=True, blade_spacing_u=0)

    @classmethod
    def mitigated(cls) -> "EnclosureConfig":
        """The fixed configuration: lids off, blades spaced apart."""
        return cls(lid_on=False, blade_spacing_u=1)


class Enclosure:
    """Maps slots to junction→ambient thermal resistance (K/W).

    Calibration targets (Fig. 6, under full-node HPL power ≈ 5.9 W):

    * original config, centre slot: exceeds the 107 °C trip ⇒ R ≳ 14 K/W;
    * original config, edge slot: ~71 °C ⇒ R ≈ 7.8 K/W;
    * mitigated config, hottest slot: ~39 °C ⇒ R ≈ 2.4 K/W.
    """

    #: Base resistance of a bare board in free air.
    R_BASE_K_PER_W = 2.0
    #: Penalty for the closed 1U lid (blocks vertical convection).
    R_LID_K_PER_W = 5.3
    #: Extra penalty for centre slots with the lid on (PSU recirculation).
    R_CENTRE_LID_K_PER_W = 0.2
    #: Relief per rack-unit of added spacing (caps at R_BASE * 0.2 relief).
    R_SPACING_RELIEF_K_PER_W = 0.4
    #: Centre-slot penalty surviving even with lids off (mild).
    R_CENTRE_OPEN_K_PER_W = 0.2

    N_BLADES = 4
    NODES_PER_BLADE = 2

    #: Per-slot manufacturing/assembly trim (heat-sink seating, fan spread).
    #: Persists across enclosure changes.  Slot 4 is the unlucky one: its
    #: node (node 7 in the cluster's cabling order) is the first to run
    #: away in Fig. 6, and stays the hottest (≈39 °C) after mitigation.
    SLOT_TRIM_K_PER_W = (0.0, 0.0, 0.0, 0.2, 0.6, 0.1, 0.0, 0.0)
    #: Lid-geometry hot pocket: with the lid on, slot 4 sits in a stagnant
    #: recirculation cell that the lid removal eliminates entirely.  This
    #: is what turns "significantly hotter" (the other centre slots,
    #: ~71-75 °C) into a runaway (node 7, 107 °C trip).
    SLOT_LID_BLOCKAGE_K_PER_W = (0.0, 0.0, 0.0, 0.3, 6.5, 0.2, 0.0, 0.0)

    def __init__(self, config: EnclosureConfig | None = None) -> None:
        self.config = config if config is not None else EnclosureConfig.original()

    @property
    def n_slots(self) -> int:
        """Total node slots in the stack (8 on Monte Cimone)."""
        return self.N_BLADES * self.NODES_PER_BLADE

    def blade_of(self, slot: int) -> int:
        """Blade index (0..3) hosting node slot ``slot`` (0..7)."""
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} outside 0..{self.n_slots - 1}")
        return slot // self.NODES_PER_BLADE

    def position_of(self, slot: int) -> SlotPosition:
        """Whether the slot sits in an edge or centre blade."""
        blade = self.blade_of(slot)
        return SlotPosition.EDGE if blade in (0, self.N_BLADES - 1) else SlotPosition.CENTRE

    def thermal_resistance(self, slot: int) -> float:
        """Junction→ambient thermal resistance for ``slot``, K/W."""
        position = self.position_of(slot)
        r = self.R_BASE_K_PER_W
        if self.config.lid_on:
            r += self.R_LID_K_PER_W
            r += self.SLOT_LID_BLOCKAGE_K_PER_W[slot]
            if position is SlotPosition.CENTRE:
                r += self.R_CENTRE_LID_K_PER_W
        elif position is SlotPosition.CENTRE:
            r += self.R_CENTRE_OPEN_K_PER_W
        relief = min(self.R_SPACING_RELIEF_K_PER_W * self.config.blade_spacing_u,
                     0.2 * r)
        trim = self.SLOT_TRIM_K_PER_W[slot] if slot < len(self.SLOT_TRIM_K_PER_W) else 0.0
        return max(r + trim - relief, 0.5)

    def local_ambient(self, slot: int) -> float:
        """Intake air temperature for ``slot``, °C.

        Centre slots with the lid on breathe PSU-preheated air; with the
        lid off, all slots see rack ambient.
        """
        preheat = 0.0
        if self.config.lid_on and self.position_of(slot) is SlotPosition.CENTRE:
            preheat = 4.0
        return self.config.ambient_c + preheat
