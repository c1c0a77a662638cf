"""Property: the node tick's reused values never go stale.

``ComputeNode`` reuses its last rail-power evaluation while
``(phase, active_profile, frequency_scale)`` holds.  Arbitrary sequences
of lifecycle transitions, throttling, enclosure changes and ticks must
leave every rail exactly at a fresh model evaluation, and the SoC exactly
at the temperature of a reference RC update fed the board power the
rails report.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import ComputeNode
from repro.power.model import (
    HPL_PROFILE,
    IDLE_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    WorkloadProfile,
)
from repro.thermal.enclosure import Enclosure, EnclosureConfig

PROFILES = (IDLE_PROFILE, HPL_PROFILE, STREAM_L2_PROFILE, STREAM_DDR_PROFILE,
            QE_PROFILE,
            # Equal to HPL in every field the power model reads.
            WorkloadProfile(name="hpl-copy", utilisation=1.0, ipc=1.20,
                            flop_fraction=0.45, l2_traffic=0.413,
                            ddr_ctrl_activity=0.063,
                            ddr_data_activity=0.0297, mem_fraction=0.83))
ENCLOSURES = (EnclosureConfig.original(), EnclosureConfig.mitigated())

OPERATIONS = st.one_of(
    st.tuples(st.sampled_from(["power_on", "start_bootloader", "finish_boot",
                               "end_workload", "emergency_shutdown"])),
    st.tuples(st.just("begin_workload"), st.sampled_from(PROFILES)),
    st.tuples(st.just("set_frequency_scale"),
              st.sampled_from([0.1, 0.4, 0.55, 0.7, 0.85, 1.0])),
    st.tuples(st.just("set_enclosure"), st.sampled_from(ENCLOSURES)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 5.0, 37.25])),
)


def _reference_step(temperature, dt_s, power_w, ambient_c, r, c):
    """ThermalRC.step's exact-exponential update, written out."""
    target = ambient_c + power_w * r
    return target + (temperature - target) * math.exp(-dt_s / (r * c))


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.lists(OPERATIONS, min_size=1, max_size=60))
def test_rails_and_soc_match_uncached_models(booted, operations):
    node = ComputeNode(hostname="prop-node")
    enclosure = Enclosure(EnclosureConfig.original())
    node.attach_thermal(enclosure, slot=4)
    soc = node.thermal.soc
    expected_soc = soc.temperature_c
    clock = 0.0
    if booted:
        # Most interesting sequences start from a running OS.
        node.power_on(clock)
        node.start_bootloader(clock)
        node.finish_boot(clock)
    for name, *args in operations:
        if name == "advance":
            (dt_s,) = args
            power_w = node.total_power_w()
            expected_soc = _reference_step(
                expected_soc, dt_s, power_w,
                enclosure.local_ambient(node.thermal.slot),
                soc.resistance_k_per_w, soc.capacitance_j_per_k)
            node.advance(dt_s)
            clock += dt_s
        elif name == "set_enclosure":
            enclosure.config = args[0]
            node.thermal.set_enclosure(enclosure)
        else:
            method = getattr(node, name)
            try:
                method(*args, clock) if args else method(clock)
            except RuntimeError:
                pass  # a transition the state machine refuses
        fresh = node.power_model.rail_powers_w(
            node.phase, node.active_profile,
            frequency_scale=node.frequency_scale)
        assert {rail.name: rail.power_w for rail in node.board.rails} == fresh
        assert soc.temperature_c == expected_soc
