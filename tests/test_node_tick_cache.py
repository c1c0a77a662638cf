"""Transitions set a node's rail powers; ticks only integrate them.

Arbitrary sequences of lifecycle transitions, throttling, enclosure
changes and ticks must leave every rail exactly at a fresh power-model
evaluation, and the SoC exactly at the temperature of a reference RC
update fed the board power the rails report.  A transition that keeps
every power integrates exactly as a tick would, and the memory usage the
node mirrors into procfs follows every allocation change, against the
usage formula evaluated afresh.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import ComputeNode
from repro.hardware.memory import DDR4Subsystem
from repro.power.model import (
    HPL_PROFILE,
    IDLE_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    NodePhase,
    RailPowerModel,
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
            node.set_enclosure(enclosure)
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


@pytest.mark.parametrize("transition", ["set_frequency_scale",
                                        "set_enclosure"])
def test_a_transition_that_keeps_the_powers_integrates_as_a_tick(transition):
    """Between ticks 3 and 4 one node takes a transition that leaves every
    rail power as it was, the other a 0.4 s tick; the rails must end on
    the same bits, the ``energy += P·dt`` chain of the tick times."""
    nodes = []
    for takes_transition in (True, False):
        node = ComputeNode(hostname="rail-node")
        enclosure = Enclosure(EnclosureConfig.original())
        node.attach_thermal(enclosure, slot=4)
        node.power_on(0.0)
        node.start_bootloader(0.0)
        node.finish_boot(0.0)
        node.begin_workload(HPL_PROFILE, 0.0)
        for _ in range(3):
            node.advance(1.0)
        if not takes_transition:
            node.advance(0.4)
        elif transition == "set_frequency_scale":
            node.set_frequency_scale(1.0, 3.4)
        else:
            node.set_enclosure(enclosure)
            node.advance(0.4)
        node.advance(0.6)
        node.advance(1.0)
        node.settle()
        nodes.append(node)
    with_transition, ticked = nodes
    times = [1.0, 2.0, 3.0, 3.4, 4.0, 5.0]
    powers = RailPowerModel().rail_powers_w(NodePhase.R3_OS, HPL_PROFILE)
    for rail, other in zip(with_transition.board.rails, ticked.board.rails):
        energy, last = 0.0, 0.0
        for now_s in times:
            energy += powers[rail.name] * (now_s - last)
            last = now_s
        assert rail.energy_j.hex() == other.energy_j.hex() == energy.hex()
        assert rail.power_w == powers[rail.name]


def usage_afresh(memory):
    """DDR4Subsystem.usage's split, evaluated from the allocations."""
    capacity = memory.capacity_bytes
    used = memory.allocated_bytes
    buff, cach = int(0.01 * capacity), int(0.04 * capacity)
    return {"used": used, "free": max(0, capacity - used - buff - cach),
            "buff": buff, "cach": cach}


def test_memory_usage_follows_every_allocation_change():
    memory = DDR4Subsystem()
    assert memory.usage() == usage_afresh(memory)
    memory.initialise()
    steps = [
        lambda: memory.allocate("job", 2 * 1024 ** 3),
        lambda: memory.allocate("job", 1024 ** 3),     # cumulative
        lambda: memory.allocate("other", 512),
        lambda: memory.release("job"),
        lambda: memory.release("nobody"),              # holds nothing
        lambda: memory.allocate("job", 4096),
        memory.initialise,                             # a power cycle
    ]
    seen = set()
    for step in steps:
        step()
        usage = memory.usage()
        assert usage == usage_afresh(memory)
        seen.add(usage["used"])
    assert len(seen) == 6


def test_the_trip_release_reaches_procfs_on_the_next_boot():
    node = ComputeNode(hostname="mem-node")
    node.power_on(0.0)
    node.start_bootloader(0.0)
    node.finish_boot(0.0)
    node.begin_workload(HPL_PROFILE, 0.0)
    node.advance(1.0)
    node.settle()
    used = node.procfs.mem_used
    assert used == int(HPL_PROFILE.mem_fraction
                       * node.board.memory.capacity_bytes) > 0
    node.emergency_shutdown(1.0)  # power loss releases the workload
    assert node.board.memory.usage() == usage_afresh(node.board.memory)
    assert node.board.memory.usage()["used"] == 0
    # Off, the node does not tick procfs: it keeps the last mirrored view.
    node.advance(1.0)
    node.settle()
    assert node.procfs.mem_used == used
    node.power_on(2.0)
    node.start_bootloader(2.0)
    node.finish_boot(2.0)
    node.advance(1.0)
    node.settle()
    assert node.procfs.mem_used == 0
