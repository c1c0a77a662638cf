"""Property: the node tick's reused values never go stale.

``ComputeNode`` reuses its last rail-power evaluation while
``(phase, active_profile, frequency_scale)`` holds.  Arbitrary sequences
of lifecycle transitions, throttling, enclosure changes and ticks must
leave every rail exactly at a fresh model evaluation, and the SoC exactly
at the temperature of a reference RC update fed the board power the
rails report.

``RailSet`` only integrates when it is handed the powers every rail
already holds, and ``DDR4Subsystem`` rebuilds its usage only when an
allocation changes.  Both are checked against the per-call evaluation
they replace: nine standalone rails fed through ``PowerRail.set_power``,
and the usage formula evaluated afresh.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import ComputeNode
from repro.hardware.memory import DDR4Subsystem
from repro.hardware.rails import RAIL_NAMES, PowerRail, RailSet
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


class ShadowRails:
    """Nine standalone rails fed, through ``PowerRail.set_power``, every
    dict a ``RailSet`` receives, once per time a run of ticks hands to
    ``RailSet.hold``: the per-rail path, evaluated afresh."""

    def __init__(self, rails):
        self.rails = rails
        self.reference = {rail.name: PowerRail(rail.name) for rail in rails}
        self.dicts = 0
        self._holding = False
        real_set, real_hold = rails.set_powers, rails.hold

        def feed(powers_w, now_s):
            for name, power in powers_w.items():
                self.reference[name].set_power(power, now_s)
            self.dicts += 1

        def set_powers(powers_w, now_s):
            if not self._holding:
                feed(powers_w, now_s)
            real_set(powers_w, now_s)

        def hold(powers_w, times):
            for now_s in times:
                feed(powers_w, now_s)
            self._holding = True
            try:
                real_hold(powers_w, times)
            finally:
                self._holding = False

        rails.set_powers = set_powers
        rails.hold = hold

    def assert_identical(self):
        """Every rail's energy and timestamp, and the total, bit for bit.

        Powers compare equal: a zero keeps the sign it was set with while
        the set only integrates (0.0 == -0.0, and neither moves energy).
        """
        for rail in self.rails:
            expected = self.reference[rail.name]
            assert (rail.energy_j.hex(), rail._last_update_s.hex()) == (
                expected.energy_j.hex(), expected._last_update_s.hex()), \
                rail.name
            assert rail.power_w == expected.power_w, rail.name
        total = sum([self.reference[name].power_w for name in RAIL_NAMES])
        assert self.rails.total_w().hex() == total.hex()


RAIL_OPERATIONS = st.one_of(
    OPERATIONS,
    # A DTM step and a trip, more often than OPERATIONS draws them.
    st.tuples(st.just("set_frequency_scale"),
              st.sampled_from([0.55, 0.7, 0.85, 1.0])),
    st.tuples(st.just("emergency_shutdown")),
    # A partial dict straight into the harness: the next tick's full dict
    # must take the per-rail path again.
    st.tuples(st.just("partial"),
              st.lists(st.sampled_from(RAIL_NAMES), min_size=1, max_size=8,
                       unique=True),
              st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(min_value=0.0, max_value=10.0))),
    # An equal copy of the held powers, not the node's own dict.
    st.tuples(st.just("copy")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(RAIL_OPERATIONS, min_size=1, max_size=60))
def test_integrate_only_rails_match_per_rail_updates(operations):
    node = ComputeNode(hostname="rail-node")
    node.attach_thermal(Enclosure(EnclosureConfig.original()), slot=4)
    rails = node.board.rails
    shadow = ShadowRails(rails)
    clock = 0.0
    node.power_on(clock)
    node.start_bootloader(clock)
    node.finish_boot(clock)
    for name, *args in operations:
        if name == "advance":
            # Ticks pile up until the next operation settles them.
            node.advance(args[0])
            clock += args[0]
            continue
        # A write straight into the harness is a transition the node
        # does not see: it settles first, as its own transitions do.
        node.settle()
        if name == "partial":
            names, power_w = args
            rails.set_powers({rail: power_w for rail in names}, clock)
        elif name == "copy":
            rails.set_powers({rail.name: rail.power_w for rail in rails},
                             clock)
        elif name == "set_enclosure":
            node.set_enclosure(Enclosure(args[0]))
        else:
            method = getattr(node, name)
            try:
                method(*args, clock) if args else method(clock)
            except RuntimeError:
                pass  # a transition the state machine refuses
        shadow.assert_identical()
    node.settle()
    shadow.assert_identical()


def test_a_repeated_dict_makes_no_per_rail_update(monkeypatch):
    calls = []
    per_rail = PowerRail.set_power

    def counting(rail, power_w, now_s):
        calls.append(rail.name)
        per_rail(rail, power_w, now_s)

    monkeypatch.setattr(PowerRail, "set_power", counting)
    rails = RailSet()
    shadow = ShadowRails(rails)
    powers = {name: 0.1 * (i + 1) for i, name in enumerate(RAIL_NAMES)}
    rails.set_powers(powers, 1.0)
    assert len(calls) == 2 * len(RAIL_NAMES)  # the set and the shadow
    for tick in range(2, 12):
        rails.set_powers(powers, float(tick))
        rails.set_powers(dict(powers), tick + 0.5)
    assert len(calls) == 2 * len(RAIL_NAMES) + 20 * len(RAIL_NAMES)
    # After the first dict, only the shadow's rails take per-rail updates.
    assert calls.count("core") == 2 + 20
    shadow.assert_identical()


def _rail_state(rails):
    return ([(rail.power_w, rail.energy_j, rail._last_update_s)
             for rail in rails], rails.total_w())


@pytest.mark.parametrize("repeat", [True, False],
                         ids=["integrate-only", "per-rail"])
@pytest.mark.parametrize("now_s", [9.5, float("nan")])
def test_time_going_backwards_moves_no_energy(repeat, now_s):
    rails = RailSet()
    powers = {name: 0.1 * (i + 1) for i, name in enumerate(RAIL_NAMES)}
    rails.set_powers(powers, 5.0)
    rails.set_powers(powers, 10.0)  # integrate-only
    before = _rail_state(rails)
    handed = powers if repeat else {name: 2.0 for name in RAIL_NAMES}
    with pytest.raises(ValueError, match="backwards"):
        rails.set_powers(handed, now_s)
    assert _rail_state(rails) == before
    # The set still integrates from where it stood.
    shadow = [PowerRail(name) for name in RAIL_NAMES]
    for rail in shadow:
        rail.set_power(powers[rail.name], 5.0)
        rail.set_power(powers[rail.name], 10.0)
        rail.set_power(powers[rail.name], 12.0)
    rails.set_powers(powers, 12.0)
    assert [rail.energy_j for rail in rails] == [r.energy_j for r in shadow]


def test_a_direct_rail_update_ends_integrate_only():
    rails = RailSet()
    shadow = ShadowRails(rails)
    powers = {name: 1.0 for name in RAIL_NAMES}
    rails.set_powers(powers, 0.0)
    rails.set_powers(powers, 1.0)
    # Written behind the set's back: the rails no longer share a stamp.
    rails["core"].set_power(3.0, 1.5)
    shadow.reference["core"].set_power(3.0, 1.5)
    shadow.assert_identical()
    rails.set_powers(powers, 2.0)
    shadow.assert_identical()
    assert rails["core"].energy_j == 1.0 * 1.5 + 3.0 * 0.5


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


def test_memory_usage_is_read_only():
    usage = DDR4Subsystem().usage()
    with pytest.raises(TypeError):
        usage["used"] = 1


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
