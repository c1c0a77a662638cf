"""Golden digests of the event kernel's dispatch order.

Every paper output is downstream of the kernel dispatching events in
exact ``(time, seq)`` order: same-instant events fire in the order they
were scheduled.  These digests pin that order, so any change to the
scheduler must reproduce them exactly.  Each digest is the SHA-256 of a
canonical text rendering in which every float appears as its ``repr``.

* Scripted workloads: the ``(time, label)`` log of periodic call_at
  chains, a chaos mix of races and interrupts, zero-delay and delayed
  events sharing one instant, fire times closer than the clock's
  resolution, and interrupts through a far timer, twice in one instant
  and after the target finished.
* A full cluster run (boot, ExaMon, a 30-second 8-node HPL job): every
  point the time-series store holds afterwards.
* Table VI.
* Every scenario in :data:`repro.chaos.scenarios.SCENARIOS` at one
  seed: its chaos log, final clock, engine counters and every span.

The scripts and a larger chaos mix also check that the failure ledger is
clean once the queue drains.
"""

import pytest

from repro.analysis.experiments import table6_power
from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.cluster.cluster import MonteCimoneCluster
from repro.events.engine import Engine
from repro.events.process import Interrupt
from repro.examon.deployment import ExamonDeployment
from repro.obs.instrument import attach_tracer
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig
from tests.golden import digest, store_digest

SCRIPT_DIGESTS = {
    "periodic_script":
        "5d784b29bf003790753cb5d67ba180e5dc97e13b7eeeeddef4c15fbe16ebb786",
    "chaos_script":
        "b63fea26a908c5aed1d05ebbee532e1ef615160c566219b8855ad4ae6a48c2ee",
    "mixed_instant_script":
        "fdc518fa425f0b3f87fa8638c00002310b1c5b3d19fd2f4cdb309aa38a399148",
    "sub_resolution_script":
        "883bd02fa64606abacf947a9d1c914680dd536ed8019d2ce65c1ba3609e9db74",
    "interrupt_far_timer_script":
        "cf93d62127df60852b79dfa71a96fc1c7dc7050d39a8c1b72bfd8ed01dc5362e",
    "double_interrupt_script":
        "07b9fc99e87cd971b9d6a543aa2156da4291549be9a5adcbf42d67a49f33aba5",
    "moot_interrupt_script":
        "0315fddbca2f20d39a469bdcf06f02ee82e7132724cfa7d7db15196d8b3a36af",
}

#: Events the chaos script schedules and processes, in total.
CHAOS_SCRIPT_EVENTS = 541

FULL_STACK_DIGEST = (
    "2be301a3ddfc7a5697678906f0d8198ff7d371a274434b56ce818da5bb194e11")

TABLE6_DIGEST = (
    "ebeb95e55e59374e1cabf07706b86d6f1a5d3734e6b0d4ef9c9820c68f85fb0e")

#: Seed of the chaos campaigns whose logs are pinned.
CHAOS_SEED = 1
CHAOS_LOG_DIGESTS = {
    "examon-outage":
        "384cc9244637b86cd71eb83f4b9a02e9ce607671e9c47c40991981f9e24caa90",
    "link-flap":
        "5f364f290bda14d4154fb4cac1bf40c6c6dfd56d9c103850f1e286f08dd742af",
    "sensor-dropout":
        "5b2d9ce7744c907b69845a66bd56375998af2ba8e59c410d1677905a1c7c913b",
    "service-outage":
        "78f8848ffe1abca00938cb0cef7d920b54496c0ab61c29ef66f9fc56c37bdadf",
    "node-trip":
        "2e7c77e6f5fd384a4047b05348b85a099d1f23e2dae269299fd5cccdbdc5fb3b",
}


# ---------------------------------------------------------------------------
# Scripted workloads
# ---------------------------------------------------------------------------
def periodic_script(engine):
    """Shared-instant call_at chains plus zero-delay events."""
    log = []
    remaining = [7] * 24

    def make_tick(i):
        def tick():
            log.append((engine.now, "tick", i))
            done = engine.event()
            done.callbacks.append(
                lambda e: log.append((engine.now, "zero", i, e._value)))
            done.succeed(i * 10)
            remaining[i] -= 1
            if remaining[i]:
                engine.call_at(engine.now + 0.25, tick)
        return tick

    for i in range(24):
        engine.call_at(0.25, make_tick(i))
    engine.run()
    return log


def chaos_script(engine):
    """Scattered timestamps, any_of races and interrupts."""
    log = []

    def sidekick(env, i, period):
        try:
            while True:
                yield env.timeout(period)
                log.append((env.now, "side", i))
        except Interrupt as intr:
            log.append((env.now, "interrupted", i, str(intr)))

    def worker(env, i):
        period = 0.31 + (i % 7) * 0.17
        mate = env.spawn(sidekick(env, i, period * 1.73), name=f"side-{i}")
        for j in range(9):
            yield env.timeout(period)
            log.append((env.now, "work", i, j))
            if (i + j) % 4 == 0:
                flag = env.event()
                flag.succeed(j)
                fired = yield env.any_of([flag, env.timeout(period / 3.0)])
                log.append((env.now, "race", i,
                            sorted(repr(v) for v in fired.values())))
            if (i + j) % 5 == 0 and not mate.triggered:
                mate.interrupt(f"rotate-{j}")
                mate = env.spawn(sidekick(env, i, period * 1.31),
                                 name=f"side-{i}-{j}")
        if not mate.triggered:
            mate.interrupt("done")

    for i in range(16):
        engine.spawn(worker(engine, i), name=f"worker-{i}")
    engine.run()
    engine.check_failures()
    return log


def mixed_instant_script(engine):
    """Zero-delay and delayed events interleaved at one shared instant.

    Events landing at the same simulated time must process in the order
    they were scheduled, whatever their delay was.
    """
    log = []

    def driver(env):
        for k in range(4):
            env.call_at(1.0, lambda k=k: log.append((env.now, "a", k)))
            env.call_at(2.0, lambda k=k: log.append((env.now, "b", k)))
        yield env.timeout(1.0)
        # Inside the t=1.0 instant: zero-delay events racing the rest of
        # the events already queued for it.
        for k in range(3):
            done = env.event()
            done.callbacks.append(
                lambda e, k=k: log.append((env.now, "zero", k)))
            done.succeed(k)
        yield env.timeout(0.0)
        log.append((env.now, "after-zero"))
        yield env.timeout(1.0)
        log.append((env.now, "after-two"))

    engine.spawn(driver(engine), name="driver")
    engine.run()
    return log


def sub_resolution_script(engine):
    """Fire times a few ulps apart stay distinct and ordered."""
    log = []
    base = 1.0
    for k, dt in enumerate((0.0, 1e-12, 2e-12, 1e-9)):
        engine.call_at(base + dt, lambda k=k: log.append((engine.now, k)))
    engine.call_at(base, lambda: log.append((engine.now, "tie")))
    engine.run()
    return log


def interrupt_far_timer_script(engine):
    """Interrupt a process parked on a far-future timeout."""
    log = []

    def sleeper(env):
        try:
            yield env.timeout(1000.0)
            log.append((env.now, "overslept"))
        except Interrupt as intr:
            log.append((env.now, "woken", str(intr)))

    def waker(env, proc):
        yield env.timeout(2.5)
        proc.interrupt("alarm")

    proc = engine.spawn(sleeper(engine), name="sleeper")
    engine.spawn(waker(engine, proc), name="waker")
    engine.run()
    engine.check_failures()
    return log


def double_interrupt_script(engine):
    """Two same-instant interrupts deliver both, in order."""
    log = []

    def stubborn(env):
        for _ in range(2):
            try:
                yield env.timeout(50.0)
            except Interrupt as intr:
                log.append((env.now, "caught", str(intr)))
        log.append((env.now, "exhausted"))
        yield env.timeout(0.0)

    def aggressor(env, proc):
        yield env.timeout(1.0)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = engine.spawn(stubborn(engine), name="stubborn")
    engine.spawn(aggressor(engine, proc), name="aggressor")
    engine.run()
    engine.check_failures()
    return log


def moot_interrupt_script(engine):
    """Interrupting a process that finished this instant is a no-op."""
    log = []

    def quick(env):
        yield env.timeout(1.0)
        log.append((env.now, "done"))

    def late(env, proc):
        yield env.timeout(1.0)
        if not proc.triggered:
            proc.interrupt("too-late")
        log.append((env.now, "late-done", not proc.triggered))

    proc = engine.spawn(quick(engine), name="quick")
    engine.spawn(late(engine, proc), name="late")
    engine.run()
    engine.check_failures()  # the moot interrupt must not ledger
    return log


SCRIPTS = {script.__name__: script for script in (
    periodic_script, chaos_script, mixed_instant_script,
    sub_resolution_script, interrupt_far_timer_script,
    double_interrupt_script, moot_interrupt_script)}


@pytest.mark.parametrize("name", list(SCRIPT_DIGESTS))
def test_event_order_digest(name):
    engine = Engine()
    log = SCRIPTS[name](engine)
    assert log, "a script must log something"
    assert engine.queue_depth == 0 and not engine.unconsumed_failures
    assert digest(repr(entry) for entry in log) == SCRIPT_DIGESTS[name]


def test_chaos_script_event_counts():
    """Every scheduled event is dispatched once, and the total is pinned."""
    engine = Engine()
    tracer = attach_tracer(engine)
    chaos_script(engine)
    snapshot = tracer.metrics.snapshot()
    assert snapshot["engine.events_scheduled"] == CHAOS_SCRIPT_EVENTS
    assert snapshot["engine.events_processed"] == CHAOS_SCRIPT_EVENTS


def chaos_mix(engine, pairs, rounds):
    """Workers racing zero-delay triggers and interrupting sidekicks.

    Each worker has its own period, so fire times rarely coincide; it
    races a triggered event against a short timeout with ``any_of`` and
    replaces its sidekick through an interrupt every few rounds.
    """
    def sidekick(env, period):
        try:
            while True:
                yield env.timeout(period)
        except Interrupt:
            return

    def worker(env, i):
        period = 0.37 + (i % 13) * 0.113
        mate = env.spawn(sidekick(env, period * 1.71), name=f"mate-{i}")
        for j in range(rounds):
            yield env.timeout(period)
            if (i + j) % 5 == 0:
                flag = env.event()
                flag.succeed(j)
                yield env.any_of([flag, env.timeout(period / 3.0)])
            if (i + j) % 7 == 0 and not mate.triggered:
                mate.interrupt("rotate")
                mate = env.spawn(sidekick(env, period * 1.31),
                                 name=f"mate-{i}-{j}")
        if not mate.triggered:
            mate.interrupt("done")

    for i in range(pairs):
        engine.spawn(worker(engine, i), name=f"worker-{i}")
    engine.run()


def test_chaos_mix_drains_ledger_clean():
    """After the chaos mix drains, no failure and no event is left."""
    engine = Engine()
    chaos_mix(engine, 24, 12)
    engine.check_failures()
    assert engine.queue_depth == 0


# ---------------------------------------------------------------------------
# Full stack, Table VI and the chaos campaigns
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_full_stack_tsdb_digest():
    cluster = MonteCimoneCluster(
        engine=Engine(), enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    SlurmAPI(cluster.slurm).srun("hpl", "golden", nodes=8, duration_s=30.0,
                                 profile=HPL_PROFILE)
    db = deployment.db
    assert db.points_stored > 10_000  # a real run, not an empty store
    assert store_digest(db) == FULL_STACK_DIGEST


def test_table6_digest():
    assert digest([repr(table6_power())]) == TABLE6_DIGEST


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_chaos_log_digest(name):
    result = run_scenario(name, CHAOS_SEED)
    assert result.log.events, "a scenario must inject something"
    lines = [f"{event.time_s!r} {event.line()}" for event in result.log.events]
    lines.append(repr(result.engine.now))
    lines.append(repr(sorted(result.tracer.metrics.snapshot().items())))
    lines.extend(f"{span.span_id} {span.parent_id} {span.name} "
                 f"{span.start_s!r} {span.end_s!r} {span.status}"
                 for span in result.tracer.spans)
    assert digest(lines) == CHAOS_LOG_DIGESTS[name]
