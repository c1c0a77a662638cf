"""Seeded exponential backoff with bounded jitter.

Every retry loop in the tree — the sampling plugins reconnecting to a
downed MQTT broker, MPI collectives waiting out a flapping link, SLURM's
requeue path — needs the same schedule: exponentially growing delays,
capped at a maximum, optionally jittered so a fleet of clients does not
reconnect in lockstep.  The jitter source is a :class:`random.Random`
seeded at construction, never the interpreter-global RNG, so a backoff
sequence is exactly replayable (simlint DET102/DET105 territory).

Contract (the property tests in ``tests/test_chaos_backoff.py`` pin it):

* ``nominal(n) = min(base_s * factor**n, max_s)`` is monotone
  non-decreasing in ``n`` and never exceeds ``max_s``;
* ``delay(n)`` lies in ``[(1 - jitter) * nominal(n), nominal(n)]`` — the
  jitter only ever *shortens* a delay, so the cap holds unconditionally;
* two instances constructed with the same parameters and seed produce
  byte-identical delay sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["ExponentialBackoff"]


@dataclass
class ExponentialBackoff:
    """An exponential backoff schedule: ``base * factor**attempt``, capped.

    Parameters
    ----------
    base_s:
        Delay before the first retry (attempt 0).
    factor:
        Multiplier per attempt; ``factor >= 1`` keeps the schedule monotone.
    max_s:
        Hard cap on any delay.
    jitter:
        Fraction of the capped delay that may be jittered *away* (``0``
        disables jitter; ``0.25`` means delays land in ``[0.75·d, d]``).
    seed:
        Seed of the private jitter RNG.
    """

    base_s: float = 1.0
    factor: float = 2.0
    max_s: float = 60.0
    jitter: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError("backoff base must be positive")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1 (monotone schedule)")
        if self.max_s < self.base_s:
            raise ValueError("backoff cap must be >= base delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        self._rng = random.Random(self.seed)

    def nominal(self, attempt: int) -> float:
        """The un-jittered delay of ``attempt`` (monotone, capped)."""
        if attempt < 0:
            raise ValueError(f"negative attempt number {attempt}")
        # factor**attempt can overflow to inf for huge attempts; min() with
        # the cap keeps the result finite either way.
        try:
            raw = self.base_s * self.factor ** attempt
        except OverflowError:
            raw = float("inf")
        return min(raw, self.max_s)

    def delay(self, attempt: int) -> float:
        """The jittered delay for retry number ``attempt`` (0-based).

        Draws from the instance RNG when jitter is enabled, so call order
        matters exactly as much as the seed — both are deterministic.
        """
        nominal = self.nominal(attempt)
        if self.jitter == 0.0:
            return nominal
        return nominal * (1.0 - self.jitter * self._rng.random())
