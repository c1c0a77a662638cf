"""Property tests pinning the ExponentialBackoff contract.

Every retry loop leans on three guarantees (see the module docstring of
``repro.events.backoff``): the nominal schedule is monotone and capped,
jitter only ever shortens a delay, and the whole stream is a pure
function of the constructor arguments.  Hypothesis explores the
parameter space; a few example-based tests pin the exact arithmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.backoff import ExponentialBackoff

_PARAMS = {
    "base_s": st.floats(min_value=1e-3, max_value=10.0,
                        allow_nan=False, allow_infinity=False),
    "factor": st.floats(min_value=1.0, max_value=8.0,
                        allow_nan=False, allow_infinity=False),
    "cap_mult": st.floats(min_value=1.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
    "jitter": st.floats(min_value=0.0, max_value=0.99,
                        allow_nan=False, allow_infinity=False),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
}


def _backoff(base_s, factor, cap_mult, jitter, seed):
    return ExponentialBackoff(base_s=base_s, factor=factor,
                              max_s=base_s * cap_mult, jitter=jitter,
                              seed=seed)


def _delays(backoff, n):
    """The first ``n`` delays, in attempt order."""
    return [backoff.delay(attempt) for attempt in range(n)]


class TestNominalSchedule:
    @given(**_PARAMS)
    @settings(max_examples=200)
    def test_monotone_and_capped(self, base_s, factor, cap_mult, jitter, seed):
        backoff = _backoff(base_s, factor, cap_mult, jitter, seed)
        nominals = [backoff.nominal(n) for n in range(32)]
        assert all(b >= a for a, b in zip(nominals, nominals[1:]))
        assert all(n <= backoff.max_s for n in nominals)
        assert nominals[0] == pytest.approx(min(base_s, backoff.max_s))

    @given(**_PARAMS)
    @settings(max_examples=100)
    def test_caps_at_max_for_huge_attempts(self, base_s, factor, cap_mult,
                                           jitter, seed):
        backoff = _backoff(base_s, factor, cap_mult, jitter, seed)
        # 10_000 attempts overflows float range for most factors > 1;
        # the cap must hold regardless (and a flat factor == 1 schedule
        # must still be finite and bounded).
        assert backoff.nominal(10_000) <= backoff.max_s

    def test_overflowing_schedule_hits_cap_exactly(self):
        backoff = ExponentialBackoff(base_s=1.0, factor=2.0, max_s=60.0)
        assert backoff.nominal(10_000) == 60.0

    def test_exact_doubling(self):
        backoff = ExponentialBackoff(base_s=1.0, factor=2.0, max_s=60.0)
        assert _delays(backoff, 7) == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0]


class TestJitterBounds:
    @given(**_PARAMS, attempt=st.integers(min_value=0, max_value=64))
    @settings(max_examples=200)
    def test_delay_within_jitter_band(self, base_s, factor, cap_mult, jitter,
                                      seed, attempt):
        backoff = _backoff(base_s, factor, cap_mult, jitter, seed)
        nominal = backoff.nominal(attempt)
        delay = backoff.delay(attempt)
        assert delay <= nominal + 1e-12
        assert delay >= nominal * (1.0 - jitter) - 1e-12

    @given(**_PARAMS)
    @settings(max_examples=100)
    def test_delay_never_exceeds_cap(self, base_s, factor, cap_mult, jitter,
                                     seed):
        backoff = _backoff(base_s, factor, cap_mult, jitter, seed)
        assert all(d <= backoff.max_s + 1e-12 for d in _delays(backoff, 64))


class TestDeterminism:
    @given(**_PARAMS)
    @settings(max_examples=200)
    def test_same_seed_same_stream(self, base_s, factor, cap_mult, jitter,
                                   seed):
        a = _backoff(base_s, factor, cap_mult, jitter, seed)
        b = _backoff(base_s, factor, cap_mult, jitter, seed)
        assert _delays(a, 32) == _delays(b, 32)

    def test_different_seeds_differ_with_jitter(self):
        a = ExponentialBackoff(base_s=1.0, jitter=0.5, seed=1)
        b = ExponentialBackoff(base_s=1.0, jitter=0.5, seed=2)
        assert _delays(a, 16) != _delays(b, 16)

    def test_draw_order_is_part_of_the_stream(self):
        # delay(n) consumes one RNG draw regardless of n: interleaving
        # matters, exactly like the docstring says.
        a = ExponentialBackoff(base_s=1.0, jitter=0.5, seed=7)
        b = ExponentialBackoff(base_s=1.0, jitter=0.5, seed=7)
        first = [a.delay(0), a.delay(1)]
        swapped_draws = [b.delay(1), b.delay(0)]
        assert first[0] != pytest.approx(swapped_draws[1])


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_s": 0.0},
        {"base_s": -1.0},
        {"factor": 0.5},
        {"base_s": 10.0, "max_s": 5.0},
        {"jitter": -0.1},
        {"jitter": 1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExponentialBackoff(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            ExponentialBackoff().nominal(-1)
