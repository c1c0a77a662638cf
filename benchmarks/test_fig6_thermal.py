"""Fig. 6: the thermal runaway during HPL and the §V-C mitigation."""

import hashlib

import pytest

#: SHA-256 of ``repr`` of the Fig. 6 result (every float at full
#: precision); any change to the simulated run or its monitoring moves it.
FIG6_DIGEST = (
    "c40084eb817992055941abd0496dbc3188dfcd4903d14a739f45c547e81a8779")


def test_fig6_result_digest(fig6_results):
    digest = hashlib.sha256(repr(fig6_results).encode()).hexdigest()
    assert digest == FIG6_DIGEST, repr(fig6_results)


def test_fig6_node7_runs_away(benchmark, fig6_results):
    result = benchmark(lambda: fig6_results)
    # "a thermal hazard on node 7, which reached 107 °C and stopped
    # executing".
    assert result.tripped_nodes == ["mc-node-7"]
    assert result.trip_temperature_c == pytest.approx(107.0, abs=0.5)
    assert result.job_outcome == "NF"


def test_fig6_surviving_nodes_hot_but_alive(benchmark, fig6_results):
    result = benchmark(lambda: fig6_results)
    # The hotter non-failed node sat around 71 °C before mitigation.
    assert result.pre_mitigation_hot_c == pytest.approx(71.0, abs=7.0)
    assert result.pre_mitigation_hot_c < 107.0


def test_fig6_mitigation_drops_to_39(benchmark, fig6_results):
    result = benchmark(lambda: fig6_results)
    # "a significant reduction in the hotter node temperature, from 71 °C
    # to 39 °C".
    assert result.post_mitigation_hot_c == pytest.approx(39.0, abs=3.0)
    assert result.retry_outcome == "CD"


def test_fig6_mitigation_factor(benchmark, fig6_results):
    result = benchmark(lambda: fig6_results)
    drop = result.pre_mitigation_hot_c - result.post_mitigation_hot_c
    assert drop > 25.0  # the paper's 71→39 is a 32 °C drop
