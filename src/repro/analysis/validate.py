"""The claims ledger: every paper number the reproduction is held to.

:data:`CLAIMS` is the one place a bound on a paper number is declared.
Each :class:`Claim` names the :mod:`repro.analysis.experiments` driver that
measures it, a reader from that driver's result to the measured value,
the paper value (read from :mod:`repro.analysis.paper`, never retyped) and
an absolute or relative bound.  ``python -m repro validate``, the
benchmark harness (``benchmarks/test_paper_claims.py``) and the tier-1
tests all iterate over it.  Where two older copies of a check disagreed,
the strictest bound was kept; no bound is ever widened.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List

from repro.analysis import experiments, paper
from repro.power.model import TABLE_VI_MILLIWATTS
from repro.power.traces import RAIL_GROUPS

__all__ = ["CLAIMS", "CheckResult", "Claim", "run_validation",
           "render_checklist"]


@dataclass(frozen=True)
class CheckResult:
    """One validated claim."""

    name: str
    measured: Any
    expected: Any
    tolerance: float     # absolute; 0 means the values must be equal
    passed: bool

    @classmethod
    def compare(cls, name: str, measured: Any, expected: Any,
                tolerance: float) -> "CheckResult":
        """Build a check from a measured/expected pair."""
        passed = (measured == expected if tolerance == 0
                  else abs(measured - expected) <= tolerance)
        return cls(name=name, measured=measured, expected=expected,
                   tolerance=tolerance, passed=passed)


@dataclass(frozen=True)
class Claim:
    """One paper number, the driver that measures it, and its bound.

    ``bound`` is absolute, or a fraction of the paper value when
    ``relative``; a bound of 0 asks for equality (versions, outcomes,
    yes/no facts).
    """

    name: str
    section: str
    driver: Callable[[], Any]
    read: Callable[[Any], Any]
    paper: Any
    bound: float = 0.0
    relative: bool = False

    @property
    def title(self) -> str:
        """The claim as the checklist names it."""
        return f"{self.section} {self.name}"

    def judge(self, measured: Any) -> CheckResult:
        """Compare a measured value with the paper value."""
        tolerance = (self.bound * abs(self.paper) if self.relative
                     else self.bound)
        return CheckResult.compare(self.title, measured, self.paper,
                                   tolerance)

    def check(self, results: Dict[Callable[[], Any], Any]) -> CheckResult:
        """Judge the driver's result in ``results``, running it if absent."""
        if self.driver not in results:
            results[self.driver] = self.driver()
        return self.judge(self.read(results[self.driver]))


def _row(rows, key):
    """The row of a driver's table whose first cell is ``key``."""
    return next(row for row in rows if row[0] == key)


def _total_mw(table, column: str, rails=None) -> float:
    """Model mW of a Table VI column, summed over ``rails`` (default all)."""
    cells = table[column]
    return sum(cells[rail][0] for rail in (rails or cells))


def _share(column: str, rails):
    """Reader: the share of a Table VI column's model power on ``rails``."""
    return lambda t: _total_mw(t, column, rails) / _total_mw(t, column)


def _claims() -> List[Claim]:
    ex = experiments
    claims = [
        Claim(f"{package} version", "Table I", ex.table1_software_stack,
              lambda rows, p=package: _row(rows, p)[1], version)
        for package, version in paper.TABLE_I_STACK.items()]

    claims += [
        Claim(f"HPL {n}-node {key}", section, ex.fig2_hpl_scaling,
              lambda s, n=n, key=key: getattr(s.point(n), key), values[key],
              bound, relative)
        for section, n, values, key, bound, relative in (
            ("§V-A", 1, paper.HPL_SINGLE_NODE, "gflops", 0.04, False),
            ("§V-A", 1, paper.HPL_SINGLE_NODE, "fraction_of_peak", 0.002,
             False),
            ("§V-A", 1, paper.HPL_SINGLE_NODE, "runtime_s", 0.03, True),
            ("Fig. 2", 8, paper.HPL_FULL_MACHINE, "gflops", 0.52, False),
            ("Fig. 2", 8, paper.HPL_FULL_MACHINE, "fraction_of_peak", 0.01,
             False),
            ("Fig. 2", 8, paper.HPL_FULL_MACHINE, "fraction_of_linear", 0.03,
             False),
            ("Fig. 2", 8, paper.HPL_FULL_MACHINE, "runtime_s", 0.03, True))]

    # Monte Cimone's HPL row is the HPL 1-node fraction_of_peak above (the
    # same HPLModel run: paper N, seed 2022); its STREAM row is also the
    # §V-A "no more than 15.5%" DDR ceiling, held tighter.
    claims += [
        Claim(f"{machine} {kind} fraction", "§V-A", ex.comparison_table,
              lambda rows, m=machine, i=column: _row(rows, m)[i],
              fractions[kind], 0.003 if machine == "montecimone" else 0.005)
        for machine, fractions in paper.COMPARISON_FRACTIONS.items()
        for kind, column in (("hpl", 1), ("stream", 3))
        if (machine, kind) != ("montecimone", "hpl")]

    claims += [
        Claim(f"{column} {kernel} MB/s", "Table V", ex.table5_stream,
              lambda t, c=column, k=kernel: t[c][k][0], mb_s, 0.01,
              relative=True)
        for column, kernels in (("STREAM.DDR", paper.TABLE_V_DDR_MB_S),
                                ("STREAM.L2", paper.TABLE_V_L2_MB_S))
        for kernel, mb_s in kernels.items()]

    claims += [
        Claim(f"QE LAX {key}", "§V-A", ex.qe_lax_result, attrgetter(attr),
              paper.QE_LAX[key], bound, relative)
        for key, attr, bound, relative in (
            ("gflops", "throughput.mean", 0.05, False),
            ("runtime_s", "runtime_s.mean", 0.4, False),
            ("fraction", "efficiency", 1e-6, True))]

    claims += [
        Claim(f"{column} {rail} mW", "Table VI", ex.table6_power,
              lambda t, c=column, r=rail: t[c][r][0], mw, 25.0)
        for column, rails in TABLE_VI_MILLIWATTS.items()
        for rail, mw in rails.items()]
    # The idle and HPL totals are §I's idle_w and max_w below, held tighter.
    claims += [
        Claim(f"{column} TOTAL mW", "Table VI", ex.table6_power,
              lambda t, c=column: _total_mw(t, c), sum(rails.values()), 0.01,
              relative=True)
        for column, rails in TABLE_VI_MILLIWATTS.items()
        if column not in ("idle", "hpl")]

    claims += [
        Claim(key, "§I", ex.table6_power, read, paper.POWER_SUMMARY[key],
              bound)
        for key, read, bound in (
            ("idle_w", lambda t: _total_mw(t, "idle") / 1e3, 0.02),
            ("max_w", lambda t: _total_mw(t, "hpl") / 1e3, 0.03),
            ("idle_core_share", _share("idle", RAIL_GROUPS["core"]), 0.01),
            ("idle_ddr_share", _share("idle", RAIL_GROUPS["ddr"]), 0.01),
            ("idle_pci_share", _share("idle", ("pcievp", "pcievph")), 0.015),
            ("hpl_core_share", _share("hpl", RAIL_GROUPS["core"]), 0.01))]

    claims += [
        Claim(f"{workload} {group} mean W", "Fig. 3", ex.fig3_power_traces,
              lambda t, w=workload, g=group: t[w][g]["mean_w"],
              sum(TABLE_VI_MILLIWATTS[workload][rail]
                  for rail in RAIL_GROUPS[group]) / 1e3, bound)
        for workload, group, bound in (
            ("hpl", "core", 0.12), ("stream_l2", "core", 0.12),
            ("stream_ddr", "core", 0.12), ("qe", "core", 0.12),
            ("stream_ddr", "ddr", 0.1))]

    claims += [
        Claim(key, "Fig. 4", ex.fig4_boot_power, itemgetter(key),
              paper.BOOT_DECOMPOSITION[key], bound)
        for key, bound in (("r1_core_w", 0.01), ("r2_core_w", 0.01),
                           ("r3_core_w", 0.02), ("ddr_mem_r1_w", 0.005),
                           ("leakage_fraction", 0.01),
                           ("dynamic_clock_fraction", 0.01),
                           ("os_fraction", 0.01))]

    claims += [
        Claim(f"IB {key}", "§III", ex.infiniband_status, attrgetter(key),
              value)
        for key, value in paper.INFINIBAND.items()]

    thermal, fig6 = paper.THERMAL, ex.fig6_thermal_runaway
    claims.append(Claim(
        "runaway_node", "Fig. 6", fig6, lambda r: ",".join(r.tripped_nodes),
        thermal["runaway_node"]))
    claims += [
        Claim(key, "Fig. 6", fig6, attrgetter(attr), thermal[key], bound)
        for key, attr, bound in (
            ("trip_celsius", "trip_temperature_c", 0.5),
            ("job_outcome", "job_outcome", 0.0),
            ("pre_mitigation_hot_c", "pre_mitigation_hot_c", 7.0),
            ("post_mitigation_hot_c", "post_mitigation_hot_c", 3.0),
            ("retry_outcome", "retry_outcome", 0.0))]
    claims.append(Claim(
        "mitigation drop °C", "Fig. 6", fig6,
        lambda r: r.pre_mitigation_hot_c - r.post_mitigation_hot_c,
        thermal["pre_mitigation_hot_c"] - thermal["post_mitigation_hot_c"],
        7.0))
    return claims


#: Every paper claim; table-shaped ones expand to one claim per cell.
CLAIMS: List[Claim] = _claims()


def run_validation(include_slow: bool = False) -> List[CheckResult]:
    """Judge every claim, running each driver once.

    The fast set needs no cluster simulation; ``include_slow`` adds the
    Fig. 6 thermal-runaway run.
    """
    results: Dict[Callable[[], Any], Any] = {}
    return [claim.check(results) for claim in CLAIMS
            if include_slow
            or claim.driver is not experiments.fig6_thermal_runaway]


def _format(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def render_checklist(checks: List[CheckResult]) -> str:
    """Human-readable checklist with a summary line."""
    lines = []
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        bound = f" (±{check.tolerance:.3g})" if check.tolerance else ""
        lines.append(f"[{mark}] {check.name}: measured "
                     f"{_format(check.measured)} vs paper "
                     f"{_format(check.expected)}{bound}")
    n_passed = sum(check.passed for check in checks)
    lines.append(f"\n{n_passed}/{len(checks)} checks passed")
    return "\n".join(lines)
