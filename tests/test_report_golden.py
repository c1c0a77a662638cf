"""Golden digests of every section of the experiments report.

``generate_experiments_report`` renders the paper reproduction that
``EXPERIMENTS.md`` holds.  The report is split on its ``## `` headers and
each section is pinned by its own SHA-256, so a change that moves one
table or figure fails exactly that section's case, and a re-pin is per
section.  The report is rendered once, at a short fixed full-cluster
duration (60 s; Figs. 5 and 6 and the DTM extension scale with it).

The section list itself is pinned too: adding, dropping, renaming or
reordering a section fails ``test_report_sections``.
"""

import re

import pytest

from repro.analysis.report import generate_experiments_report
from tests.golden import digest

#: Full-cluster simulated duration the digests are taken at.
DURATION_S = 60.0

#: (test id, section header, digest), in report order.
SECTIONS = [
    ("table1", "## Table I — user-facing software stack",
     "5f8a95056805a0d1037997a6081d2fda60bb1ba7b181aa886ccc18a7d1aa5717"),
    ("table2", "## Table II — ExaMon topic/payload formats",
     "a1c12759fb17ae3cbc0e807b27965f9372a3a1dc4f38ebd569ec5fa4844c52a9"),
    ("table3", "## Table III — stats_pub metrics",
     "0e96b0bf7222802c005fac49860eb88c0816c8807cb68757ee60069bfdfd3adc"),
    ("table4", "## Table IV — hwmon sysfs entries",
     "6558f838d412890e849e67d7140738a1596f4b8d4c0b6305b6374049a58e5b7e"),
    ("fig2", "## Fig. 2 — HPL strong scaling (N=40704, NB=192, GbE)",
     "e9bd4800858178940b00d41961d612dee2b58e00bfee85ea533c19a1b2002a4f"),
    ("va_efficiency", "## §V-A — efficiency comparison (upstream stacks)",
     "771402675367e5b99c48918bc4b83ce8462e2c4a720bb7be739600227e6383a2"),
    ("table5", "## Table V — STREAM, 4 threads (MB/s)",
     "72295e0b27e1716de1bdc0a7ff68d42cf8489021a73d6a7ea533d2670cad4ee0"),
    ("qe_lax", "## §V-A — QuantumESPRESSO LAX (512²)",
     "8f9893c751cd3c0fc3dd6910fad5b24c4f8d4c64210af41495fdbe56ca4cf1cc"),
    ("table6", "## Table VI — per-rail power (mW)",
     "97691d9138590df326b26aca4c76faa22d2fd543445d83cc9c1d9bdb7eaf7b2d"),
    ("fig3", "## Fig. 3 — 8 s power traces (1 ms windows)",
     "524a69824c45497757555308ef6c7583abcbd4982367e63a4c66a6cbd4114a49"),
    ("fig4", "## Fig. 4 — boot power decomposition",
     "80d1af9a5df26153a24b758b6b6e7cfd1f1d4bfe3c796fd66fb2591515a865a9"),
    ("fig5", "## Fig. 5 — ExaMon HPL heatmaps",
     "eee724429814f54ba5d28a4cda29d509bd94d7b8d631b10de3ac5e5dbe2f8c99"),
    ("fig6", "## Fig. 6 — thermal runaway and mitigation",
     "f665fc90cf2655832d0359bada74b988afc46ce12fbd27662d845b291121ec3c"),
    ("dtm", "## Extension — §VI dynamic thermal management",
     "c5e835e1d8352e1554263ed43d77f0a630e34e0eb685833d70311a04107bf71c"),
    ("infiniband", "## §III — Infiniband bring-up status",
     "7d227fc49b146034c98e7786489c397e686ad5d5cbe147446b476efc80266fe2"),
]


@pytest.fixture(scope="module")
def sections():
    """The report's ``## `` sections, keyed by header line, in order."""
    report = generate_experiments_report(DURATION_S)
    parts = re.split(r"(?m)^(?=## )", report)[1:]
    return {part.splitlines()[0]: part for part in parts}


def test_report_sections(sections):
    assert list(sections) == [header for _, header, _ in SECTIONS]


@pytest.mark.parametrize("header,expected",
                         [(header, expected) for _, header, expected in SECTIONS],
                         ids=[case for case, _, _ in SECTIONS])
def test_report_section_digest(sections, header, expected):
    assert digest(sections[header].splitlines()) == expected
