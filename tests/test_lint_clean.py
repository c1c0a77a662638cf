"""Tier-1 gate: the source tree must satisfy its own static invariants.

This is the machine-enforcement half of the determinism contract stated in
``repro/events/engine.py``: any PR that reintroduces a wall-clock read, an
unseeded RNG, a salted ``hash()`` seed, a re-typed datasheet constant, or a
unit-suffix mismatch fails here (and in CI, which runs the same linter).
"""

from pathlib import Path

import pytest

from repro.lint.runner import lint_paths

SRC = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def source_tree_lint():
    """One lint of ``src/repro`` shared by the tests of this module."""
    return lint_paths([SRC])


def test_source_tree_has_no_unsuppressed_findings(source_tree_lint):
    rendered = "\n".join(f.render() for f in source_tree_lint.active)
    assert source_tree_lint.ok, (
        f"simlint found violations in src/repro:\n{rendered}")


def test_source_tree_was_actually_scanned(source_tree_lint):
    # Guard against a silent no-op (e.g. a future path refactor): the tree
    # has well over fifty modules and every scan must keep seeing them.
    assert source_tree_lint.files_checked > 50


def test_calibration_anchors_are_loaded():
    # CAL301 is only meaningful while specs.py parses and exports anchors;
    # if this shrinks to nothing the clean-tree test above proves little.
    from repro.lint.rules.calibration import anchor_values
    anchors = anchor_values()
    # The literals below test the anchor set itself, so they necessarily
    # repeat the spec values CAL301 normally forbids duplicating.
    assert 7760e6 in anchors, "DDR peak bandwidth anchor lost"  # simlint: disable=CAL301
    assert 1.2e9 in anchors, "U740 clock anchor lost"  # simlint: disable=CAL301
