"""simlint — static analysis for the simulation's hard invariants.

The reproduction's measurement methodology rests on three properties that
ordinary Python tooling does not check:

* **Determinism** (DET rules): the discrete-event kernel promises that every
  simulated measurement is byte-for-byte reproducible, so nothing in the
  simulation may consult wall-clock time, global RNG state, or Python's
  per-process-salted ``hash()``.
* **Engine discipline** (ENG rules): process generators must only yield
  :class:`~repro.events.engine.Event` objects, must never block the real
  thread (``time.sleep``), and must never re-enter the event loop.
* **Calibration hygiene** (CAL rules): datasheet constants live in
  :mod:`repro.hardware.specs` and must be *imported*, not re-typed — a
  silently diverging copy of the 7760 MB/s DDR peak would skew every
  efficiency ratio in the evaluation.
* **Unit consistency** (UNIT rules): quantities carry their unit in the
  variable-name suffix (``_mw``, ``_s``, ``_bytes``); mixing suffixes in one
  expression is almost always a missed conversion.

Usage::

    python -m repro.lint src/          # or: python -m repro lint
    # inline suppression, with a justification comment:
    value = paper_table[row]  # simlint: disable=CAL301  (independent transcription)

See ``docs/LINTING.md`` for the rule catalogue and the suppression grammar.
"""
