"""The ExaMon payload format: ``<value>;<timestamp>`` (Table II).

Values are numeric; timestamps are seconds (the simulated clock plays the
role of Unix time).  The codec is strict — a malformed payload raises
rather than silently producing NaNs in the database, because storage-side
validation is what keeps an ODA pipeline debuggable.  Non-finite fields
(``nan``, ``inf``) are malformed too: a NaN timestamp would also break the
sorted timestamp column of the store.

Every message of one sampling instant carries the same timestamp object
(:meth:`~repro.examon.plugins.base.SamplingPlugin.sample_and_publish`
passes one ``now_s`` for the node's whole metric set), so
:func:`encode_payload` keeps a one-entry memo of the timestamp text it
rendered last and reuses it when it is handed that same object again.
The memo is keyed by identity, not equality: ``0.0 == -0.0`` and
``1 == 1.0``, but their texts differ.  Only exact ``int`` and ``float``
objects, which are immutable, are memoised, and the memo holds a
reference to its key, so the key's ``id`` cannot be reused while it is
stored.  The memo never changes a result, so sharing it across callers
is safe; it is one tuple, replaced whole, so no reader sees half an
update.  Exact ``float`` values are rendered by ``repr``, the same text
the empty ``format`` spec gives at about half the cost; ints and float
subclasses keep ``format`` (``repr`` of ``np.float64(0.1)`` is
``np.float64(0.1)``, its text ``0.1``).

:func:`decode_payload` has no such memo.  Reusing the last parsed
timestamp when its text repeats would be exact too, but it saves under
1% of a Fig. 6 run (``docs/ARCHITECTURE.md``, "Payload codec").
"""

from __future__ import annotations

from math import isfinite

__all__ = ["encode_payload", "decode_payload"]

#: ``(timestamp object, its text)`` last rendered by :func:`encode_payload`.
_encoded_timestamp: tuple = (None, "")


def encode_payload(value: float, timestamp_s: float) -> str:
    """Render one measurement in the Table II wire format.

    Raises
    ------
    TypeError
        When ``value`` is not an ``int`` or ``float``.  ``bool`` is
        rejected although it subclasses ``int``: ``"True;0"`` is not a
        payload the decoder accepts.
    """
    global _encoded_timestamp
    value_type = type(value)
    # ``bool`` cannot be subclassed, so the type test catches all of it.
    if value_type is not float and (value_type is bool
                                    or not isinstance(value, (int, float))):
        raise TypeError(f"value must be numeric, got {value_type.__name__}")
    key, ts_text = _encoded_timestamp
    if key is not timestamp_s:
        ts_text = f"{timestamp_s}"
        if type(timestamp_s) in (float, int):
            _encoded_timestamp = (timestamp_s, ts_text)
    if value_type is float:
        return f"{value!r};{ts_text}"
    return f"{value};{ts_text}"


def decode_payload(payload: str) -> tuple[float, float]:
    """Parse ``<value>;<timestamp>`` back into finite floats.

    Raises
    ------
    ValueError
        On missing separator, non-numeric or non-finite fields.
    """
    value_text, separator, ts_text = payload.partition(";")
    if not separator:
        raise ValueError(f"payload missing ';' separator: {payload!r}")
    try:
        value = float(value_text)
        timestamp_s = float(ts_text)
    except ValueError as exc:
        raise ValueError(f"non-numeric payload: {payload!r}") from exc
    if not (isfinite(value) and isfinite(timestamp_s)):
        raise ValueError(f"non-finite payload: {payload!r}")
    return value, timestamp_s
