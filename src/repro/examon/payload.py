"""The ExaMon payload format: ``<value>;<timestamp>`` (Table II).

Values are numeric; timestamps are seconds (the simulated clock plays the
role of Unix time).  The codec is strict — a malformed payload raises
rather than silently producing NaNs in the database, because storage-side
validation is what keeps an ODA pipeline debuggable.  Non-finite fields
(``nan``, ``inf``) are malformed too: a NaN timestamp would also break the
sorted timestamp column of the store.
"""

from __future__ import annotations

from math import isfinite

__all__ = ["encode_payload", "decode_payload"]


def encode_payload(value: float, timestamp_s: float) -> str:
    """Render one measurement in the Table II wire format.

    Raises
    ------
    TypeError
        When ``value`` is not an ``int`` or ``float``.  ``bool`` is
        rejected although it subclasses ``int``: ``"True;0"`` is not a
        payload the decoder accepts.
    """
    if not (isinstance(value, float)
            or (isinstance(value, int) and not isinstance(value, bool))):
        raise TypeError(f"value must be numeric, got {type(value).__name__}")
    return f"{value};{timestamp_s}"


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
