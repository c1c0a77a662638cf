"""Shared rendering for the golden-digest tests.

A golden digest is the SHA-256 of a canonical text rendering of an output
in which every float appears as its ``repr``, so a one-ulp change
anywhere shows up.  The ``test_*_golden.py`` modules pin such digests for
the outputs a refactor must reproduce exactly.
"""

import hashlib


def digest(lines):
    """SHA-256 hex digest of ``lines``, each terminated by a newline."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def store_digest(db):
    """Digest of every stored point of every topic, topics sorted."""
    lines = []
    for topic in db.topics("#"):
        lines.append(topic)
        lines.extend(f"{t!r} {v!r}" for t, v in db.query(topic))
    return digest(lines)
