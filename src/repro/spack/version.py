"""Version objects and constraint ranges, Spack-style.

Versions are dotted numeric tuples with optional alphanumeric suffix
components (``2.37.x`` style); comparison is componentwise with numeric
components ordering before alphabetic ones, which matches Spack's
behaviour for the version strings in this repository.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Optional, Tuple, Union

__all__ = ["Version", "VersionRange"]

_COMPONENT_RE = re.compile(r"(\d+|[a-zA-Z]+)")


@total_ordering
class Version:
    """A package version such as ``10.3.0`` or ``2.37.x``."""

    def __init__(self, text: str) -> None:
        text = str(text).strip()
        if not text:
            raise ValueError("empty version string")
        self.text = text
        self.components: Tuple[Union[int, str], ...] = tuple(
            int(c) if c.isdigit() else c
            for c in _COMPONENT_RE.findall(text))
        if not self.components:
            raise ValueError(f"unparseable version {text!r}")

    @staticmethod
    def _key(component: Union[int, str]) -> tuple[int, Union[int, str]]:
        # Numeric components sort before and separately from alphabetic.
        return (0, component) if isinstance(component, int) else (1, component)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self.components == other.components

    def __lt__(self, other: "Version") -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        for mine, theirs in zip(self.components, other.components):
            if mine != theirs:
                return self._key(mine) < self._key(theirs)
        return len(self.components) < len(other.components)

    def __hash__(self) -> int:
        return hash(self.components)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Version({self.text!r})"


@dataclass(frozen=True)
class VersionRange:
    """An inclusive version interval; open ends are ``None``.

    The string forms mirror Spack: ``@1.2:`` (at least), ``@:2.0`` (at
    most), ``@1.2:2.0`` (between), ``@1.2`` (exactly, via
    :meth:`exact`).
    """

    low: Optional[Version] = None
    high: Optional[Version] = None
    exact_version: Optional[Version] = None

    @classmethod
    def exact(cls, version: Union[str, Version]) -> "VersionRange":
        """A single-version constraint."""
        return cls(exact_version=Version(str(version)))

    @classmethod
    def parse(cls, text: str) -> "VersionRange":
        """Parse Spack's ``@``-stripped constraint syntax."""
        text = text.strip()
        if not text or text == ":":
            return cls()
        if ":" not in text:
            return cls.exact(text)
        low_text, high_text = text.split(":", 1)
        return cls(low=Version(low_text) if low_text else None,
                   high=Version(high_text) if high_text else None)

    def contains(self, version: Version) -> bool:
        """Membership test."""
        if self.exact_version is not None:
            return version == self.exact_version
        if self.low is not None and version < self.low:
            return False
        if self.high is not None and self.high < version:
            return False
        return True

    def intersects(self, other: "VersionRange") -> bool:
        """Whether any version could satisfy both ranges."""
        if self.exact_version is not None:
            return other.contains(self.exact_version)
        if other.exact_version is not None:
            return self.contains(other.exact_version)
        if self.high is not None and other.low is not None and self.high < other.low:
            return False
        if other.high is not None and self.low is not None and other.high < self.low:
            return False
        return True

    def __str__(self) -> str:
        if self.exact_version is not None:
            return str(self.exact_version)
        return f"{self.low or ''}:{self.high or ''}"
