"""Environment-modules model.

§IV: the Spack-deployed stack is "made available to all system users via
environment modules" [Furlani 1991].  The model implements the parts users
touch: a modulefile registry (populated by the Spack installer), ``module
avail``, ``module load``/``unload`` with conflict handling, and the
resulting environment-variable mutations (PATH/LD_LIBRARY_PATH prepends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Module", "EnvironmentModules", "ModuleConflictError"]


class ModuleConflictError(RuntimeError):
    """Loading two versions of the same package simultaneously."""


@dataclass(frozen=True)
class Module:
    """One modulefile: name/version plus its environment edits."""

    name: str
    version: str
    prefix: str
    env_prepend: Dict[str, str] = field(default_factory=dict)

    @property
    def full_name(self) -> str:
        """The ``name/version`` form shown by ``module avail``."""
        return f"{self.name}/{self.version}"

    def default_env(self) -> Dict[str, str]:
        """Standard PATH-style edits derived from the install prefix."""
        env = {"PATH": f"{self.prefix}/bin",
               "LD_LIBRARY_PATH": f"{self.prefix}/lib",
               "MANPATH": f"{self.prefix}/share/man"}
        env.update(self.env_prepend)
        return env


class EnvironmentModules:
    """A user session's module system."""

    def __init__(self) -> None:
        self._registry: Dict[str, Module] = {}
        self._loaded: Dict[str, Module] = {}   # name -> module
        self.environment: Dict[str, str] = {"PATH": "/usr/bin:/bin"}

    # -- registry ----------------------------------------------------------
    def register(self, module: Module) -> None:
        """Install a modulefile (the Spack post-install hook calls this)."""
        self._registry[module.full_name] = module

    def avail(self, pattern: str = "") -> List[str]:
        """``module avail [pattern]``: matching full names, sorted."""
        return sorted(name for name in self._registry if pattern in name)

    # -- load -----------------------------------------------------------------
    def load(self, full_name: str) -> Module:
        """``module load name/version``.

        Raises :class:`ModuleConflictError` if another version of the same
        package is already loaded (the standard modules semantic).
        """
        if full_name not in self._registry:
            raise KeyError(f"no modulefile {full_name!r}")
        module = self._registry[full_name]
        loaded = self._loaded.get(module.name)
        if loaded is not None and loaded.version != module.version:
            raise ModuleConflictError(
                f"{loaded.full_name} is already loaded; unload it first")
        self._loaded[module.name] = module
        for var, value in module.default_env().items():
            current = self.environment.get(var, "")
            if value not in current.split(":"):
                self.environment[var] = f"{value}:{current}" if current else value
        return module

    def list_loaded(self) -> List[str]:
        """``module list``: loaded full names, sorted."""
        return sorted(m.full_name for m in self._loaded.values())
