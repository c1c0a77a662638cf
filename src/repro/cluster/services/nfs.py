"""Network File System model.

All Monte Cimone nodes "mount a remote NFS" (§IV): home directories and
the Spack software tree live on the master node and are visible cluster-
wide.  The model is a path→content store with export/mount semantics and
enough POSIX surface (mkdir/write/read/listdir) for the Spack installer
and the job scheduler's working directories to use it as their backing
store, plus traffic accounting so NFS activity shows up in the network
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.services.base import ServiceAvailability

__all__ = ["NFSServer", "NFSMount"]


def _normalise(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


class NFSServer(ServiceAvailability):
    """The master node's NFS daemon: exports + the backing object store.

    Data-path RPCs (read/write/mkdir/listdir) are gated on availability;
    metadata already cached client-side (``exists``, the export table)
    keeps answering during an outage, which is how real NFS clients limp
    along until the server returns.
    """

    SERVICE_NAME = "nfs"

    def __init__(self, hostname: str = "mc-master") -> None:
        super().__init__()
        self.hostname = hostname
        self.exports: set[str] = set()
        self._files: Dict[str, bytes] = {}
        self._dirs: set[str] = {"/"}
        self.bytes_written = 0

    # -- exports ---------------------------------------------------------------
    def export(self, path: str) -> None:
        """Add a subtree to the export table and create its root."""
        path = _normalise(path)
        self.exports.add(path)
        self.mkdir(path, parents=True)

    def is_exported(self, path: str) -> bool:
        """Whether ``path`` lies inside an exported subtree."""
        path = _normalise(path)
        return any(path == e or path.startswith(e + "/") for e in self.exports)

    # -- object store ------------------------------------------------------------
    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory (like ``mkdir -p`` when ``parents``)."""
        self._require_available("mkdir")
        path = _normalise(path)
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._dirs:
            if not parents:
                raise FileNotFoundError(f"parent missing: {parent}")
            self.mkdir(parent, parents=True)
        self._dirs.add(path)

    def write(self, path: str, data: bytes) -> None:
        """Write a file; the parent directory must exist."""
        self._require_available("write")
        path = _normalise(path)
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._dirs:
            raise FileNotFoundError(f"no such directory: {parent}")
        self._files[path] = bytes(data)
        self.bytes_written += len(data)

    def read(self, path: str) -> bytes:
        """Read a file's content."""
        self._require_available("read")
        path = _normalise(path)
        if path not in self._files:
            raise FileNotFoundError(path)
        return self._files[path]

    def exists(self, path: str) -> bool:
        """Whether a file or directory exists."""
        path = _normalise(path)
        return path in self._files or path in self._dirs

    def listdir(self, path: str) -> List[str]:
        """Immediate children of a directory."""
        self._require_available("listdir")
        path = _normalise(path)
        if path not in self._dirs:
            raise FileNotFoundError(path)
        prefix = path.rstrip("/") + "/"
        children = set()
        for entry in list(self._files) + list(self._dirs):
            if entry.startswith(prefix) and entry != path:
                children.add(entry[len(prefix):].split("/")[0])
        return sorted(children)


@dataclass
class NFSMount:
    """A client-side mount of one export on one node."""

    server: NFSServer
    export_path: str
    mountpoint: str

    def __post_init__(self) -> None:
        if not self.server.is_exported(self.export_path):
            raise PermissionError(
                f"{self.export_path} is not exported by {self.server.hostname}")

    def _translate(self, path: str) -> str:
        path = _normalise(path)
        mp = _normalise(self.mountpoint)
        if not (path == mp or path.startswith(mp + "/")):
            raise ValueError(f"{path} outside mountpoint {mp}")
        suffix = path[len(mp):]
        return _normalise(self.export_path + suffix)

    def read(self, path: str) -> bytes:
        """Read through the mount (server-side path translation)."""
        return self.server.read(self._translate(path))

    def write(self, path: str, data: bytes) -> None:
        """Write through the mount."""
        self.server.write(self._translate(path), data)

    def exists(self, path: str) -> bool:
        """Existence check through the mount."""
        return self.server.exists(self._translate(path))
