"""Tests for NFS, LDAP and environment modules."""

import pytest

from repro.cluster.services.ldap import AuthenticationError, LDAPServer
from repro.cluster.services.modules import (
    EnvironmentModules,
    Module,
    ModuleConflictError,
)
from repro.cluster.services.nfs import NFSMount, NFSServer


class TestNFSServer:
    def _server(self):
        server = NFSServer()
        server.export("/home")
        return server

    def test_export_creates_root(self):
        server = self._server()
        assert server.exists("/home")
        assert server.is_exported("/home/alice")

    def test_write_and_read(self):
        server = self._server()
        server.mkdir("/home/alice")
        server.write("/home/alice/data.txt", b"hello")
        assert server.read("/home/alice/data.txt") == b"hello"

    def test_write_needs_parent_directory(self):
        server = self._server()
        with pytest.raises(FileNotFoundError):
            server.write("/home/ghost/file", b"x")

    def test_mkdir_parents(self):
        server = self._server()
        server.mkdir("/home/a/b/c", parents=True)
        assert server.exists("/home/a/b/c")
        with pytest.raises(FileNotFoundError):
            server.mkdir("/home/x/y/z")

    def test_listdir(self):
        server = self._server()
        server.mkdir("/home/alice")
        server.mkdir("/home/bob")
        server.write("/home/alice/f", b"")
        assert server.listdir("/home") == ["alice", "bob"]
        assert server.listdir("/home/alice") == ["f"]

    def test_relative_paths_rejected(self):
        with pytest.raises(ValueError):
            self._server().write("relative/path", b"")

    def test_traffic_accounting(self):
        server = self._server()
        server.write("/home/f", b"abcd")
        server.read("/home/f")
        assert server.bytes_written == 4


class TestNFSMount:
    def test_mount_translates_paths(self):
        server = NFSServer()
        server.export("/srv/home")
        server.write("/srv/home/readme", b"data")
        mount = NFSMount(server=server, export_path="/srv/home",
                         mountpoint="/home")
        assert mount.read("/home/readme") == b"data"
        mount.write("/home/new", b"x")
        assert server.read("/srv/home/new") == b"x"

    def test_unexported_path_refused(self):
        server = NFSServer()
        with pytest.raises(PermissionError):
            NFSMount(server=server, export_path="/secret", mountpoint="/mnt")

    def test_path_outside_mountpoint_rejected(self):
        server = NFSServer()
        server.export("/srv")
        mount = NFSMount(server=server, export_path="/srv", mountpoint="/mnt")
        with pytest.raises(ValueError):
            mount.read("/etc/passwd")


class TestLDAP:
    def _server(self):
        server = LDAPServer()
        server.add_group("hpc-users")
        server.add_user("alice", "s3cret", "hpc-users")
        return server

    def test_bind_success_and_failure(self):
        server = self._server()
        user = server.bind("alice", "s3cret")
        assert user.uid == "alice"
        with pytest.raises(AuthenticationError):
            server.bind("alice", "wrong")
        with pytest.raises(AuthenticationError):
            server.bind("ghost", "x")

    def test_uid_numbers_sequential(self):
        server = self._server()
        bob = server.add_user("bob", "pw", "hpc-users")
        assert bob.uid_number == server.search("alice")[0].uid_number + 1

    def test_duplicate_user_rejected(self):
        server = self._server()
        with pytest.raises(ValueError):
            server.add_user("alice", "pw", "hpc-users")

    def test_unknown_group_rejected(self):
        with pytest.raises(KeyError):
            self._server().add_user("bob", "pw", "nonexistent")

    def test_prefix_search(self):
        server = self._server()
        server.add_user("albert", "pw", "hpc-users")
        assert [u.uid for u in server.search("al")] == ["albert", "alice"]


class TestEnvironmentModules:
    def _modules(self):
        modules = EnvironmentModules()
        modules.register(Module(name="gcc", version="10.3.0",
                                prefix="/opt/spack/gcc-10.3.0"))
        modules.register(Module(name="gcc", version="12.1.0",
                                prefix="/opt/spack/gcc-12.1.0"))
        modules.register(Module(name="hpl", version="2.3",
                                prefix="/opt/spack/hpl-2.3"))
        return modules

    def test_avail_lists_and_filters(self):
        modules = self._modules()
        assert modules.avail() == ["gcc/10.3.0", "gcc/12.1.0", "hpl/2.3"]
        assert modules.avail("gcc") == ["gcc/10.3.0", "gcc/12.1.0"]

    def test_load_prepends_path(self):
        modules = self._modules()
        modules.load("gcc/10.3.0")
        assert modules.environment["PATH"].startswith(
            "/opt/spack/gcc-10.3.0/bin:")

    def test_version_conflict(self):
        modules = self._modules()
        modules.load("gcc/10.3.0")
        with pytest.raises(ModuleConflictError):
            modules.load("gcc/12.1.0")

    def test_unknown_module_raises(self):
        with pytest.raises(KeyError):
            self._modules().load("fftw/3.3.10")

    def test_reload_same_version_is_idempotent(self):
        modules = self._modules()
        modules.load("gcc/10.3.0")
        modules.load("gcc/10.3.0")
        assert modules.environment["PATH"].count(
            "/opt/spack/gcc-10.3.0/bin") == 1

