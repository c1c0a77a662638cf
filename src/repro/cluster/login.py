"""The login node: authenticated user sessions on the cluster.

Ties the production services together the way a real user experiences
them (§IV-A): SSH to ``mc-login`` authenticates against LDAP, lands in an
NFS home directory, gets the Spack stack through environment modules, and
submits work through SLURM.  :class:`LoginNode` is the front door;
:class:`UserSession` is one logged-in shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.cluster.services.base import ServiceUnavailableError
from repro.cluster.services.ldap import AuthenticationError, LDAPServer, LDAPUser
from repro.cluster.services.modules import EnvironmentModules
from repro.cluster.services.nfs import NFSMount, NFSServer
from repro.slurm.api import SlurmAPI
from repro.slurm.scheduler import SlurmController

__all__ = ["LoginNode", "UserSession", "QueuedLogin"]


@dataclass
class QueuedLogin:
    """A login attempt parked while the LDAP directory is down.

    The front door stays responsive during a directory outage: instead of
    the connection crashing, the attempt is queued and replayed by
    :meth:`LoginNode.process_queued` once LDAP returns.  ``session`` is
    filled in at replay time; ``error`` records a replay that failed
    authentication (bad credentials do not survive an outage either).
    """

    username: str
    password: str = field(repr=False)
    session: Optional["UserSession"] = None
    error: Optional[str] = None

    @property
    def pending(self) -> bool:
        """Still waiting for the directory to come back."""
        return self.session is None and self.error is None


class UserSession:
    """One authenticated shell on the login node."""

    def __init__(self, user: LDAPUser, home: NFSMount,
                 modules: EnvironmentModules, slurm: SlurmAPI) -> None:
        self.user = user
        self.home = home
        self.modules = modules
        self.slurm = slurm
        self.history: List[str] = []
        #: Home-directory writes parked while NFS was down, as
        #: (absolute_path, data) pairs awaiting :meth:`flush_deferred_writes`.
        self.deferred_writes: List[Tuple[str, bytes]] = []

    # -- home directory -------------------------------------------------------
    def write_file(self, relative_path: str, data: bytes) -> None:
        """Write under the user's NFS home."""
        self.history.append(f"write {relative_path}")
        self.flush_deferred_writes()
        self.home.write(f"{self.user.home}/{relative_path}", data)

    def flush_deferred_writes(self) -> int:
        """Replay writes parked during an NFS outage; returns flush count.

        A still-down server leaves the remainder queued (no exception —
        the point of the deferred queue is to absorb the outage).
        """
        flushed = 0
        while self.deferred_writes:
            path, data = self.deferred_writes[0]
            try:
                self.home.write(path, data)
            except ServiceUnavailableError:
                break
            self.deferred_writes.pop(0)
            flushed += 1
        return flushed

    # -- batch system -----------------------------------------------------------
    def sbatch(self, script_text: str, duration_s: float, profile=None) -> int:
        """Submit a batch script as this user; the script is archived in
        the home directory like users actually do.

        Job launch degrades gracefully during an NFS outage: the archive
        write is deferred (flushed once the server returns) while the
        submission itself still reaches the scheduler — SLURM does not
        depend on the user's home being writable.
        """
        job_id_placeholder = len(self.history)
        relative_path = f"jobs/script-{job_id_placeholder}.sh"
        try:
            self.write_file(relative_path, script_text.encode())
        except ServiceUnavailableError:
            self.deferred_writes.append(
                (f"{self.user.home}/{relative_path}", script_text.encode()))
            self.history.append(f"write {relative_path} deferred (nfs down)")
        job_id = self.slurm.sbatch_script(script_text, user=self.user.uid,
                                          duration_s=duration_s,
                                          profile=profile)
        self.history.append(f"sbatch -> job {job_id}")
        return job_id

    def squeue(self) -> str:
        """Queue view."""
        return self.slurm.squeue()


class LoginNode:
    """``mc-login``: the cluster's interactive front door."""

    def __init__(self, ldap: LDAPServer, nfs: NFSServer,
                 modules: EnvironmentModules,
                 controller: SlurmController,
                 hostname: str = "mc-login") -> None:
        self.hostname = hostname
        self.ldap = ldap
        self.nfs = nfs
        self.modules = modules
        self.slurm_api = SlurmAPI(controller)
        self.active_sessions: Dict[str, UserSession] = {}
        self.failed_logins: List[str] = []
        #: Login attempts parked during an LDAP/NFS outage, replayed by
        #: :meth:`process_queued` once the services return.
        self.queued_logins: List[QueuedLogin] = []

    def _open_session(self, username: str, password: str) -> UserSession:
        user = self.ldap.bind(username, password)
        home_mount = NFSMount(server=self.nfs, export_path="/home",
                              mountpoint="/home")
        if not self.nfs.exists(user.home):
            self.nfs.mkdir(user.home, parents=True)
            self.nfs.mkdir(f"{user.home}/jobs", parents=True)
        session = UserSession(user=user, home=home_mount,
                              modules=self.modules, slurm=self.slurm_api)
        self.active_sessions[username] = session
        return session

    def ssh(self, username: str, password: str) -> Union[UserSession,
                                                         QueuedLogin]:
        """Authenticate and open a session.

        Degrades gracefully while LDAP or NFS is down: instead of the
        connection crashing, the attempt is parked as a
        :class:`QueuedLogin` (returned in place of the session) and
        replayed by :meth:`process_queued` once the service is back.

        Raises
        ------
        AuthenticationError
            Bad credentials (recorded in ``failed_logins``, the feedstock
            of the intrusion-detection analytics §II alludes to).
        """
        try:
            return self._open_session(username, password)
        except AuthenticationError:
            self.failed_logins.append(username)
            raise
        except ServiceUnavailableError:
            ticket = QueuedLogin(username=username, password=password)
            self.queued_logins.append(ticket)
            return ticket

    def process_queued(self) -> List[UserSession]:
        """Replay logins parked during a service outage.

        Returns the sessions opened on this pass.  Bad credentials fill
        the ticket's ``error`` (an outage does not launder a wrong
        password); a still-down service leaves the remainder pending.
        """
        opened: List[UserSession] = []
        for ticket in self.queued_logins:
            if not ticket.pending:
                continue
            try:
                ticket.session = self._open_session(ticket.username,
                                                    ticket.password)
            except AuthenticationError as exc:
                self.failed_logins.append(ticket.username)
                ticket.error = str(exc)
            except ServiceUnavailableError:
                break
            else:
                opened.append(ticket.session)
        return opened
