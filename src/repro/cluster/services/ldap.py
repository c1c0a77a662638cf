"""LDAP directory service model.

The cluster's user accounts live in an LDAP server on the master node
(§IV-A).  The model covers what the rest of the stack needs: posixAccount
entries with uid/gid/home, groups, bind-style authentication (the
login node's front door) and prefix search.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.services.base import ServiceAvailability

__all__ = ["LDAPUser", "LDAPGroup", "LDAPServer", "AuthenticationError"]


class AuthenticationError(RuntimeError):
    """Bad credentials on a bind attempt."""


def _hash_password(password: str, salt: str) -> str:
    return hashlib.sha256((salt + password).encode()).hexdigest()


@dataclass(frozen=True)
class LDAPUser:
    """A posixAccount entry."""

    uid: str
    uid_number: int
    gid_number: int
    home: str


@dataclass
class LDAPGroup:
    """A posixGroup entry."""

    name: str
    gid_number: int
    members: List[str] = field(default_factory=list)


class LDAPServer(ServiceAvailability):
    """The cluster directory.

    Binds and lookups are gated on availability (``ldap_bind: Can't
    contact LDAP server``); provisioning is an offline/admin path and
    stays open — real deployments edit LDIFs while slapd is down.
    """

    SERVICE_NAME = "ldap"

    def __init__(self) -> None:
        super().__init__()
        self._users: Dict[str, LDAPUser] = {}
        self._groups: Dict[str, LDAPGroup] = {}
        self._secrets: Dict[str, tuple[str, str]] = {}  # uid -> (salt, hash)
        self._next_uid = 1000
        self._next_gid = 1000

    # -- provisioning -------------------------------------------------------
    def add_group(self, name: str) -> LDAPGroup:
        """Create a posixGroup; gid numbers are allocated sequentially."""
        if name in self._groups:
            raise ValueError(f"group {name!r} already exists")
        group = LDAPGroup(name=name, gid_number=self._next_gid)
        self._next_gid += 1
        self._groups[name] = group
        return group

    def add_user(self, uid: str, password: str, group: str) -> LDAPUser:
        """Create a posixAccount in an existing group."""
        if uid in self._users:
            raise ValueError(f"user {uid!r} already exists")
        if group not in self._groups:
            raise KeyError(f"no such group {group!r}")
        user = LDAPUser(uid=uid, uid_number=self._next_uid,
                        gid_number=self._groups[group].gid_number,
                        home=f"/home/{uid}")
        self._next_uid += 1
        self._users[uid] = user
        self._groups[group].members.append(uid)
        salt = f"s{user.uid_number}"
        self._secrets[uid] = (salt, _hash_password(password, salt))
        return user

    # -- lookups ---------------------------------------------------------------
    def search(self, uid_prefix: str = "") -> List[LDAPUser]:
        """Prefix search over uids (the ldapsearch everyone actually runs)."""
        self._require_available("search")
        return sorted((u for u in self._users.values()
                       if u.uid.startswith(uid_prefix)),
                      key=lambda u: u.uid)

    # -- bind ----------------------------------------------------------------
    def bind(self, uid: str, password: str) -> LDAPUser:
        """Authenticate; raises :class:`AuthenticationError` on failure
        and :class:`~repro.cluster.services.base.ServiceUnavailableError`
        while the directory is down."""
        self._require_available("bind")
        if uid not in self._users:
            raise AuthenticationError(f"no such user {uid!r}")
        salt, stored = self._secrets[uid]
        if _hash_password(password, salt) != stored:
            raise AuthenticationError(f"invalid credentials for {uid!r}")
        return self._users[uid]
