"""Shared availability semantics for the node services.

Both NFS and LDAP are single-instance daemons on the master node (§IV-A);
when one is down, clients see a hard error on every RPC — the model of
``mount.nfs: Connection timed out`` and ``ldap_bind: Can't contact LDAP
server``.  :class:`ServiceAvailability` gives each service the same
stop/start surface the chaos injectors drive, and the same
:class:`ServiceUnavailableError` clients catch to degrade gracefully
(queue the work, don't crash — see :mod:`repro.cluster.login`).
"""

from __future__ import annotations

__all__ = ["ServiceUnavailableError", "ServiceAvailability"]


class ServiceUnavailableError(ConnectionError):
    """An RPC hit a service that is down."""

    def __init__(self, service: str, operation: str = "") -> None:
        detail = f" during {operation}" if operation else ""
        super().__init__(f"service {service!r} is unavailable{detail}")
        self.service = service


class ServiceAvailability:
    """Mixin: an ``service_available`` flag plus the injection surface."""

    #: Service name used in errors and chaos logs; subclasses override.
    SERVICE_NAME = "service"

    def __init__(self) -> None:
        self.service_available = True
        #: RPCs refused while down (visibility counter for campaigns).
        self.requests_refused = 0

    def stop_service(self) -> None:
        """Take the daemon down; every gated RPC raises until restart."""
        self.service_available = False

    def start_service(self) -> None:
        """Bring the daemon back; queued client work can now be flushed."""
        self.service_available = True

    def _require_available(self, operation: str) -> None:
        if not self.service_available:
            self.requests_refused += 1
            raise ServiceUnavailableError(self.SERVICE_NAME, operation)
