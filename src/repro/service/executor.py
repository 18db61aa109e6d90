"""Deprecated: :class:`ServiceExecutor` is a thread-free alias of the service.

Every method it used to offer is :class:`VersionedKVService`'s own
(``scan(version=v)`` is ``service.items(v)``).  The class is kept only
because existing callers still import it and hand it to
``RepositoryServer(executor=...)``, which ignores it.
"""

from __future__ import annotations

from repro.service.service import VersionedKVService


class ServiceExecutor:
    """Deprecated; forwards every attribute to ``service``, holds no threads."""

    def __init__(self, service: VersionedKVService) -> None:
        self.service = service

    def __getattr__(self, name: str):
        return getattr(self.service, name)

    def close(self) -> None:
        """No-op: there is no pool to shut down."""

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
