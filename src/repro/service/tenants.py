"""Multi-tenant namespaces: quotas, cache isolation, result TTLs.

A :class:`Tenant` is a named namespace with three knobs:

* ``max_pending`` — how many unfinished jobs it may hold (admission
  control: the submit handler answers 429 past it);
* ``max_records`` — how many job records total its spool namespace may
  hold (finished jobs count until the TTL sweeper drops them);
* ``result_ttl_s`` — how long a finished job record lives before
  ``service gc`` / ``engine gc`` sweeps it (``None`` = forever).

Cache isolation is by construction, not by filtering: every tenant's
engine :class:`~repro.engine.store.ResultStore` lives under its own
root (``<cache>/tenants/<name>/``) and its spool records live in a
per-tenant :class:`~repro.engine.store.ChunkStore` namespace
(``svcjob-<name>``), so one tenant's digests are simply not addressable
from another's requests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.engine.store import TENANTS_DIR

__all__ = [
    "TENANT_NAME_RE",
    "Tenant",
    "TenantRegistry",
    "tenant_store_root",
]

#: Tenant names double as ChunkStore-namespace and directory fragments,
#: so the charset is deliberately narrow.
TENANT_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,31}$")


@dataclass(frozen=True)
class Tenant:
    """One namespace's quotas and retention policy."""

    name: str
    max_pending: int = 32
    max_records: int = 4096
    result_ttl_s: float | None = 7 * 24 * 3600.0

    def __post_init__(self) -> None:
        if not TENANT_NAME_RE.match(self.name):
            raise ValueError(
                f"invalid tenant name {self.name!r}; need {TENANT_NAME_RE.pattern}"
            )
        if self.max_pending < 1 or self.max_records < 1:
            raise ValueError("tenant quotas must be >= 1")
        if self.result_ttl_s is not None and self.result_ttl_s <= 0:
            raise ValueError("result_ttl_s must be positive (or None for no TTL)")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_pending": self.max_pending,
            "max_records": self.max_records,
            "result_ttl_s": self.result_ttl_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> Tenant:
        return cls(
            name=str(payload["name"]),
            max_pending=int(payload.get("max_pending", 32)),
            max_records=int(payload.get("max_records", 4096)),
            result_ttl_s=(
                None
                if payload.get("result_ttl_s") is None
                else float(payload["result_ttl_s"])
            ),
        )


class TenantRegistry:
    """The tenants a server instance admits.

    Always contains the default ``public`` tenant unless a configured
    tenant list explicitly redefines it; unknown tenants are rejected
    at submission (HTTP 403) — a namespace must be provisioned before
    it can hold work.
    """

    def __init__(self, tenants: tuple[Tenant, ...] = ()) -> None:
        self._tenants: dict[str, Tenant] = {}
        from repro.service.requests import DEFAULT_TENANT

        self._tenants[DEFAULT_TENANT] = Tenant(name=DEFAULT_TENANT)
        for tenant in tenants:
            self._tenants[tenant.name] = tenant

    def get(self, name: str) -> Tenant | None:
        return self._tenants.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tenants))

    def to_dict(self) -> dict:
        return {
            "tenants": [self._tenants[name].to_dict() for name in self.names()]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> TenantRegistry:
        return cls(
            tenants=tuple(
                Tenant.from_dict(entry) for entry in payload.get("tenants", [])
            )
        )

    @classmethod
    def load(cls, path: str | Path) -> TenantRegistry:
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def tenant_store_root(root: str | Path, tenant: str) -> Path:
    """The engine store root a tenant's results live under.

    A subdirectory per tenant is the whole isolation mechanism: digest
    hits can only come from the tenant's own directory, so identical
    work submitted by two tenants is computed (and cached) once *each*
    — cache contents never leak across the namespace boundary.
    """
    if not TENANT_NAME_RE.match(tenant):
        raise ValueError(f"invalid tenant name {tenant!r}")
    return Path(root) / TENANTS_DIR / tenant
