"""The long-lived exchange service behind ``repro serve``.

Three layers, each usable on its own:

* :mod:`repro.service.diskcache` — the persistent content-addressed
  result cache (``DiskCache``), shared by the engine's
  :class:`repro.engine.cache.TieredCache` backing tier and the
  service's response cache;
* :mod:`repro.service.pool` — the warm worker pool (``WarmPool``): the
  engine's supervised worker pool, running N persistent engine
  processes with heartbeat supervision and in-place respawn;
* :mod:`repro.service.http` — the stdlib JSON/HTTP front end
  (``ExchangeService``, ``serve``) with admission control, tiered
  response caching, and graceful drain.

See ``docs/SERVICE.md`` for the protocol and operational semantics.
"""

from .diskcache import (
    CACHE_OFF_VALUES,
    DEFAULT_CACHE_DIR,
    DiskCache,
    DiskCacheStats,
    GcReport,
    resolve_cache_dir,
)
from .http import ExchangeService, ServiceServer, serve
from .ops import (
    SERVICE_OPS,
    ServiceRequestError,
    execute_op,
    request_key,
    validate_request,
)
from .pool import PoolDraining, PoolJob, PoolSaturated, WarmPool

__all__ = [
    "CACHE_OFF_VALUES",
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "DiskCacheStats",
    "ExchangeService",
    "GcReport",
    "PoolDraining",
    "PoolJob",
    "PoolSaturated",
    "SERVICE_OPS",
    "ServiceRequestError",
    "ServiceServer",
    "WarmPool",
    "execute_op",
    "request_key",
    "resolve_cache_dir",
    "serve",
    "validate_request",
]
