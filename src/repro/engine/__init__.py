"""The exchange engine: cached, parallel execution behind one API.

:class:`ExchangeEngine` is the recommended entry point for all exchange
operations::

    from repro import ExchangeEngine, SchemaMapping, Instance

    engine = ExchangeEngine()
    M = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
    U = engine.chase(M, Instance.parse("P(a, b, c)"))
    engine.chase(M, Instance.parse("P(a, b, c)"))   # served from cache
    engine.stats()["chase"]["hits"]                 # 1

A module-level **default engine** backs the classic free-function API
(``SchemaMapping.chase``, ``reverse_exchange``, ...), so existing call
sites transparently gain caching; :func:`set_default_engine` swaps it
(e.g. for a ``--no-cache`` run or an isolated test session).
"""

from __future__ import annotations

import threading
from typing import Optional

from .cache import CacheStats, LRUCache
from .engine import ExchangeEngine
from .supervisor import run_batch_supervised
from .results import (
    AuditReport,
    CacheProvenance,
    ExchangeResult,
    OperationStats,
    ReverseResult,
)

_default_engine: Optional[ExchangeEngine] = None
_default_lock = threading.Lock()


def get_default_engine() -> ExchangeEngine:
    """The process-wide engine behind the facade API (created lazily)."""
    global _default_engine
    if _default_engine is None:
        with _default_lock:
            if _default_engine is None:
                _default_engine = ExchangeEngine()
    return _default_engine


def set_default_engine(engine: Optional[ExchangeEngine]) -> Optional[ExchangeEngine]:
    """Replace the default engine; returns the previous one.

    Passing ``None`` resets to lazy re-creation.  Typical uses: install
    an engine with caching disabled, a larger cache, or a ``jobs``
    default; or isolate cache state in tests.
    """
    global _default_engine
    with _default_lock:
        previous = _default_engine
        _default_engine = engine
    return previous


__all__ = [
    "AuditReport",
    "CacheProvenance",
    "CacheStats",
    "ExchangeEngine",
    "ExchangeResult",
    "LRUCache",
    "OperationStats",
    "ReverseResult",
    "get_default_engine",
    "run_batch_supervised",
    "set_default_engine",
]
