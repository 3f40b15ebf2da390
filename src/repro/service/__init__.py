"""Rewrite-as-a-service: a long-lived daemon over ``rewrite_many``.

The real E9Patch backend is itself a message-driven service — e9tool
streams patch messages into a long-running ``e9patch`` process.  This
package is the reproduction's serving layer: an asyncio HTTP daemon
(unix socket or TCP) that accepts rewrite requests, runs each as one
:func:`~repro.frontend.tool.rewrite_many` call on a bounded worker
pool sharing one artifact store, and degrades gracefully
under load (typed 429 backpressure) and shutdown (SIGTERM drains
in-flight work).

See ``docs/SERVICE.md`` for the API schema and deployment notes.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.server import RewriteService

__all__ = [
    "RewriteService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
]
