"""A reentrant rewrite engine: resolve configuration once, serve many.

The one-shot CLI builds its configuration from flags and environment
variables every invocation; a long-lived process (the service daemon,
an embedding tool) must not — two requests racing through one process
should share nothing but the artifact store, and nothing on the request
path may consult ``os.environ`` or module globals.

:class:`RewriteEngine` is that contract made explicit:

* an :class:`EngineConfig` freezes the frontend choice, the
  :class:`~repro.core.cache.CacheConfig`, and the
  :class:`~repro.core.parallel.ExecutorConfig` at construction;
* one :class:`~repro.core.cache.ArtifactStore` (concurrency-safe) is
  shared by every request;
* :meth:`RewriteEngine.rewrite` is stateless per request — a fresh
  :class:`~repro.core.observe.Observer`, a fresh
  :class:`~repro.core.pipeline.RewriteContext`, a fresh allocator —
  so N threads rewriting the same or different binaries produce
  byte-identical outputs to N serial one-shot runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import ArtifactStore, CacheConfig
from repro.core.observe import Observer
from repro.core.parallel import ExecutorConfig
from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import InstrumentReport, RewriteConfig, rewrite_many

__all__ = ["EngineConfig", "RewriteEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything a long-lived engine resolves exactly once.

    ``cache=None`` disables the artifact store entirely;
    ``executor`` defaults to a fresh ``$REPRO_JOBS`` resolution *at
    config construction* — the only moment the environment is read.
    The executor serves double duty: batches wide enough fan out one
    process per configuration, and a single large binary fans its
    *decode* out across the same workers (chunked linear sweep with
    boundary reconciliation — see ``docs/PERF.md``).
    """

    frontend: str = "linear"
    cache: CacheConfig | None = None
    executor: ExecutorConfig = field(default_factory=ExecutorConfig.from_env)
    cache_outputs: bool = False


class RewriteEngine:
    """Shared-nothing-but-the-store rewrite engine.

    Safe to call from many threads concurrently: the engine owns only
    immutable configuration and the concurrency-safe
    :class:`ArtifactStore`; every mutable pipeline object is created per
    request.
    """

    def __init__(self, config: EngineConfig | None = None, *,
                 store: ArtifactStore | None = None) -> None:
        self.config = config or EngineConfig()
        if store is not None:
            self.store = store
        elif self.config.cache is not None:
            self.store = ArtifactStore(config=self.config.cache)
        else:
            self.store = None

    def rewrite(
        self,
        data: bytes,
        *,
        matcher: str = "jumps",
        instrumentation: str | None = None,
        options: RewriteOptions | None = None,
        frontend: str | None = None,
        observer: Observer | None = None,
    ) -> InstrumentReport:
        """One stateless rewrite request.

        *matcher* is a named matcher or a match expression; *observer*
        defaults to a fresh per-request instance so concurrent requests
        never share timing accumulators.
        """
        return rewrite_many(
            bytes(data),
            [RewriteConfig(matcher=matcher, instrumentation=instrumentation,
                           options=options)],
            frontend=frontend or self.config.frontend,
            observer=observer or Observer(),
            jobs=self.config.executor,
            cache=self.store,
            cache_outputs=self.config.cache_outputs,
        )[0]
