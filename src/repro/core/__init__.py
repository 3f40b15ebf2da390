"""Core binary-rewriting engine: tactics, strategy, allocation, grouping.

This is the reproduction of the paper's primary contribution.  A rewrite
runs as staged passes over one
:class:`~repro.core.pipeline.RewriteContext`, whose
:meth:`~repro.core.pipeline.RewriteContext.rewrite` turns patch requests
into a patched binary; the individual pieces (pun math, tactics
B1/B2/T1/T2/T3, reverse-order strategy S1, physical page grouping) live
in their own modules and are unit-testable in isolation.
:mod:`repro.core.observe` provides per-pass wall-time, counters, and
trace hooks.
"""

from repro.core.observe import Observer, TraceHook
from repro.core.pipeline import (
    DecodePass,
    EmitPass,
    GroupPass,
    MatchPass,
    PlanPass,
    RewriteContext,
    RewriteOptions,
    RewriteResult,
    VerifyPass,
)
from repro.core.stats import PatchStats
from repro.core.tactics import Tactic

__all__ = [
    "RewriteOptions",
    "RewriteResult",
    "RewriteContext",
    "Tactic",
    "PatchStats",
    "Observer",
    "TraceHook",
    "DecodePass",
    "MatchPass",
    "PlanPass",
    "GroupPass",
    "EmitPass",
    "VerifyPass",
]
