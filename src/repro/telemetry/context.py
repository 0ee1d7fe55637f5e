"""Distributed trace identity: one trace across every process of a run.

The flow spans up to four process tiers — the service supervisor, the
worker subprocess it launches, the multi-chain coordinator's chain
workers, and the router fan-out pool — and a retried job adds a second
worker attempt resumed from a checkpoint.  A :class:`TraceContext` is
the identity that survives all of it: a W3C-traceparent-style triple of
``trace_id`` (16 bytes hex, minted once per logical run), ``span_id``
(8 bytes hex, one per process hop), and ``flags``.

Propagation is deliberately boring:

* **env** — :data:`TRACEPARENT_ENV` carries the serialized header
  across ``subprocess.Popen`` (the supervisor stamps it into the worker
  environment) and across ``fork`` (chain and router workers inherit
  it for free);
* **checkpoint** — the checkpoint payload records the trace id, so a
  ``resume`` — manual or a supervisor retry — continues the *same*
  trace instead of minting a new one;
* **events** — every tracer event (and so every heartbeat folded from
  them), events.jsonl journal line, and registry run row is stamped
  with ``trace_id``; tracer events via ``Tracer.set_context``.

The header format is the W3C one (``00-<trace>-<span>-<flags>``) so any
external tooling that speaks traceparent can join our traces.
"""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

#: Environment variable the context rides across process boundaries.
TRACEPARENT_ENV = "REPRO_TRACEPARENT"

#: The one traceparent version we emit.
_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace (immutable)."""

    trace_id: str
    span_id: str
    flags: int = 1

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[0-9a-f]{32}", self.trace_id):
            raise ValueError(f"trace_id must be 32 hex chars: {self.trace_id!r}")
        if not re.fullmatch(r"[0-9a-f]{16}", self.span_id):
            raise ValueError(f"span_id must be 16 hex chars: {self.span_id!r}")
        if not 0 <= self.flags <= 0xFF:
            raise ValueError(f"flags out of range: {self.flags!r}")

    # -- serialization ------------------------------------------------------

    def to_traceparent(self) -> str:
        """The W3C ``version-traceid-spanid-flags`` header."""
        return f"{_VERSION}-{self.trace_id}-{self.span_id}-{self.flags:02x}"

    @staticmethod
    def parse(header: str) -> Optional["TraceContext"]:
        """Parse a traceparent header; None when malformed (propagation
        must degrade to a fresh trace, never crash the flow)."""
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        _, trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return TraceContext(trace_id, span_id, int(flags, 16))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "flags": self.flags,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> Optional["TraceContext"]:
        try:
            return TraceContext(
                str(data["trace_id"]),
                str(data.get("span_id") or new_span_id()),
                int(data.get("flags", 1)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # -- hops ---------------------------------------------------------------

    def child(self) -> "TraceContext":
        """The next hop: same trace, fresh span id (called once per
        process or attempt so each hop is distinguishable)."""
        return replace(self, span_id=new_span_id())

    def env(self, environ: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
        """A subprocess environment carrying this context (a copy of
        ``environ``, default ``os.environ``, with the header set)."""
        out = dict(os.environ if environ is None else environ)
        out[TRACEPARENT_ENV] = self.to_traceparent()
        return out


def new_trace_id() -> str:
    return secrets.token_hex(16)


def new_span_id() -> str:
    return secrets.token_hex(8)


def mint_context(flags: int = 1) -> TraceContext:
    """A brand-new trace (the root hop): called at ``place`` /
    ``service submit`` — everywhere a logical run is born."""
    return TraceContext(new_trace_id(), new_span_id(), flags)


def context_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[TraceContext]:
    """The context a parent process handed us (None outside any trace)."""
    header = (os.environ if environ is None else environ).get(TRACEPARENT_ENV)
    if not header:
        return None
    return TraceContext.parse(header)


def inherit_or_mint(
    environ: Optional[Mapping[str, str]] = None,
) -> TraceContext:
    """The standard entry-point resolution: continue the trace a parent
    propagated via env (as a fresh child hop), else mint a new one."""
    parent = context_from_env(environ)
    if parent is not None:
        return parent.child()
    return mint_context()
