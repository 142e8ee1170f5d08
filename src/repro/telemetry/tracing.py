"""Span trees with explicit-context propagation.

A :class:`Span` is one timed operation; its children are sub-operations.
Nothing records spans as it runs.  Portal requests are kept as flat
tuples in a bounded ring (:class:`~repro.telemetry.instruments.PortalTelemetry`),
not as span trees.  Job traces are not recorded either: the
distributor already stamps every lifecycle
timestamp on the job object, so
:meth:`DispatchTelemetry.job_trace` derives the span tree (root ``job``
with ``queue_wait`` and per-``attempt`` children — retries appear as
sibling attempt spans, mirroring the PR 3 attempt lineage) on demand,
at zero cost to the dispatch hot path.

Context is propagated *explicitly*: callers hold the span object and
pass it where it is needed.  There are deliberately no thread-locals —
the DES simulator runs thousands of interleaved virtual timelines on
one thread, so ambient context would attribute children to whichever
trace touched the thread last.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Span"]


class Span:
    """One timed operation inside a trace.

    ``end is None`` means still open.  Attribute dict and child list are
    created lazily so short-lived spans on hot paths cost one small
    object.
    """

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[dict] = None
        self.children: Optional[list["Span"]] = None

    def child(self, name: str, start: float, end: Optional[float] = None) -> "Span":
        """Open (or record a fully-formed) sub-span."""
        span = Span(name, start)
        span.end = end
        if self.children is None:
            self.children = []
        self.children.append(span)
        return span

    def set(self, **attrs) -> "Span":
        """Attach key/value annotations (cache outcome, node names, …)."""
        if self.attrs is None:
            self.attrs = attrs  # the kwargs dict is fresh — adopt it
        else:
            self.attrs.update(attrs)
        return self

    def finish(self, t: float) -> "Span":
        self.end = t
        return self

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-ready recursive view (the /debug/trace payload)."""
        out: dict = {"name": self.name, "start": self.start, "end": self.end}
        if self.end is not None:
            out["duration_s"] = self.end - self.start
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

