"""URL routing with typed path parameters — O(1) on the static fast path.

Patterns use ``<name>`` for one whole path segment::

    router.add("GET", "/api/jobs/<job_id>/output", handler)

A parameter must fill its segment, and ``<path:name>`` (a parameter
spanning slashes) is not supported: endpoints that take a file path, like
the file manager's, read it from ``?path=`` instead.  :meth:`Router.add`
raises ``ValueError`` for either form.

Dispatch is tiered, compiled once at registration time:

1. **static** — parameterless patterns live in an exact-path hash map:
   one dict lookup per request, no regex, no garbage;
2. **dynamic** — segment-parameter patterns are bucketed by segment
   count, so a request only ever probes routes that could match its
   shape; matching is plain string comparison per segment.

405 semantics: ``allowed`` methods are computed only after both tiers
miss for the request method, so a method mismatch in one tier can never
shadow a genuine match in the other.

A handler declares its JSON body's fields as annotated keyword-only
parameters (``def rename(req, *, path: str, new_name: str)``), checked by
a :class:`~repro.wire.Fields` codec built at :meth:`Router.add`: a body
that is not an object, a missing field or a wrongly typed one answers
400.  Other keys are ignored, or passed to a ``**rest`` parameter.
"""

from __future__ import annotations

import inspect
import re
from typing import Callable, Optional

from repro.portal.http import HttpError, Request, Response
from repro.wire import Fields

__all__ = ["Router"]

Handler = Callable[[Request], Response]

_PARAM = re.compile(r"<(?:(path):)?([a-zA-Z_][a-zA-Z0-9_]*)>")

#: sentinel kinds for compiled dynamic segments
_LIT, _VAR = 0, 1


class _Route:
    """One registered pattern, pre-compiled to its segments."""

    __slots__ = ("pattern", "methods", "segs")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.methods: dict[str, Handler] = {}
        self.segs: list[tuple[int, str]] = []
        for seg in pattern.split("/"):
            m = _PARAM.fullmatch(seg)
            if m is None:
                if _PARAM.search(seg):
                    raise ValueError(
                        f"route {pattern!r}: a parameter must fill its whole segment"
                    )
                self.segs.append((_LIT, seg))
            elif m.group(1) == "path":
                raise ValueError(
                    f"route {pattern!r}: <path:> parameters are not supported; "
                    "take the path from the query string"
                )
            else:
                self.segs.append((_VAR, m.group(2)))

    @property
    def is_static(self) -> bool:
        return all(kind == _LIT for kind, _ in self.segs)

    def match(self, segs: list[str]) -> Optional[dict[str, str]]:
        """Path parameters if the split request path matches, else None."""
        if len(segs) != len(self.segs):
            return None
        params: dict[str, str] = {}
        for (kind, val), seg in zip(self.segs, segs):
            if kind == _LIT:
                if seg != val:
                    return None
            else:
                if not seg:
                    return None  # segment params never match empty
                params[val] = seg
        return params


def _with_body(handler: Callable[..., Response]) -> Handler:
    """``handler``, called with its keyword-only parameters from the JSON body."""
    params = inspect.signature(handler).parameters.values()
    body = Fields.of_parameters(handler, [p for p in params if p.kind is p.KEYWORD_ONLY])
    if not body.names:
        return handler
    rest = any(p.kind is p.VAR_KEYWORD for p in params)

    def checked(request: Request) -> Response:
        data = request.json_object()
        try:
            fields = body.decode(data)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        extra = {k: v for k, v in data.items() if k not in body.names} if rest else {}
        return handler(request, **extra, **fields)

    return checked


class Router:
    """Method+path dispatch table with tiered, pre-indexed matching."""

    def __init__(self) -> None:
        self._all: dict[str, _Route] = {}  # pattern -> route (registration order)
        self._static: dict[str, _Route] = {}  # exact path -> route
        self._by_count: dict[int, list[_Route]] = {}  # n_segments -> routes
        #: observability: hits per dispatch tier (static vs everything else)
        self.counters = {"routed_static": 0, "routed_dynamic": 0}

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method pattern``.

        Raises ``ValueError`` for a duplicate route, a parameter inside a
        segment, or a ``<path:>`` parameter.
        """
        route = self._all.get(pattern)
        if route is None:
            route = _Route(pattern)
            self._all[pattern] = route
            if route.is_static:
                self._static[pattern] = route
            else:
                self._by_count.setdefault(len(route.segs), []).append(route)
        method = method.upper()
        if method in route.methods:
            raise ValueError(f"duplicate route {method} {pattern}")
        route.methods[method] = _with_body(handler)

    def route(self, method: str, pattern: str):
        """Decorator flavour of :meth:`add`."""

        def deco(fn: Handler) -> Handler:
            self.add(method, pattern, fn)
            return fn

        return deco

    def dispatch(self, request: Request) -> Response:
        """Match and call; 404 on no path match, 405 on wrong method."""
        path = request.path
        method = request.method
        counters = self.counters

        # tier 1: exact path, one dict probe, no allocation
        route = self._static.get(path)
        if route is not None:
            handler = route.methods.get(method)
            if handler is not None:
                counters["routed_static"] += 1
                request.route = route.pattern
                return handler(request)

        # tier 2: shape-bucketed dynamic routes
        segs = path.split("/")
        for candidate in self._by_count.get(len(segs), ()):
            handler = candidate.methods.get(method)
            if handler is None:
                continue  # method mismatch must not shadow a later match
            params = candidate.match(segs)
            if params is not None:
                counters["routed_dynamic"] += 1
                request.params = params
                request.route = candidate.pattern
                return handler(request)

        # miss: only now pay for the 405/404 distinction
        allowed: set[str] = set()
        for candidate in self._all.values():
            if candidate.match(segs) is not None:
                allowed |= set(candidate.methods)
        if allowed:
            raise HttpError(
                405, f"method {request.method} not allowed (try {', '.join(sorted(allowed))})"
            )
        raise HttpError(404, f"no route for {request.path}")
