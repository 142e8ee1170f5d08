"""Thread-safe LRU response cache with namespace generations.

The portal's hot read endpoints (cluster status, job-output polls,
directory listings, the dashboard) serve the same bytes to every poller
until something actually changes.  This cache stores the rendered
response body plus its ETag, keyed by ``(namespace, generation, key)``:

* **namespace** groups entries that share an invalidation cause — one
  per user's file tree (``files:<user>``), one for cluster state, one
  for job output;
* **generation** is a monotonically increasing counter per namespace.
  :meth:`invalidate` just bumps it — O(1), no scan — and every entry
  stored under the old generation becomes unreachable, aging out of the
  LRU naturally;
* **key** is whatever identifies the response within the namespace
  (path, query, version counters).

Mutation hooks (``FileManager.on_mutation``, job-state transitions via
the distributor's ``version``) call :meth:`invalidate`; readers call
:meth:`lookup`/:meth:`store`.

One namespace is never invalidated: ``sealed`` holds a finished job's
describe and output pages, pushed by the back end at the job's seal and
keyed by ``(page kind, job id, owner)``.  A sealed job never changes
again, so those bytes stay right for good; the portal probes them with
:meth:`peek` (a miss is not counted: the read's fallback does its own
lookup), and an entry the LRU evicts falls back to the port path.

All operations are O(1) under one lock —
the critical section is a dict probe and an LRU pointer move, so even
under heavy concurrent polling the lock is never held across I/O or
serialisation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.portal.http import Response

__all__ = ["CachedResponse", "ResponseCache", "cached", "conditional_get", "serve"]


class CachedResponse:
    """One rendered response: body bytes + validators + content type."""

    __slots__ = ("body", "etag", "content_type", "headers")

    def __init__(
        self,
        body: bytes,
        etag: str,
        content_type: str,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.body = body
        self.etag = etag
        self.content_type = content_type
        self.headers = headers


class ResponseCache:
    """Bounded LRU of :class:`CachedResponse` with O(1) invalidation.

    ``capacity`` of 0 disables the cache entirely (every lookup misses,
    stores are dropped) — used to benchmark the uncached baseline.
    """

    def __init__(self, capacity: int = 256, max_body_bytes: int = 256 * 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.max_body_bytes = max_body_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CachedResponse]" = OrderedDict()
        self._gens: dict[str, int] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._stale_drops = 0

    def bind(self, registry) -> None:
        """Export the cache's counters through a metrics registry.

        Callback-derived (read at scrape time), so the lookup/store hot
        paths keep their plain-int accounting untouched.
        """
        if not registry.enabled:
            return
        registry.counter(
            "repro_respcache_hits_total", "response-cache lookups served"
        ).set_fn(lambda: self._hits)
        registry.counter(
            "repro_respcache_misses_total", "response-cache lookups missed"
        ).set_fn(lambda: self._misses)
        registry.counter(
            "repro_respcache_invalidations_total", "namespace generation bumps"
        ).set_fn(lambda: self._invalidations)
        registry.counter(
            "repro_respcache_stale_drops_total",
            "stores dropped because an invalidation raced the render",
        ).set_fn(lambda: self._stale_drops)
        registry.gauge(
            "repro_respcache_entries", "entries currently cached"
        ).set_fn(lambda: len(self._entries))

    # -- invalidation ----------------------------------------------------------
    def generation(self, namespace: str) -> int:
        with self._lock:
            return self._gens.get(namespace, 0)

    def invalidate(self, namespace: str) -> None:
        """Expire every entry of ``namespace`` in O(1)."""
        with self._lock:
            self._gens[namespace] = self._gens.get(namespace, 0) + 1
            self._invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gens.clear()

    # -- lookup/store -----------------------------------------------------------
    def lookup(self, namespace: str, key: Hashable) -> Optional[CachedResponse]:
        return self.lookup_versioned(namespace, key)[0]

    def peek(self, namespace: str, key: Hashable) -> Optional[CachedResponse]:
        """Like :meth:`lookup`, but a miss is not counted.

        For a probe with a fallback that does its own :meth:`lookup`: a
        request then counts one hit or one miss, never two lookups.
        """
        with self._lock:
            full = (namespace, self._gens.get(namespace, 0), key)
            entry = self._entries.get(full)
            if entry is not None:
                self._entries.move_to_end(full)
                self._hits += 1
            return entry

    def lookup_versioned(
        self, namespace: str, key: Hashable
    ) -> tuple[Optional[CachedResponse], int]:
        """Like :meth:`lookup`, plus the generation observed at probe time.

        Pass that generation back to :meth:`store` after rendering a
        miss: the store is then dropped if an invalidation landed while
        the body was being built, instead of resurrecting stale bytes
        under the *new* generation.
        """
        with self._lock:
            gen = self._gens.get(namespace, 0)
            full = (namespace, gen, key)
            entry = self._entries.get(full)
            if entry is None:
                self._misses += 1
                return None, gen
            self._entries.move_to_end(full)
            self._hits += 1
            return entry, gen

    def store(
        self,
        namespace: str,
        key: Hashable,
        entry: CachedResponse,
        generation: Optional[int] = None,
    ) -> bool:
        """Insert unless disabled, oversized, or built under a stale generation.

        ``generation`` is the value :meth:`lookup_versioned` returned
        when the caller missed.  Without it (legacy callers) the store
        lands under whatever generation is current — which can resurrect
        an entry rendered from pre-invalidation state if a writer raced
        the populate; every portal path therefore passes it.
        """
        if self.capacity == 0 or len(entry.body) > self.max_body_bytes:
            return False
        with self._lock:
            current = self._gens.get(namespace, 0)
            if generation is not None and generation != current:
                # an invalidation raced the render: the body may predate
                # the mutation, so it must not become visible now.
                self._stale_drops += 1
                return False
            full = (namespace, current, key)
            self._entries[full] = entry
            self._entries.move_to_end(full)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    # -- observability ------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "stale_drops": self._stale_drops,
            }


def cached(resp: Response) -> CachedResponse:
    """``resp``'s cache entry: its body, content type, other headers and ETag."""
    etag = f'"{hashlib.blake2b(resp.body, digest_size=8).hexdigest()}"'
    # Content-Type is always first
    return CachedResponse(resp.body, etag, resp.headers[0][1], tuple(resp.headers[1:]))


def serve(entry: CachedResponse, counters, req) -> Response:
    """A cache hit's answer: a 304 when ``If-None-Match`` covers its ETag."""
    if req.etag_matches(entry.etag):
        counters["not_modified"].inc()
        return Response.not_modified(headers=(("ETag", entry.etag),))
    return Response(
        entry.body,
        content_type=entry.content_type,
        headers=(*entry.headers, ("ETag", entry.etag)),
    )


def conditional_get(cache, counters, req, namespace: str, key, build) -> "Response":
    """Serve a cacheable GET with an ETag, honouring ``If-None-Match``.

    The conditional-GET engine behind :class:`~repro.portal.app.PortalApp`,
    in the monolith and in every scale-out worker alike: probe the cache,
    serve a 304 or the stored body on a hit; on a miss render via
    ``build()`` and store the result *under the generation observed at
    probe time* so a racing invalidation can never be overwritten by a
    stale render.  ``counters`` maps ``cache_hits`` / ``cache_misses`` /
    ``not_modified`` to counter children (the portal telemetry dict).
    """
    entry, gen = cache.lookup_versioned(namespace, key)
    if entry is not None:
        counters["cache_hits"].inc()
        req.cache = "hit"
        return serve(entry, counters, req)
    counters["cache_misses"].inc()
    req.cache = "miss"
    resp = build()
    if resp.status == 200 and resp.chunks is None:
        entry = cached(resp)
        cache.store(namespace, key, entry, generation=gen)
        return serve(entry, counters, req)
    return resp
