"""WSGI request/response primitives.

A deliberately small HTTP layer: parse what the portal needs (query
strings, JSON bodies, urlencoded forms, multipart file uploads, cookies)
and render responses (JSON, HTML, plain text, file downloads, redirects)
— nothing more.
"""

from __future__ import annotations

import json
import urllib.parse
from email.parser import BytesParser
from email.policy import HTTP as _HTTP_POLICY
from http.cookies import SimpleCookie
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, Optional

__all__ = ["HttpError", "Request", "Response", "STATUS_REASONS"]

#: ``json.dumps(data, default=str)``'s encoder (separators ``", "`` and
#: ``": "``, ASCII-only, NaN allowed), built once: ``json.dumps`` builds a
#: ``JSONEncoder`` and a C encoder on every call that passes ``default``.
#: Like the bus codec's, it keeps no table of the containers it is inside,
#: so a body that contains itself ends in :class:`RecursionError`.
_ENCODE_JSON = c_make_encoder(None, str, encode_basestring_ascii,
                              None, ": ", ", ", False, False, True)

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: refuse request bodies beyond this size (matches the upload limit).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: default chunk size for streamed request/response bodies.
STREAM_CHUNK_BYTES = 64 * 1024


class HttpError(Exception):
    """Raise anywhere in a handler to produce an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """Parsed view of one WSGI environ."""

    def __init__(self, environ: dict) -> None:
        self.environ = environ
        self.method: str = environ.get("REQUEST_METHOD", "GET").upper()
        self.path: str = environ.get("PATH_INFO", "/") or "/"
        self.content_type: str = environ.get("CONTENT_TYPE", "")
        self._query: Optional[dict[str, str]] = None
        self._body: Optional[bytes] = None
        #: route parameters, filled in by the router
        self.params: dict[str, str] = {}
        #: matched route pattern, filled in by the router (telemetry label)
        self.route: Optional[str] = None
        #: authenticated user, filled in by the app's auth middleware
        self.user = None
        #: the response cache's answer ("hit" or "miss"), when it was asked
        self.cache: Optional[str] = None

    @property
    def query(self) -> dict[str, str]:
        """Query parameters, parsed lazily (hot endpoints rarely need them)."""
        if self._query is None:
            qs = self.environ.get("QUERY_STRING", "")
            if qs:
                self._query = {
                    k: v[-1]
                    for k, v in urllib.parse.parse_qs(qs, keep_blank_values=True).items()
                }
            else:
                self._query = {}
        return self._query

    # -- body ------------------------------------------------------------
    @property
    def body(self) -> bytes:
        """Raw request body (read once, cached)."""
        if self._body is None:
            try:
                length = int(self.environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            if length > MAX_BODY_BYTES:
                raise HttpError(413, f"body of {length} bytes exceeds limit")
            stream = self.environ.get("wsgi.input")
            self._body = stream.read(length) if (stream and length) else b""
        return self._body

    def iter_body(self, chunk_size: int = STREAM_CHUNK_BYTES):
        """Stream the request body in chunks without buffering it whole.

        Yields ``bytes`` of at most ``chunk_size``.  If the body was
        already materialised via :attr:`body`, yields from that buffer;
        otherwise reads straight off ``wsgi.input`` so an upload of N
        bytes never holds more than one chunk in memory.
        """
        if self._body is not None:
            for i in range(0, len(self._body), chunk_size):
                yield self._body[i : i + chunk_size]
            return
        try:
            length = int(self.environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds limit")
        stream = self.environ.get("wsgi.input")
        remaining = length if stream else 0
        while remaining > 0:
            chunk = stream.read(min(chunk_size, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
            yield chunk

    def json(self) -> Any:
        """Parse the body as JSON; 400 on malformed input."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from None

    def json_object(self) -> dict:
        """The JSON body as an object; 400 for an array, a number, a string."""
        body = self.json()
        if not isinstance(body, dict):
            raise HttpError(400, "body must be a JSON object")
        return body

    def form(self) -> dict[str, str]:
        """Parse an ``application/x-www-form-urlencoded`` body."""
        try:
            text = self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HttpError(400, f"malformed form body: {exc}") from None
        return {k: v[-1] for k, v in urllib.parse.parse_qs(text, keep_blank_values=True).items()}

    def multipart(self) -> dict[str, tuple[str, bytes]]:
        """Parse ``multipart/form-data`` uploads.

        Returns ``{field_name: (filename, content)}``; non-file fields
        get an empty filename.
        """
        if "multipart/form-data" not in self.content_type:
            raise HttpError(400, "expected multipart/form-data")
        header = f"Content-Type: {self.content_type}\r\n\r\n".encode()
        msg = BytesParser(policy=_HTTP_POLICY).parsebytes(header + self.body)
        out: dict[str, tuple[str, bytes]] = {}
        for part in msg.iter_parts():
            name = part.get_param("name", header="content-disposition")
            if not name:
                continue
            filename = part.get_filename() or ""
            payload = part.get_payload(decode=True) or b""
            out[name] = (filename, payload)
        return out

    # -- cookies ------------------------------------------------------------
    def cookies(self) -> dict[str, str]:
        """Request cookies as a plain dict."""
        raw = self.environ.get("HTTP_COOKIE", "")
        if not raw:
            return {}
        jar = SimpleCookie()
        jar.load(raw)
        return {k: morsel.value for k, morsel in jar.items()}

    def header(self, name: str, default: str = "") -> str:
        """Request header by natural name (e.g. ``Authorization``)."""
        key = "HTTP_" + name.upper().replace("-", "_")
        return self.environ.get(key, default)

    # -- conditional GET ------------------------------------------------------
    def etag_matches(self, etag: str) -> bool:
        """True when the ``If-None-Match`` header covers ``etag``."""
        inm = self.environ.get("HTTP_IF_NONE_MATCH", "")
        if not inm:
            return False
        if inm.strip() == "*":
            return True
        return etag in (t.strip() for t in inm.split(","))


class Response:
    """Buffered response with convenience constructors."""

    def __init__(
        self,
        body: bytes | str = b"",
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
        headers: Iterable[tuple[str, str]] = (),
    ) -> None:
        self.status = status
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.headers: list[tuple[str, str]] = [("Content-Type", content_type)]
        self.headers.extend(headers)
        #: when set, the WSGI body is this iterator of byte chunks and
        #: :attr:`body` is ignored (bounded-memory downloads).
        self.chunks: Optional[Iterable[bytes]] = None
        #: declared length of the streamed body, when known up front.
        self.content_length: Optional[int] = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def stream(
        cls,
        chunks: Iterable[bytes],
        content_type: str = "application/octet-stream",
        content_length: int | None = None,
        filename: str | None = None,
        headers: Iterable[tuple[str, str]] = (),
    ) -> "Response":
        """A chunk-iterator response: memory stays bounded by chunk size."""
        r = cls(b"", content_type=content_type, headers=headers)
        r.chunks = chunks
        r.content_length = content_length
        if filename is not None:
            r.headers.append(("Content-Disposition", f'attachment; filename="{filename}"'))
        return r

    @classmethod
    def not_modified(cls, headers: Iterable[tuple[str, str]] = ()) -> "Response":
        """An empty 304 carrying the validator headers."""
        return cls(b"", status=304, headers=headers)
    @classmethod
    def json(cls, data: Any, status: int = 200) -> "Response":
        return cls(
            "".join(_ENCODE_JSON(data, 0)),
            status=status,
            content_type="application/json",
        )

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        return cls(markup, status=status, content_type="text/html; charset=utf-8")

    @classmethod
    def redirect(cls, location: str) -> "Response":
        r = cls(b"", status=302)
        r.headers.append(("Location", location))
        return r

    @classmethod
    def download(cls, content: bytes, filename: str) -> "Response":
        r = cls(content, content_type="application/octet-stream")
        r.headers.append(("Content-Disposition", f'attachment; filename="{filename}"'))
        return r

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    # -- cookies ------------------------------------------------------------
    def set_cookie(
        self, name: str, value: str, max_age: int | None = None, http_only: bool = True
    ) -> "Response":
        parts = [f"{name}={value}", "Path=/", "SameSite=Lax"]
        if http_only:
            parts.append("HttpOnly")
        if max_age is not None:
            parts.append(f"Max-Age={max_age}")
        self.headers.append(("Set-Cookie", "; ".join(parts)))
        return self

    def delete_cookie(self, name: str) -> "Response":
        return self.set_cookie(name, "", max_age=0)

    # -- WSGI -----------------------------------------------------------------
    def to_wsgi(self, start_response) -> Iterable[bytes]:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        if self.chunks is not None:
            headers = list(self.headers)
            if self.content_length is not None:
                headers.append(("Content-Length", str(self.content_length)))
            start_response(f"{self.status} {reason}", headers)
            return self.chunks
        if self.status in (204, 304):
            # bodyless statuses: no Content-Length, empty payload
            start_response(f"{self.status} {reason}", list(self.headers))
            return [b""]
        headers = self.headers + [("Content-Length", str(len(self.body)))]
        start_response(f"{self.status} {reason}", headers)
        return [self.body]
