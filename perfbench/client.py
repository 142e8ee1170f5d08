"""A minimal HTTP/1.0 client for the load generator.

The portal's ``wsgiref`` server answers one request per connection and
then closes it, so a request is: connect, send, read to EOF.  Raw
sockets keep the generator's own cost per request small (``http.client``
parses headers through the ``email`` package), which leaves more of the
shared CPU to the system under test.
"""

from __future__ import annotations

import json
import socket
from typing import Optional

__all__ = ["request"]


def request(
    addr: tuple[str, int],
    method: str,
    path: str,
    token: str = "",
    body: Optional[dict] = None,
    etag: str = "",
    timeout: float = 10.0,
) -> tuple[int, dict, bytes]:
    """One request; returns ``(status, headers, body)``.

    Header names come back lower-cased.  Raises ``OSError`` on a
    connection failure or timeout.
    """
    lines = [f"{method} {path} HTTP/1.0", f"Host: {addr[0]}:{addr[1]}"]
    if token:
        lines.append(f"Authorization: Bearer {token}")
    if etag:
        lines.append(f"If-None-Match: {etag}")
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
    raw = ("\r\n".join(lines) + "\r\n\r\n").encode() + payload
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, content = b"".join(chunks).partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ", 2)[1])
    headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, content
