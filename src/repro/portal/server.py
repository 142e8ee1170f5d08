"""HTTP server for the portal: a small pooled WSGI server.

Every request is HTTP/1.0 on a connection of its own: the server reads
one request, answers it and closes the socket, so the response needs no
chunked framing and no keep-alive bookkeeping.  Clients that speak
HTTP/1.1 (``http.client``, browsers) read to the close.

* **Threads are reused.**  The serve loop hands each accepted socket to
  a worker thread parked from an earlier request and starts a new
  worker only when none is idle, so concurrency stays unbounded (a
  request blocked on a long job poll never delays another connection)
  without paying a thread start per request.  :meth:`server_close`
  releases the parked workers.
* **Requests are parsed from one read.**  The connection's first
  ``recv`` normally holds the whole request head; the head is split
  once into lines and the WSGI environ built from them, with the stdlib
  server's limits: a request line over 64 KiB is refused with 414, an
  over-long header line or more than 100 of them with 431.  A head that
  arrives in several writes is read on until its blank line.
  ``wsgi.input`` hands out the bytes read past the head first and then
  reads the socket, so an upload is read as the app consumes it.
* **An accept is one call.**  The serve loop waits in ``accept`` itself
  (with a timeout, to notice a shutdown) instead of in a selector, and
  builds the accepted socket with the listener's family and type
  instead of reading them back.
* **A buffered response is one send.**  The status line and headers go
  out in one buffer together with the first body chunk, which for every
  non-streamed response is the whole body; later chunks of a streamed
  download are written one by one.
* **Deferred work runs after the reply.**  Each worker thread holds one
  :class:`~repro._reply.ReplyScope` and drains it after every request,
  so work the app hands to :func:`~repro._reply.after_reply` (a
  submission's dispatch round and launch) runs on the request's worker
  once the response is sent and the socket closed, before the worker
  parks; a request that defers nothing pays nothing for it.  The client
  is not kept waiting for the work: the worker first yields its CPU, so
  the client the close woke runs before the deferred work.  A callback
  that raises goes to ``handle_error`` without skipping the callbacks
  after it.

The server subclasses :class:`socketserver.TCPServer` and keeps its
hook methods: ``process_request`` runs on the accept thread, and
``process_request_thread`` (which calls ``finish_request`` and then
``shutdown_request``) on the request's worker, each called through
``self`` on every request.  Wrapping them on an instance is how a
tracer times the accept, hand-off, request and close legs; the deferred
work runs outside all of them.
"""

from __future__ import annotations

import re
import socket
import sys
import threading
import time
import urllib.parse
from email.utils import formatdate
from socketserver import TCPServer

from repro._reply import ReplyScope

__all__ = ["serve", "start_background", "start_fleet"]

#: longest request line or header line accepted (bytes, as ``http.server``).
_MAX_LINE = 65536

#: most header lines accepted (as ``http.client``).
_MAX_HEADERS = 100

#: bytes asked of the socket per read: a whole request head, as a rule.
_RECV = 65536

#: the blank line that ends a request head (a line ending is LF or CRLF).
_HEAD_END = re.compile(rb"\n\r?\n")

#: most header names whose environ key a server remembers.
_MAX_HEADER_KEYS = 256

#: the headers CGI names without the ``HTTP_`` prefix; the first one sent wins.
_CONTENT_KEYS = ("CONTENT_TYPE", "CONTENT_LENGTH")

#: statuses whose response never carries a body.
_BODYLESS = ("204", "304")

#: the client hung up mid-request or mid-response: nothing to report.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)


class _Reject(Exception):
    """A request refused before the app sees it."""

    def __init__(self, status: str) -> None:
        super().__init__(status)
        self.status = status


class _Input:
    """``wsgi.input``: the body bytes read with the head, then the socket."""

    __slots__ = ("_sock", "_pending")

    def __init__(self, sock, pending: bytes) -> None:
        self._sock = sock
        self._pending = pending

    def read(self, size: int | None = -1) -> bytes:
        """``size`` bytes (to the end of the stream when negative or None);
        fewer only when the stream ends first."""
        size = -1 if size is None else size
        pending = self._pending
        if 0 <= size <= len(pending):
            self._pending = pending[size:]
            return pending[:size]
        self._pending = b""
        parts, have = [pending], len(pending)
        while size < 0 or have < size:
            chunk = self._sock.recv(_RECV if size < 0 else min(size - have, _RECV))
            if not chunk:
                break
            parts.append(chunk)
            have += len(chunk)
        return b"".join(parts)

    def readline(self, size: int | None = -1) -> bytes:
        """One line, through its ``\\n``; at most ``size`` bytes unless negative."""
        size = -1 if size is None else size
        while b"\n" not in self._pending and (size < 0 or len(self._pending) < size):
            chunk = self._sock.recv(_RECV)
            if not chunk:
                break
            self._pending += chunk
        end = self._pending.find(b"\n") + 1 or len(self._pending)
        return self.read(end if size < 0 else min(end, size))

    def readlines(self, hint: int = -1) -> list:
        return list(self)

    def __iter__(self):
        return iter(self.readline, b"")


class _Worker:
    """A pooled request thread and the slot its next connection arrives in."""

    __slots__ = ("thread", "wake", "job")

    def __init__(self) -> None:
        self.thread: threading.Thread | None = None
        self.wake = threading.Lock()
        self.wake.acquire()  # held until a connection (or close) arrives
        self.job = None


class _Exchange:
    """The response side of one request: ``start_response`` and the socket."""

    __slots__ = ("sock", "date", "status", "headers", "length", "sent")

    def __init__(self, sock, date: str) -> None:
        self.sock = sock
        self.date = date
        self.status: str | None = None
        self.headers = ()
        #: body length to declare when the app did not (single-chunk bodies)
        self.length: int | None = None
        self.sent = False

    def start_response(self, status: str, headers: list, exc_info=None):
        if exc_info is not None:
            try:
                if self.sent:
                    raise exc_info[1].with_traceback(exc_info[2])
            finally:
                exc_info = None
        elif self.status is not None:
            raise AssertionError("start_response called twice")
        self.status, self.headers = status, headers
        return self.write

    def write(self, data: bytes) -> None:
        """Send ``data``, preceded by the status line and headers the first time."""
        if self.sent:
            self.sock.sendall(data)
            return
        if self.status is None:
            raise AssertionError("write before start_response")
        head = f"HTTP/1.0 {self.status}\r\n" + "".join([f"{n}: {v}\r\n" for n, v in self.headers])
        declared = head.lower()
        if "\ndate:" not in declared:
            head += f"Date: {self.date}\r\n"
        if ("\ncontent-length:" not in declared and self.length is not None
                and self.status[:3] not in _BODYLESS):
            head += f"Content-Length: {self.length}\r\n"
        self.sent = True
        self.sock.sendall((head + "\r\n").encode("latin-1") + data)

    def reply(self, status: str, body: bytes) -> None:
        """Answer with a plain-text ``body`` in place of anything unsent."""
        self.status = status
        self.headers = [("Content-Type", "text/plain; charset=utf-8")]
        self.length = len(body)
        self.write(body)


class _PortalServer(TCPServer):
    """Serve one WSGI app; see the module docstring."""

    allow_reuse_address = True

    def __init__(self, server_address: tuple[str, int], app) -> None:
        super().__init__(server_address, None)
        self.app = app
        self.server_port: int = self.server_address[1]
        self._environ_base = {
            "SERVER_NAME": server_address[0],
            "SERVER_PORT": str(self.server_port),
            "SERVER_SOFTWARE": "repro-portal",
            "GATEWAY_INTERFACE": "CGI/1.1",
            "SCRIPT_NAME": "",
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.errors": sys.stderr,
            "wsgi.multithread": True,
            "wsgi.multiprocess": False,
            "wsgi.run_once": False,
        }
        self._date: tuple[int, str] = (0, "")
        #: header name → environ key, for the names seen so far
        self._header_keys: dict[str, str] = {}
        self._lock = threading.Lock()  # guards _parked and _closed
        self._parked: list[_Worker] = []
        self._closed = False
        self._stopping = False
        self._stopped = threading.Event()
        self._stopped.set()

    # -- threads --------------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections and hand each to :meth:`process_request` until
        :meth:`shutdown`.

        The listener waits in ``accept`` itself, up to ``poll_interval``
        seconds at a time, so no selector runs per connection and a
        shutdown is seen within one interval.
        """
        self._stopped.clear()
        self.socket.settimeout(poll_interval)
        try:
            while not self._stopping:
                try:
                    request, client_address = self.get_request()
                except TimeoutError:
                    continue
                except OSError:
                    if self.socket.fileno() < 0:
                        break  # closed under the loop
                    continue
                try:
                    self.process_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                    self.shutdown_request(request)
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stopping = True
        self._stopped.wait()

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a parked worker, or start one if none is idle."""
        with self._lock:
            worker = self._parked.pop() if self._parked else None
        if worker is not None:
            worker.job = (request, client_address)
            worker.wake.release()
            return
        worker = _Worker()
        worker.thread = threading.Thread(
            target=self._work, args=(worker, request, client_address),
            daemon=True, name="portal-http-worker",
        )
        worker.thread.start()

    def _work(self, worker: _Worker, request, client_address) -> None:
        scope = ReplyScope(lambda: self.handle_error(request, client_address))
        with scope:
            while True:
                self.process_request_thread(request, client_address)
                scope.drain()
                request = client_address = None
                with self._lock:
                    if self._closed:
                        return
                    self._parked.append(worker)
                worker.wake.acquire()
                if worker.job is None:
                    return
                (request, client_address), worker.job = worker.job, None

    def process_request_thread(self, request, client_address) -> None:
        """Serve one connection on its worker, then close it."""
        try:
            self.finish_request(request, client_address)
        except _DISCONNECTS:
            pass
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and let every parked worker exit."""
        super().server_close()
        with self._lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for worker in parked:
            worker.wake.release()
        for worker in parked:
            worker.thread.join()

    # -- one connection ---------------------------------------------------------
    def get_request(self) -> tuple:
        """Accept a connection, built with the listener's known family and type.

        The accepted socket blocks: Linux's ``accept4`` does not pass the
        listener's timeout mode on to it.
        """
        fd, client_address = self.socket._accept()
        return socket.socket(self.address_family, self.socket_type, 0, fd), client_address

    def shutdown_request(self, request) -> None:
        """End the response and close the connection."""
        try:
            request.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the client already went
        request.close()

    # -- one request ------------------------------------------------------------
    def finish_request(self, request, client_address) -> None:
        """Read one request off ``request``, run the app and write its response."""
        exchange = _Exchange(request, self._http_date())
        try:
            environ = self._read_request(request, client_address)
        except _Reject as refused:
            exchange.reply(refused.status, refused.status[4:].encode())
            return
        if environ is not None:
            self._run_app(environ, exchange)

    def _read_request(self, sock, client_address) -> dict | None:
        """The WSGI environ of the request on ``sock``; None if the client sent nothing."""
        data = sock.recv(_RECV)
        if not data:
            return None
        head, blank, body = data.partition(b"\n\r\n")
        if not blank or b"\n\n" in head:  # LF line ends, or the head is not all here
            head, body = self._read_head(sock, data)
        environ = self._parse_head(head, len(head) >= _MAX_LINE)
        environ["REMOTE_ADDR"] = client_address[0]
        environ["wsgi.input"] = _Input(sock, body)
        return environ

    def _read_head(self, sock, data: bytes) -> tuple[bytes, bytes]:
        """``(head, body bytes read with it)`` for a head that ``data`` starts:
        read on until its blank line, or until the client stops sending."""
        end = _HEAD_END.search(data)
        while end is None:
            self._refuse_partial(data)
            more = sock.recv(_RECV)
            if not more:
                return data, b""
            data += more
            end = _HEAD_END.search(data, max(0, len(data) - len(more) - 2))
        return data[: end.start()], data[end.end() :]

    def _parse_head(self, head: bytes, long: bool) -> dict:
        """The environ of a request ``head`` (its lines, without the blank
        one); ``long`` when a line of it may be over the limit."""
        lines = head.decode("iso-8859-1").split("\n")
        if long and len(lines[0]) >= _MAX_LINE:
            raise _Reject("414 URI Too Long")
        try:
            method, target, protocol = lines[0].split()
        except ValueError:
            raise _Reject("400 Bad Request") from None
        if protocol[:5] != "HTTP/":
            raise _Reject("400 Bad Request")
        path, _, query = target.partition("?")
        if path[:2] == "//":
            path = "/" + path.lstrip("/")
        environ = self._environ_base.copy()
        environ["REQUEST_METHOD"] = method
        environ["PATH_INFO"] = urllib.parse.unquote(path, "iso-8859-1") if "%" in path else path
        environ["QUERY_STRING"] = query
        environ["SERVER_PROTOCOL"] = protocol
        for n, line in enumerate(lines[1:], 1):
            if n > _MAX_HEADERS or long and len(line) >= _MAX_LINE:
                raise _Reject("431 Request Header Fields Too Large")
            name, colon, value = line.partition(":")
            if not colon:
                raise _Reject("400 Bad Request")
            try:
                key = self._header_keys[name]
            except KeyError:
                key = self._header_key(name)
            value = value.strip()
            if key not in environ:
                environ[key] = value
            elif key not in _CONTENT_KEYS:
                environ[key] += "," + value
        return environ

    def _header_key(self, name: str) -> str:
        """The environ key of header ``name``; 400 for a name that is empty or
        padded with whitespace."""
        if not name or name != name.strip():
            raise _Reject("400 Bad Request")
        key = name.upper().replace("-", "_")
        if key not in _CONTENT_KEYS:
            key = "HTTP_" + key
        if len(self._header_keys) < _MAX_HEADER_KEYS:
            self._header_keys[name] = key
        return key

    def _refuse_partial(self, data: bytes) -> None:
        """Refuse a request head still arriving that the limits already rule out.

        The line still arriving is over-long, or more header lines came than
        are allowed: parsing what came so far meets the refusal in the same
        order as parsing a whole head would.
        """
        start = data.rfind(b"\n") + 1
        if len(data) - start >= _MAX_LINE or data.count(b"\n") > _MAX_HEADERS + 1:
            self._parse_head(data, True)  # raises
            raise _Reject("431 Request Header Fields Too Large")

    def _run_app(self, environ: dict, exchange: _Exchange) -> None:
        try:
            result = self.app(environ, exchange.start_response)
            if type(result) in (list, tuple) and len(result) == 1:  # a buffered body
                exchange.length = len(result[0])
                exchange.write(result[0])
                return
            try:
                for chunk in result:
                    if chunk:
                        exchange.write(chunk)
                if not exchange.sent:
                    exchange.write(b"")
            finally:
                close = getattr(result, "close", None)
                if close is not None:
                    close()
        except Exception:
            if not exchange.sent:
                exchange.reply("500 Internal Server Error", b"A server error occurred.")
            raise

    def _http_date(self) -> str:
        """The ``Date`` header value, formatted once per second."""
        now = int(time.time())
        stamp, text = self._date
        if stamp != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text


def serve(app, host: str = "127.0.0.1", port: int = 8080):
    """Serve ``app`` forever (Ctrl-C to stop)."""
    httpd = _PortalServer((host, port), app)
    print(f"Cluster portal listening on http://{host}:{httpd.server_port}/")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()


def start_background(app, host: str = "127.0.0.1", port: int = 0):
    """Start the server on a daemon thread; returns ``(httpd, base_url)``.

    ``port=0`` picks a free port — used by the live-HTTP integration
    tests and the quickstart example.  Stop it with ``httpd.shutdown()``
    and then ``httpd.server_close()``.
    """
    httpd = _PortalServer((host, port), app)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True, name="portal-http")
    thread.start()
    return httpd, f"http://{host}:{httpd.server_port}"


def start_fleet(workers, host: str = "127.0.0.1"):
    """Serve every front-end worker of a fleet on its own port.

    Returns ``[(httpd, base_url), ...]`` in worker order — hand the
    URLs to a load balancer (or round-robin clients directly, as the
    load harness does).  Start the fleet's back-end service first:
    ``fleet.start(); servers = start_fleet(fleet.workers)``.
    """
    return [start_background(worker, host=host) for worker in workers]
