"""The portal's HTTP server over real sockets (``repro.portal.server``)."""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.portal.http import Request, Response
from repro.portal.server import serve, start_background


def _echo(environ, start_response):
    """Answer with the parts of the environ the tests look at."""
    keys = ("REQUEST_METHOD", "PATH_INFO", "QUERY_STRING", "CONTENT_LENGTH", "CONTENT_TYPE")
    seen = {k: environ.get(k) for k in keys}
    seen.update({k: v for k, v in environ.items() if k.startswith("HTTP_")})
    return Response.json(seen).to_wsgi(start_response)


@pytest.fixture
def start():
    """Start a server for an app; every server started is stopped afterwards."""
    servers = []

    def start(app):
        httpd, _ = start_background(app)
        servers.append(httpd)
        return httpd

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


def _exchange(httpd, raw: bytes) -> tuple[int, dict, bytes]:
    """Send ``raw`` on a fresh connection and read the response to the close."""
    chunks = []
    with socket.create_connection(httpd.server_address, timeout=10) as sock:
        sock.sendall(raw)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # the server closed with part of an over-long request unread
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def _exchange_in_writes(httpd, *parts: bytes) -> tuple[int, dict, bytes]:
    """Like :func:`_exchange`, sending ``parts`` in separate writes with a pause."""
    with socket.create_connection(httpd.server_address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i, part in enumerate(parts):
            if i:
                time.sleep(0.05)  # the server has read what came so far
            sock.sendall(part)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


def _get(httpd, path: str, headers: str = "") -> tuple[int, dict, bytes]:
    return _exchange(httpd, f"GET {path} HTTP/1.0\r\n{headers}\r\n".encode())


def _reset_on_close(sock: socket.socket) -> None:
    """Make ``close()`` send a TCP reset, as a client that crashed would."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def _watch_connections(httpd) -> threading.Semaphore:
    """Released each time the server has finished with a connection."""
    done = threading.Semaphore(0)
    orig = httpd.shutdown_request

    def shutdown_request(request):
        orig(request)
        done.release()

    httpd.shutdown_request = shutdown_request
    return done


def _record_errors(httpd) -> list:
    errors: list = []
    httpd.handle_error = lambda request, client_address: errors.append(client_address)
    return errors


class TestRequestParsing:
    def test_malformed_request_line_gets_400(self, start):
        httpd = start(_echo)
        assert _exchange(httpd, b"NONSENSE\r\n\r\n")[0] == 400
        assert _exchange(httpd, b"GET / SPDY/3\r\n\r\n")[0] == 400
        assert _get(httpd, "/")[0] == 200

    def test_header_line_without_colon_gets_400(self, start):
        httpd = start(_echo)
        assert _get(httpd, "/", "no colon here\r\n")[0] == 400

    def test_overlong_request_line_gets_414(self, start):
        httpd = start(_echo)
        status, _, body = _get(httpd, "/" + "a" * 70_000)
        assert status == 414 and body == b"URI Too Long"

    def test_more_than_100_headers_gets_431(self, start):
        httpd = start(_echo)
        hundred = "".join(f"X-H{i}: v{i}\r\n" for i in range(100))
        status, _, body = _get(httpd, "/", hundred)
        assert status == 200 and json.loads(body)["HTTP_X_H99"] == "v99"
        assert _get(httpd, "/", hundred + "X-One-Too-Many: v\r\n")[0] == 431

    def test_overlong_header_line_gets_431(self, start):
        httpd = start(_echo)
        assert _get(httpd, "/", "X-Big: " + "b" * 70_000 + "\r\n")[0] == 431

    def test_repeated_headers_are_joined_with_commas(self, start):
        httpd = start(_echo)
        status, _, body = _get(httpd, "/", "X-Tag: a\r\nX-Tag: b \r\nAccept: */*\r\n")
        seen = json.loads(body)
        assert status == 200
        assert seen["HTTP_X_TAG"] == "a,b" and seen["HTTP_ACCEPT"] == "*/*"

    def test_percent_encoded_path_reaches_path_info_decoded(self, start):
        httpd = start(_echo)
        _, _, body = _get(httpd, "/api/files/my%20lab%2Fmain.c?name=a%20b")
        seen = json.loads(body)
        assert seen["PATH_INFO"] == "/api/files/my lab/main.c"
        assert seen["QUERY_STRING"] == "name=a%20b"  # the app decodes the query itself

    def test_a_head_in_two_writes_is_read_whole(self, start):
        httpd = start(_echo)
        status, _, body = _exchange_in_writes(
            httpd, b"GET /split?q=1 HTTP/1.0\r\n", b"X-Late: yes\r\nAccept: */*\r\n\r\n")
        seen = json.loads(body)
        assert status == 200 and seen["PATH_INFO"] == "/split" and seen["QUERY_STRING"] == "q=1"
        assert seen["HTTP_X_LATE"] == "yes" and seen["HTTP_ACCEPT"] == "*/*"

    def test_a_body_split_across_writes_is_read_to_its_length(self, start):
        def app(environ, start_response):
            return Response(Request(environ).body).to_wsgi(start_response)

        httpd = start(app)
        head = b"POST /x HTTP/1.0\r\nContent-Type: text/plain\r\nContent-Length: 11\r\n\r\n"
        status, _, body = _exchange_in_writes(httpd, head + b"hello", b" world")
        assert status == 200 and body == b"hello world"

    def test_content_headers_keep_their_cgi_names(self, start):
        httpd = start(_echo)
        raw = (b"POST /x HTTP/1.0\r\nContent-Type: application/json\r\n"
               b"Content-Length: 2\r\n\r\n{}")
        seen = json.loads(_exchange(httpd, raw)[2])
        assert seen["REQUEST_METHOD"] == "POST"
        assert seen["CONTENT_TYPE"] == "application/json" and seen["CONTENT_LENGTH"] == "2"
        assert "HTTP_CONTENT_TYPE" not in seen and "HTTP_CONTENT_LENGTH" not in seen


class TestResponses:
    def test_buffered_response_declares_length_and_date(self, start):
        httpd = start(_echo)
        status, headers, body = _get(httpd, "/")
        assert status == 200 and int(headers["content-length"]) == len(body)
        assert headers["date"].endswith(" GMT")

    def test_list_body_without_length_gets_one(self, start):
        def app(environ, start_response):
            start_response("200 OK", [("Content-Type", "text/plain")])
            return [b"hello"]

        httpd = start(app)
        _, headers, body = _get(httpd, "/")
        assert body == b"hello" and headers["content-length"] == "5"

    def test_not_modified_has_no_length(self, start):
        def app(environ, start_response):
            return Response.not_modified([("ETag", '"v1"')]).to_wsgi(start_response)

        httpd = start(app)
        status, headers, body = _get(httpd, "/")
        assert status == 304 and body == b"" and "content-length" not in headers
        assert headers["etag"] == '"v1"'

    def test_streamed_download_arrives_whole(self, start):
        chunk = bytes(range(256)) * 256  # 64 KiB
        n_chunks = 20

        def app(environ, start_response):
            resp = Response.stream((chunk for _ in range(n_chunks)),
                                   content_length=len(chunk) * n_chunks, filename="out.bin")
            return resp.to_wsgi(start_response)

        httpd = start(app)
        conn = http.client.HTTPConnection(*httpd.server_address, timeout=10)
        try:
            conn.request("GET", "/download")
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        assert resp.status == 200
        assert int(resp.getheader("Content-Length")) == len(chunk) * n_chunks
        assert body == chunk * n_chunks

    def test_post_body_larger_than_one_read_reaches_the_app(self, start):
        def app(environ, start_response):
            req = Request(environ)
            digest = hashlib.sha256()
            size = 0
            for part in req.iter_body():
                digest.update(part)
                size += len(part)
            return Response.json({"size": size, "sha256": digest.hexdigest()}).to_wsgi(
                start_response)

        payload = bytes(i % 251 for i in range(3 * 1024 * 1024 + 17))
        httpd = start(app)
        conn = http.client.HTTPConnection(*httpd.server_address, timeout=30)
        try:
            conn.request("POST", "/upload", body=payload,
                         headers={"Content-Type": "application/octet-stream"})
            resp = conn.getresponse()
            got = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 200
        assert got == {"size": len(payload), "sha256": hashlib.sha256(payload).hexdigest()}


class TestErrors:
    def test_a_connection_closed_before_its_first_byte_gets_nothing(self, start, capsys):
        httpd = start(_echo)
        done = _watch_connections(httpd)
        errors = _record_errors(httpd)
        with socket.create_connection(httpd.server_address, timeout=10) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1024) == b""  # closed without a response
        assert done.acquire(timeout=10)
        assert errors == [] and capsys.readouterr().err == ""
        assert _get(httpd, "/")[0] == 200

    def test_app_that_raises_gets_500_and_the_server_keeps_serving(self, start, capsys):
        def app(environ, start_response):
            if environ["PATH_INFO"] == "/boom":
                raise ZeroDivisionError("handler bug")
            return _echo(environ, start_response)

        httpd = start(app)
        done = _watch_connections(httpd)
        status, _, body = _get(httpd, "/boom")
        assert status == 500 and body == b"A server error occurred."
        assert done.acquire(timeout=10)
        assert "ZeroDivisionError: handler bug" in capsys.readouterr().err
        assert _get(httpd, "/fine")[0] == 200

    def test_client_reset_mid_request_is_dropped_quietly(self, start, capsys):
        reading = threading.Event()

        def app(environ, start_response):
            reading.set()
            body = Request(environ).body  # the client resets before sending it all
            return Response(body).to_wsgi(start_response)

        httpd = start(app)
        done = _watch_connections(httpd)
        errors = _record_errors(httpd)
        sock = socket.create_connection(httpd.server_address, timeout=10)
        _reset_on_close(sock)
        sock.sendall(b"POST /upload HTTP/1.0\r\nContent-Length: 1000000\r\n\r\npartial")
        assert reading.wait(10)
        sock.close()
        assert done.acquire(timeout=10)
        assert errors == [] and capsys.readouterr().err == ""
        assert _get(httpd, "/")[0] == 200

    def test_client_reset_mid_response_is_dropped_quietly(self, start, capsys):
        sending = threading.Event()

        def chunks():
            sending.set()
            for _ in range(100_000):  # far more than the socket buffers hold
                yield b"x" * 65536

        def app(environ, start_response):
            if environ["PATH_INFO"] != "/download":
                return _echo(environ, start_response)
            return Response.stream(chunks()).to_wsgi(start_response)

        httpd = start(app)
        done = _watch_connections(httpd)
        errors = _record_errors(httpd)
        sock = socket.create_connection(httpd.server_address, timeout=10)
        _reset_on_close(sock)
        sock.sendall(b"GET /download HTTP/1.0\r\n\r\n")
        assert sock.recv(1024).startswith(b"HTTP/1.0 200")
        assert sending.wait(10)
        sock.close()
        assert done.acquire(timeout=10)
        assert errors == [] and capsys.readouterr().err == ""
        assert _get(httpd, "/")[0] == 200


class TestThreads:
    def test_blocked_request_does_not_delay_another_connection(self, start):
        entered, release = threading.Event(), threading.Event()

        def app(environ, start_response):
            if environ["PATH_INFO"] == "/block":
                entered.set()
                release.wait(10)
            return _echo(environ, start_response)

        httpd = start(app)
        blocked: list = []
        t = threading.Thread(target=lambda: blocked.append(_get(httpd, "/block")))
        t.start()
        try:
            assert entered.wait(10)
            t0 = time.monotonic()
            assert _get(httpd, "/fast")[0] == 200
            assert time.monotonic() - t0 < 5
            assert not blocked  # still held inside the app
        finally:
            release.set()
            t.join(10)
        assert not t.is_alive() and blocked[0][0] == 200

    def test_sequential_requests_reuse_a_few_threads(self, start):
        served: set = set()

        def app(environ, start_response):
            served.add(threading.current_thread())
            return _echo(environ, start_response)

        httpd = start(app)
        before = threading.active_count()
        for i in range(200):
            assert _get(httpd, f"/req/{i}")[0] == 200
        assert len(served) <= 4
        assert threading.active_count() - before <= 4

    def test_server_close_lets_parked_workers_exit(self):
        entered, release = threading.Semaphore(0), threading.Event()
        served: set = set()

        def app(environ, start_response):
            served.add(threading.current_thread())
            entered.release()
            release.wait(10)
            return _echo(environ, start_response)

        httpd, _ = start_background(app)
        clients = [threading.Thread(target=_get, args=(httpd, f"/{i}")) for i in range(3)]
        for c in clients:
            c.start()
        for _ in clients:
            assert entered.acquire(timeout=10)
        release.set()
        for c in clients:
            c.join(10)
        assert len(served) == 3  # three requests at once needed three workers
        httpd.shutdown()
        httpd.server_close()
        for worker in served:
            worker.join(10)
            assert not worker.is_alive()

    def test_repeated_servers_do_not_leak_threads(self):
        baseline = threading.active_count()
        for _ in range(5):
            httpd, _ = start_background(_echo)
            for i in range(3):
                assert _get(httpd, f"/{i}")[0] == 200
            httpd.shutdown()
            httpd.server_close()
        deadline = time.monotonic() + 10
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline


def test_serve_prints_the_bound_port(monkeypatch, capsys):
    from repro.portal import server as server_module

    ports = []

    def serve_forever(self, poll_interval=0.5):
        ports.append(self.server_port)
        raise KeyboardInterrupt

    monkeypatch.setattr(server_module._PortalServer, "serve_forever", serve_forever)
    serve(_echo, port=0)
    assert ports and ports[0] > 0
    assert f"http://127.0.0.1:{ports[0]}/" in capsys.readouterr().out
