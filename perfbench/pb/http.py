"""Minimal HTTP/1.1 keep-alive client over raw sockets, timing each request
at connect, send, first byte and last byte."""

import select
import socket
import time

now = time.perf_counter


class Response:
    __slots__ = ("status", "headers", "body", "t_start", "t_sent", "t_first", "t_last", "connected")

    def __init__(self):
        self.status, self.headers, self.body = 0, {}, b""
        self.t_start = self.t_sent = self.t_first = self.t_last = 0.0
        self.connected = None  # seconds spent connecting, when this request opened the socket


class Conn:
    def __init__(self, port, timeout=120.0):
        self.port, self.timeout, self.sock = port, timeout, None

    def _connect(self):
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method, path, body=b"", headers=(), expect_continue_wait=None):
        """One request; reconnects if the server closed the connection.

        With `expect_continue_wait`, sends `Expect: 100-continue`, then waits
        up to that many seconds for an interim answer before sending the
        body, as curl does."""
        r = Response()
        r.t_start = now()
        if self.sock is None:
            self._connect()
            r.connected = now() - r.t_start
        head = ["%s %s HTTP/1.1" % (method, path), "Host: 127.0.0.1", "Content-Length: %d" % len(body)]
        head += ["%s: %s" % kv for kv in headers]
        if expect_continue_wait is not None:
            head.append("Expect: 100-continue")
        raw_head = ("\r\n".join(head) + "\r\n\r\n").encode()
        buf = b""
        if expect_continue_wait is None:
            self.sock.sendall(raw_head + body)
        else:
            self.sock.sendall(raw_head)
            ready, _, _ = select.select([self.sock], [], [], expect_continue_wait)
            if ready:
                buf = self._recv()
                if buf.startswith(b"HTTP/1.1 100"):
                    buf = buf[buf.index(b"\r\n\r\n") + 4:]
            self.sock.sendall(body)
        r.t_sent = now()
        while b"\r\n\r\n" not in buf:
            buf += self._recv()
            if r.t_first == 0.0:
                r.t_first = now()
        if r.t_first == 0.0:
            r.t_first = now()
        head, _, rest = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        r.status = int(lines[0].split()[1])
        for line in lines[1:]:
            k, _, v = line.partition(":")
            r.headers[k.strip().lower()] = v.strip()
        length = int(r.headers.get("content-length", "0"))
        chunks, have = [rest], len(rest)
        while have < length:
            chunk = self._recv()
            chunks.append(chunk)
            have += len(chunk)
        r.body = b"".join(chunks)[:length]
        r.t_last = now()
        if r.headers.get("connection", "").lower() == "close":
            self.close()
        return r

    def _recv(self):
        data = self.sock.recv(1 << 16)
        if not data:
            self.close()
            raise ConnectionError("server closed the connection")
        return data


def call(port, method, path, body=b"", headers=()):
    """A one-off request on its own connection."""
    c = Conn(port)
    try:
        return c.request(method, path, body, headers)
    finally:
        c.close()
