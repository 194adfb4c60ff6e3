"""Summary transports: how shard workers reach the coordinator.

The cluster runner speaks one message vocabulary regardless of where a
worker lives; a :class:`SummaryTransport` owns the links and normalises
whatever happens on them into plain tuples:

* ``("summary", shard, attempt, payload, heartbeat)`` — one wire-format
  :class:`~repro.cluster.summary.ShardBinSummary` row block (``RBS4``
  frame, CRC inside, verified with its shapes on arrival);
* ``("close", shard, attempt, n_records, late, snapshot)`` — the shard
  finished after reducing ``n_records`` records;
* ``("error", shard, attempt, text)`` — the worker raised;
* ``("eof", shard, exitcode)`` — the link died; everything the worker
  sent before dying has already been delivered (pipes and TCP both
  deliver in order ahead of EOF);
* ``("frame_error", shard, reason)`` — undecodable bytes on a TCP
  link; routed into the same supervised-restart path as a corrupt
  summary payload.

Two implementations:

:class:`PipeTransport`
    The original per-worker ``multiprocessing.Pipe``.  One pipe per
    worker so a killed worker can never wedge a sibling, back-pressure
    via the OS pipe buffer.

:class:`TcpTransport`
    Length-prefixed frames over raw TCP sockets.  Frame layout::

        <u32 total_len> <u32 header_len> <header JSON> <payload bytes>

    The header carries the message kind and scalar fields; the payload
    carries the ``RBS4`` row-block bytes (which embed their own CRC32,
    so a flipped bit surfaces as ``SummaryCorruptError`` at the merge,
    not silent skew), the close snapshot JSON, or the pickled worker
    spec.  Without ``--listen`` the transport binds a loopback
    ephemeral port and spawns local connector processes — same
    process tree as the pipe transport, but every byte crosses a real
    socket.  With ``--listen HOST:PORT`` it only binds and waits:
    remote ``repro worker --connect HOST:PORT`` processes pick up
    queued shard specs FIFO (the spec is pickled on the wire — run
    this on a trusted network only, exactly like every other pickle
    transport).  The supervisor's deadlines and degrade policy cover a
    remote worker that never connects or silently dies.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import struct
import time
from collections import deque
from multiprocessing import connection as mp_connection

__all__ = [
    "FrameError",
    "PipeTransport",
    "SummaryTransport",
    "TcpTransport",
    "decode_message",
    "encode_message",
    "parse_hostport",
    "serve",
]


def parse_hostport(text: str) -> tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)`` (host may be empty for
    all-interfaces binds, spelled ``:9100`` or ``0.0.0.0:9100``)."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port must be an integer, got {port_text!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    return host or "0.0.0.0", port

_LEN = struct.Struct("<II")  # (total_len, header_len)
#: Hard per-frame ceiling: a summary for even the largest topology is
#: a few MB; anything bigger is a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 256 * 1024 * 1024
_HANDSHAKE_TIMEOUT_S = 10.0
_RECV_BYTES = 1 << 16


class FrameError(ValueError):
    """A TCP frame that cannot be decoded (bad length, header, kind)."""


# -- frame codec -------------------------------------------------------


def _encode_frame(header: dict, payload: bytes = b"") -> bytes:
    head = json.dumps(header, separators=(",", ":")).encode()
    return _LEN.pack(len(head) + len(payload), len(head)) + head + payload


def encode_message(message: tuple) -> bytes:
    """One runner message tuple -> one wire frame."""
    kind = message[0]
    if kind == "summary":
        _, shard, attempt, payload, heartbeat = message
        header = {"kind": kind, "shard": shard, "attempt": attempt,
                  "heartbeat": heartbeat}
        return _encode_frame(header, payload)
    if kind == "close":
        _, shard, attempt, n_records, late, snapshot = message
        header = {"kind": kind, "shard": shard, "attempt": attempt,
                  "n_records": n_records, "late": late}
        payload = b"" if snapshot is None else json.dumps(snapshot).encode()
        return _encode_frame(header, payload)
    if kind == "error":
        _, shard, attempt, text = message
        header = {"kind": kind, "shard": shard, "attempt": attempt}
        return _encode_frame(header, text.encode())
    raise FrameError(f"unsendable message kind {kind!r}")


def decode_message(header: dict, payload: bytes) -> tuple:
    """One decoded frame -> the runner message tuple."""
    try:
        kind = header["kind"]
        if kind == "summary":
            return ("summary", header["shard"], header["attempt"], payload,
                    header.get("heartbeat"))
        if kind == "close":
            snapshot = json.loads(payload) if payload else None
            return ("close", header["shard"], header["attempt"],
                    header["n_records"], header["late"], snapshot)
        if kind == "error":
            return ("error", header["shard"], header["attempt"],
                    payload.decode(errors="replace"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed {header.get('kind', '?')} frame: {exc}")
    raise FrameError(f"unknown frame kind {header.get('kind')!r}")


class _FrameBuffer:
    """Reassembles frames from a TCP byte stream (recv gives fragments)."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[dict, bytes]]:
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            total, head_len = _LEN.unpack_from(self._buf)
            if total > MAX_FRAME_BYTES or head_len > total:
                raise FrameError(
                    f"implausible frame length {total} (header {head_len})"
                )
            end = _LEN.size + total
            if len(self._buf) < end:
                return frames
            raw = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                header = json.loads(raw[:head_len].decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"undecodable frame header: {exc}")
            if not isinstance(header, dict):
                raise FrameError("frame header is not an object")
            frames.append((header, raw[head_len:]))


def _recv_frame(sock: socket.socket, buffer: _FrameBuffer) -> tuple[dict, bytes]:
    """Block until one full frame arrives (handshake use only)."""
    while True:
        frames = buffer.feed(b"")
        if frames:
            return frames[0]
        data = sock.recv(_RECV_BYTES)
        if not data:
            raise FrameError("connection closed mid-frame")
        frames = buffer.feed(data)
        if frames:
            # At most one frame is in flight during a handshake.
            return frames[0]


class _SocketConn:
    """Worker-side adapter: the ``conn.send(message)`` surface that
    ``_shard_worker`` expects, over a framed TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, message: tuple) -> None:
        self._sock.sendall(encode_message(message))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._sock.close()


# -- transports --------------------------------------------------------


class SummaryTransport:
    """Owns the links between the supervisor and its worker units."""

    def launch(self, spec) -> None:
        """Start (or queue, for remote TCP) one worker for ``spec``."""
        raise NotImplementedError

    def poll(self, timeout: float) -> list[tuple]:
        """Wait up to ``timeout`` seconds and return decoded messages."""
        raise NotImplementedError

    def discard(self, unit_id: int) -> None:
        """Sever the unit's link and terminate its local process."""
        raise NotImplementedError

    def drain(self) -> None:
        """Join local processes after a clean finish."""

    def shutdown(self) -> None:
        """Close every link; terminate any local process still alive."""
        raise NotImplementedError


class PipeTransport(SummaryTransport):
    """One ``multiprocessing.Pipe`` per local worker process."""

    def __init__(self, entry, context) -> None:
        self._entry = entry
        self._context = context
        self._procs: dict[int, object] = {}
        self._conns: dict[int, mp_connection.Connection] = {}
        self._conn_unit: dict[mp_connection.Connection, int] = {}

    def launch(self, spec) -> None:
        unit_id = spec.shard_id
        reader, writer_end = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=self._entry, args=(spec, writer_end), daemon=True
        )
        proc.start()
        # Close the parent's copy of the write end *now*: the pipe's
        # EOF fires when the last writer closes, and must not wait on
        # this process (or later-forked siblings, which never inherit
        # an already-closed fd).
        writer_end.close()
        self._procs[unit_id] = proc
        self._conns[unit_id] = reader
        self._conn_unit[reader] = unit_id

    def poll(self, timeout: float) -> list[tuple]:
        if not self._conn_unit:
            time.sleep(timeout)
            return []
        ready = mp_connection.wait(list(self._conn_unit), timeout=timeout)
        messages: list[tuple] = []
        for reader in ready:
            unit_id = self._conn_unit.get(reader)
            if unit_id is None:
                continue  # discarded earlier in this batch
            try:
                messages.append(reader.recv())
            except EOFError:
                # The worker is gone and — pipes deliver in order —
                # everything it sent has already been handled.
                self._drop(unit_id)
                proc = self._procs.get(unit_id)
                if proc is not None:
                    proc.join()
                code = proc.exitcode if proc is not None else None
                messages.append(("eof", unit_id, code))
        return messages

    def _drop(self, unit_id: int) -> None:
        reader = self._conns.pop(unit_id, None)
        if reader is not None:
            self._conn_unit.pop(reader, None)
            reader.close()

    def discard(self, unit_id: int) -> None:
        self._drop(unit_id)
        proc = self._procs.pop(unit_id, None)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join()

    def drain(self) -> None:
        for proc in self._procs.values():
            proc.join()

    def shutdown(self) -> None:
        for unit_id in list(self._conns):
            self._drop(unit_id)
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._procs.clear()


class TcpTransport(SummaryTransport):
    """Framed TCP links, loopback self-spawned or remote workers.

    ``spawn_local=True`` (the default, used when no ``--listen`` was
    given) binds ``127.0.0.1:0`` and forks one connector process per
    launched spec.  ``spawn_local=False`` binds the given address and
    waits for external ``repro worker --connect`` processes; queued
    specs are handed out in launch order as workers say hello.
    """

    def __init__(self, context, listen=None, spawn_local: bool = True) -> None:
        self._context = context
        self._spawn_local = spawn_local
        host, port = listen or ("127.0.0.1", 0)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        # A connection that vanishes between wait() and accept() must
        # not wedge the supervisor loop.
        self._listener.settimeout(_HANDSHAKE_TIMEOUT_S)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._pending: deque = deque()  # specs awaiting a connection
        self._parked: deque = deque()  # hello'd workers awaiting a spec
        self._socks: dict[int, socket.socket] = {}
        self._sock_unit: dict[socket.socket, int] = {}
        self._buffers: dict[int, _FrameBuffer] = {}
        self._procs: dict[int, list] = {}  # unit -> local connector procs
        self._unassigned: list = []  # local procs not yet handshaken

    def launch(self, spec) -> None:
        self._pending.append(spec)
        self._drain_parked()
        if self._spawn_local:
            proc = self._context.Process(
                target=serve, args=(self.address,), kwargs={"once": True},
                daemon=True,
            )
            proc.start()
            self._unassigned.append(proc)

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        buffer = _FrameBuffer()
        try:
            header, _payload = _recv_frame(sock, buffer)
            if header.get("kind") != "hello":
                raise FrameError(f"expected hello, got {header.get('kind')!r}")
        except (FrameError, OSError, socket.timeout):
            sock.close()
            return
        if not self._pending:
            # A worker dialing in early (before launch) or beyond the
            # shard count waits parked; the next launch — including a
            # supervised restart — assigns it.
            self._parked.append((sock, buffer, header.get("pid")))
            return
        spec = self._pending.popleft()
        if not self._try_assign(sock, buffer, header.get("pid"), spec):
            self._pending.appendleft(spec)

    def _drain_parked(self) -> None:
        while self._parked and self._pending:
            sock, buffer, pid = self._parked.popleft()
            spec = self._pending.popleft()
            if not self._try_assign(sock, buffer, pid, spec):
                self._pending.appendleft(spec)

    def _try_assign(self, sock, buffer, pid, spec) -> bool:
        try:
            sock.sendall(_encode_frame({"kind": "spec"}, pickle.dumps(spec)))
        except OSError:
            sock.close()  # worker went away while parked; next one
            return False
        sock.settimeout(None)
        sock.setblocking(False)
        unit_id = spec.shard_id
        self._socks[unit_id] = sock
        self._sock_unit[sock] = unit_id
        self._buffers[unit_id] = buffer
        if self._unassigned and pid is not None:
            for proc in list(self._unassigned):
                if proc.pid == pid:
                    self._unassigned.remove(proc)
                    self._procs.setdefault(unit_id, []).append(proc)
                    break
        return True

    def poll(self, timeout: float) -> list[tuple]:
        waitables = [self._listener] + list(self._sock_unit)
        ready = mp_connection.wait(waitables, timeout=timeout)
        messages: list[tuple] = []
        for obj in ready:
            if obj is self._listener:
                self._accept()
                continue
            unit_id = self._sock_unit.get(obj)
            if unit_id is None:
                continue  # discarded earlier in this batch
            try:
                data = obj.recv(_RECV_BYTES)
            except BlockingIOError:
                continue
            except OSError:
                data = b""
            if not data:
                # TCP delivers in order ahead of FIN, so everything the
                # worker sent is already buffered/decoded by now.
                self._drop(unit_id)
                messages.append(("eof", unit_id, self._reap(unit_id)))
                continue
            try:
                frames = self._buffers[unit_id].feed(data)
            except FrameError as exc:
                self._drop(unit_id)
                messages.append(("frame_error", unit_id, str(exc)))
                continue
            for header, payload in frames:
                try:
                    messages.append(decode_message(header, payload))
                except FrameError as exc:
                    self._drop(unit_id)
                    messages.append(("frame_error", unit_id, str(exc)))
                    break
        return messages

    def _drop(self, unit_id: int) -> None:
        sock = self._socks.pop(unit_id, None)
        if sock is not None:
            self._sock_unit.pop(sock, None)
            sock.close()
        self._buffers.pop(unit_id, None)

    def _reap(self, unit_id: int):
        code = None
        for proc in self._procs.pop(unit_id, []):
            proc.join()
            code = proc.exitcode if proc.exitcode is not None else code
        return code

    def discard(self, unit_id: int) -> None:
        self._drop(unit_id)
        # A spec still queued for this unit (remote worker never
        # connected) must not reach a late-arriving worker: the
        # supervisor will relaunch with a fresh attempt number.
        self._pending = deque(
            s for s in self._pending if s.shard_id != unit_id
        )
        for proc in self._procs.pop(unit_id, []):
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def drain(self) -> None:
        for procs in self._procs.values():
            for proc in procs:
                proc.join()
        for proc in self._unassigned:
            proc.join()

    def shutdown(self) -> None:
        for unit_id in list(self._socks):
            self._drop(unit_id)
        while self._parked:
            sock, _buffer, _pid = self._parked.popleft()
            try:
                sock.close()  # parked workers see EOF and exit cleanly
            except OSError:
                pass
        for procs in list(self._procs.values()) + [self._unassigned]:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
        self._procs.clear()
        self._unassigned = []
        try:
            self._listener.close()
        except OSError:
            pass


# -- worker side -------------------------------------------------------


def serve(address: tuple[str, int], once: bool = False) -> int:
    """Connect to a coordinator and run assigned shard specs.

    The ``repro worker --connect HOST:PORT`` entry point (and the local
    connector the loopback transport forks).  Each connection serves
    one spec: hello -> receive pickled spec -> run it, shipping frames
    back over the same socket.  A worker that dials in before the
    coordinator has work is parked and waits — possibly indefinitely —
    for an assignment; the coordinator closing the link releases it.
    With ``once=False`` the worker reconnects for further assignments
    (e.g. a supervised restart) until the coordinator stops listening.

    Returns:
        Number of shard assignments served.

    Raises:
        OSError: The first connection attempt was refused (no
            coordinator is listening there).
    """
    from repro.cluster.runner import _shard_worker

    served = 0
    while True:
        try:
            sock = socket.create_connection(address, timeout=30.0)
        except OSError:
            if served:
                return served  # coordinator finished and closed shop
            raise
        try:
            # Wait for the spec without a deadline: a parked worker is
            # the idle half of a worker pool, released by coordinator
            # close (EOF -> FrameError below).
            sock.settimeout(None)
            try:
                sock.sendall(
                    _encode_frame({"kind": "hello", "pid": os.getpid()})
                )
                header, payload = _recv_frame(sock, _FrameBuffer())
            except (FrameError, OSError):
                return served  # coordinator closed without assigning
            if header.get("kind") != "spec":
                return served
            spec = pickle.loads(payload)
            _shard_worker(spec, _SocketConn(sock))
            served += 1
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if once:
            return served
