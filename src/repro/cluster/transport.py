"""Worker links: how shard workers reach the coordinator.

Every worker, local or remote, speaks one framed protocol to the
coordinator, and :class:`WorkerLinks` owns the links and normalises
whatever happens on them into plain tuples:

* ``("summary", shard, attempt, payload, heartbeat)`` — one wire-format
  :class:`~repro.cluster.summary.ShardBinSummary` row block (``RBS4``
  frame, CRC inside, verified with its shapes on arrival);
* ``("close", shard, attempt, n_records, late, snapshot)`` — the shard
  finished after reducing ``n_records`` records;
* ``("error", shard, attempt, text)`` — the worker raised;
* ``("eof", shard, exitcode)`` — the link died; everything the worker
  sent before dying has already been delivered (a stream socket
  delivers in order ahead of EOF);
* ``("frame_error", shard, reason)`` — undecodable bytes on a link;
  routed into the same supervised-restart path as a corrupt summary
  payload.

Frame layout::

    <u32 total_len> <u32 header_len> <header JSON> <payload bytes>

The header carries the message kind and scalar fields; the payload
carries the ``RBS4`` row-block bytes (which embed their own CRC32, so a
flipped bit surfaces as ``SummaryCorruptError`` at the merge, not
silent skew), the close snapshot JSON, or — coordinator to remote
worker only — the pickled worker spec.

A *local* worker holds one end of a ``socket.socketpair()`` from its
launch: the pair has no name, so it is as private as a pipe, and the
coordinator decodes its frames without unpickling anything.  A
*remote* ``repro worker --connect HOST:PORT`` process dials in to the
address the coordinator was told to ``listen`` on and picks up queued
shard specs FIFO.  That listener is unauthenticated and the spec is
pickled on the wire, so run it on a trusted network only.  A listener
exists only when ``listen`` is given.  The supervisor's deadlines and
degrade policy cover a remote worker that never connects or silently
dies.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import time
from collections import deque
from multiprocessing import connection as mp_connection

__all__ = [
    "FrameError",
    "WorkerLinks",
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
    """A frame that cannot be decoded (bad length, header, kind)."""


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
    """Reassembles frames from a byte stream (recv gives fragments)."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> tuple[list[tuple[dict, bytes]], FrameError | None]:
        """``(frames, error)``: every whole frame ``data`` completes, in
        order, and the :class:`FrameError` of undecodable bytes that
        follow them (``None`` if there are none) — garbage later in a
        recv must not cost the frames decoded ahead of it."""
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames, None
            total, head_len = _LEN.unpack_from(self._buf)
            if total > MAX_FRAME_BYTES or head_len > total:
                return frames, FrameError(
                    f"implausible frame length {total} (header {head_len})"
                )
            end = _LEN.size + total
            if len(self._buf) < end:
                return frames, None
            raw = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                header = json.loads(raw[:head_len].decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return frames, FrameError(f"undecodable frame header: {exc}")
            if not isinstance(header, dict):
                return frames, FrameError("frame header is not an object")
            frames.append((header, raw[head_len:]))


def _recv_frame(sock: socket.socket, buffer: _FrameBuffer) -> tuple[dict, bytes]:
    """Block until one full frame arrives (handshake use only)."""
    data = b""
    while True:
        frames, error = buffer.feed(data)
        if frames:
            # At most one frame is in flight during a handshake.
            return frames[0]
        if error is not None:
            raise error
        data = sock.recv(_RECV_BYTES)
        if not data:
            raise FrameError("connection closed mid-frame")


class _SocketConn:
    """Worker-side adapter: the ``conn.send(message)`` surface that
    ``_shard_worker`` expects, over a framed socket."""

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


# -- links -------------------------------------------------------------


class WorkerLinks:
    """The framed links between the supervisor and its workers.

    Without ``listen`` every launched spec gets a local worker process
    holding one end of a ``socket.socketpair()``: the pair has no name,
    so nothing else on the host can reach it, and the coordinator
    decodes its frames like any other link's (it unpickles nothing).
    With ``listen=(host, port)`` nothing is spawned: the links bind
    that address and hand queued specs, in launch order, to the
    ``repro worker --connect`` processes that say hello.
    """

    def __init__(self, entry, context, listen=None) -> None:
        self._entry = entry
        self._context = context
        self._listener = None
        if listen is not None:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(listen)
            self._listener.listen(16)
            # A connection that vanishes between wait() and accept()
            # must not wedge the supervisor loop.
            self._listener.settimeout(_HANDSHAKE_TIMEOUT_S)
        self._pending: deque = deque()  # specs awaiting a remote worker
        self._parked: deque = deque()  # hello'd remote workers awaiting a spec
        self._socks: dict[int, socket.socket] = {}
        self._sock_unit: dict[socket.socket, int] = {}
        self._buffers: dict[int, _FrameBuffer] = {}
        self._procs: dict[int, object] = {}  # unit -> local worker process

    def launch(self, spec) -> None:
        """Start a local worker for ``spec``, or queue it for a remote one."""
        if self._listener is not None:
            self._pending.append(spec)
            self._drain_parked()
            return
        ours, theirs = socket.socketpair()
        try:
            proc = self._context.Process(
                target=self._entry, args=(spec, _SocketConn(theirs)), daemon=True
            )
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            # Close our copy of the worker's end *now*: EOF on ours
            # fires when the last copy of theirs closes, and must not
            # wait on this process (later-forked siblings never
            # inherit it).
            theirs.close()
        self._procs[spec.shard_id] = proc
        self._register(spec.shard_id, ours, _FrameBuffer())

    def _register(self, unit_id: int, sock: socket.socket, buffer: _FrameBuffer) -> None:
        sock.setblocking(False)
        self._socks[unit_id] = sock
        self._sock_unit[sock] = unit_id
        self._buffers[unit_id] = buffer

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
        # A worker dialing in early (before launch) or beyond the shard
        # count waits parked; the next launch — including a supervised
        # restart — assigns it.
        self._parked.append((sock, buffer))
        self._drain_parked()

    def _drain_parked(self) -> None:
        while self._parked and self._pending:
            sock, buffer = self._parked.popleft()
            spec = self._pending[0]
            try:
                sock.sendall(_encode_frame({"kind": "spec"}, pickle.dumps(spec)))
            except OSError:
                sock.close()  # worker went away while parked; next one
                continue
            self._pending.popleft()
            self._register(spec.shard_id, sock, buffer)

    def poll(self, timeout: float) -> list[tuple]:
        """Wait up to ``timeout`` seconds; return the decoded messages."""
        waitables = list(self._sock_unit)
        if self._listener is not None:
            waitables.append(self._listener)
        if not waitables:
            time.sleep(timeout)
            return []
        messages: list[tuple] = []
        for obj in mp_connection.wait(waitables, timeout=timeout):
            if obj is self._listener:
                self._accept()
                continue
            unit_id = self._sock_unit.get(obj)
            if unit_id is not None:  # else: discarded earlier in this batch
                messages.extend(self._read(unit_id, obj))
        return messages

    def _read(self, unit_id: int, sock: socket.socket) -> list[tuple]:
        """Everything ``sock`` holds now, in order, then its EOF."""
        messages: list[tuple] = []
        while True:
            try:
                data = sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return messages
            except OSError:
                data = b""
            if not data:
                # Stream sockets deliver in order ahead of EOF, so
                # everything the worker sent is in ``messages`` by now.
                self._drop(unit_id)
                messages.append(("eof", unit_id, self._reap(unit_id)))
                return messages
            frames, error = self._buffers[unit_id].feed(data)
            try:
                for header, payload in frames:
                    messages.append(decode_message(header, payload))
            except FrameError as exc:
                error = exc
            if error is not None:
                # The frames ahead of the bad bytes were delivered above.
                self._drop(unit_id)
                messages.append(("frame_error", unit_id, str(error)))
                return messages

    def _drop(self, unit_id: int) -> None:
        sock = self._socks.pop(unit_id, None)
        if sock is not None:
            self._sock_unit.pop(sock, None)
            sock.close()
        self._buffers.pop(unit_id, None)

    def _reap(self, unit_id: int):
        proc = self._procs.pop(unit_id, None)
        if proc is None:
            return None  # a remote worker's exit code is not ours to see
        proc.join()
        return proc.exitcode

    def discard(self, unit_id: int) -> None:
        """Sever the unit's link and terminate its local process."""
        self._drop(unit_id)
        # A spec still queued for this unit (remote worker never
        # connected) must not reach a late-arriving worker: the
        # supervisor will relaunch with a fresh attempt number.
        self._pending = deque(
            s for s in self._pending if s.shard_id != unit_id
        )
        proc = self._procs.pop(unit_id, None)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join()

    def drain(self) -> None:
        """Join local processes after a clean finish."""
        for proc in self._procs.values():
            proc.join()

    def shutdown(self) -> None:
        """Close every link; terminate any local process still alive."""
        for unit_id in list(self._socks):
            self._drop(unit_id)
        while self._parked:
            sock, _buffer = self._parked.popleft()
            sock.close()  # parked workers see EOF and exit cleanly
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._procs.clear()
        if self._listener is not None:
            self._listener.close()


# -- worker side -------------------------------------------------------


def serve(address: tuple[str, int], once: bool = False) -> int:
    """Connect to a coordinator and run assigned shard specs.

    The ``repro worker --connect HOST:PORT`` entry point.  Each
    connection serves one spec: hello -> receive pickled spec -> run
    it, shipping frames back over the same socket.  A worker that dials in before the
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
                sock.sendall(_encode_frame({"kind": "hello"}))
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
