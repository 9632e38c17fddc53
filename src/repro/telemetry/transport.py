"""Shard transports: the byte pipe under the worker message protocol.

:mod:`repro.telemetry.workers` defines a placement-agnostic actor
protocol (coalesced ``ingest`` messages, synchronous ``call`` RPC,
interner name-delta replication, ``stop``/EOF shutdown) and was built
on the explicit assumption that the two sides share **nothing** — not
memory, not an interner, not a process.  That makes the pipe the only
process-specific piece, and this module turns the pipe into an
interface:

:class:`PipeTransport`
    A ``multiprocessing.Pipe`` connection end.  Framing and pickling
    are the connection's own; this is the transport the
    ``"processes"`` backend has always used.
:class:`TcpTransport`
    A TCP socket speaking length-prefixed pickle frames (the wire
    format below).  This is the ``"tcp"`` backend's pipe: the same
    protocol messages, now able to cross machines.  The full
    operator-facing spec lives in ``docs/DISTRIBUTED.md``.

Both expose the same surface — ``send(message)``, ``send_ingest(names,
commands)`` (the ingest fast path, free to pick a wire encoding),
``recv()`` (raising :class:`EOFError` on clean peer close) and
``close()`` — so the worker serve loop and the client proxies never
know which one they hold.

Wire format of :class:`TcpTransport` (one *frame* per protocol
message)::

    +------------------------------------+---------------------------+
    | header: 8 bytes, unsigned          | payload: ``length`` bytes |
    | big-endian; top byte = frame kind, |                           |
    | low 7 bytes = payload length       |                           |
    +------------------------------------+---------------------------+

Frame kind 0 (``pickle``) carries ``pickle.dumps(message,
protocol=HIGHEST_PROTOCOL)`` — any protocol message; ndarray columns
inside ingest messages cross the wire as raw buffers, exactly as they
cross a ``multiprocessing`` pipe.  PR 4 peers only ever produced this
kind (their top header byte was always zero because payloads are
capped far below 2^56), so kind-0 frames are bit-compatible with the
original wire format.

Frame kind 1 (``binary ingest``) is a pickle-free encoding of the one
hot message, ``("ingest", names, commands)`` where every command is a
``record_columns`` call over the fixed ``(int64, int64, float64)``
column layout.  Layout of the payload (lengths big-endian, array data
little-endian)::

    u32 n_names; n_names x (u32 byte_len, utf-8 bytes)
    u32 n_commands
    per command:
        3 x (u32 byte_len, utf-8 bytes)   pool, datacenter, counter
        u64 n_rows
        n_rows x i64 (LE)                  windows
        n_rows x i64 (LE)                  server indices
        n_rows x f64 (LE)                  values

A client only emits kind 1 after the per-session capability probe (see
:mod:`repro.telemetry.workers`) confirmed the peer decodes it — old
peers keep receiving kind 0 and never see an unknown frame.  Frames
are strictly sequential per connection (the protocol is FIFO by
design); a frame claiming an unknown kind or more than
``MAX_FRAME_BYTES`` is treated as evidence the peer is not speaking
this protocol and kills the connection rather than attempting a giant
allocation.

**Security**: pickle deserialisation executes arbitrary code by
design.  A shard server must only ever listen on loopback or an
otherwise trusted, access-controlled network — the same trust model as
a ``multiprocessing`` pipe, stretched across machines, and the reason
the default listen address is ``127.0.0.1``.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any, List, Sequence, Tuple

import numpy as np

#: Frame header: one 8-byte unsigned big-endian int — frame kind in
#: the top byte, payload length in the low 7 bytes.  Also packed by
#: :mod:`repro.telemetry.faultinject` to forge a bad-kind frame, so
#: layout changes must keep that corruption path in step.
_HEADER = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: Header frame kinds.  PR 4 peers only ever emitted kind 0 (their
#: header was a bare length, and lengths never reach the top byte).
FRAME_PICKLE = 0
FRAME_BINARY_INGEST = 1

_KIND_SHIFT = 56
_LENGTH_MASK = (1 << _KIND_SHIFT) - 1

#: Upper bound on a single frame's payload.  Real messages are far
#: smaller (an ingest message holds at most ``flush_rows`` rows); a
#: length beyond this means the peer is not speaking the protocol.
MAX_FRAME_BYTES = 1 << 40

#: How long :meth:`TcpTransport.connect` keeps retrying a refused
#: connection before giving up (seconds).  Covers the "client raced the
#: server's bind" window of the two-terminal workflow.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Default per-operation socket timeout (seconds): how long one send
#: or recv may sit with *no progress* before the connection is declared
#: dead.  Bounds every RPC against a hung-but-alive peer — the PR 4
#: behaviour (``settimeout(None)``) blocked forever.  ``None`` disables
#: the bound and restores the old semantics.
DEFAULT_IO_TIMEOUT = 60.0

_RETRY_INTERVAL = 0.05

#: Buffers at least this large are written straight to the socket
#: instead of being joined into the frame's small-field buffer — the
#: column arrays of a binary ingest frame cross with no extra copy.
_SENDV_COALESCE_BYTES = 1 << 16

#: The binary ingest frame's column dtypes (explicitly little-endian;
#: on a big-endian host the encoder falls back to pickle rather than
#: silently shipping native-endian bytes).
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string into a ``(host, port)`` pair.

    The CLI's address syntax (``--listen``, ``--shard-addrs``); port 0
    is valid for listeners and means "pick an ephemeral port".  IPv6
    hosts must be bracketed, RFC-3986 style — ``[::1]:9400`` parses to
    ``("::1", 9400)`` — because a bare-colon form like ``::1:9400`` is
    ambiguous and is rejected.  The port must be a bare decimal
    integer in ``[0, 65535]``: signs, spaces, underscores and empty
    strings are rejected with the offending input named.
    """
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"invalid address {address!r}: expected host:port"
        )
    if host.startswith("[") or host.endswith("]"):
        if not (host.startswith("[") and host.endswith("]")):
            raise ValueError(
                f"invalid address {address!r}: unbalanced brackets in host"
            )
        host = host[1:-1]
        if not host:
            raise ValueError(f"invalid address {address!r}: empty host")
    elif ":" in host:
        raise ValueError(
            f"invalid address {address!r}: IPv6 hosts must be written "
            f"[host]:port (e.g. [::1]:9400)"
        )
    if not port_text.isascii() or not port_text.isdigit():
        raise ValueError(
            f"invalid address {address!r}: port {port_text!r} is not a "
            f"decimal integer"
        )
    port = int(port_text)
    if port > 65535:
        raise ValueError(
            f"invalid address {address!r}: port {port} out of range 0-65535"
        )
    return host, port


def format_address(host: str, port: int) -> str:
    """The inverse of :func:`parse_address` (brackets IPv6 hosts)."""
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


class PipeTransport:
    """A ``multiprocessing`` connection end behind the transport surface.

    The connection already frames and pickles messages itself, so this
    is a naming shim — its value is that the serve loop and the client
    proxies depend on the three-method transport surface instead of a
    concrete connection type.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, message: Any) -> None:
        self._conn.send(message)

    def send_ingest(self, names: List[str], commands: List[tuple]) -> None:
        """Ingest fast path: the pipe has no binary frame, plain send."""
        self._conn.send(("ingest", names, commands))

    def recv(self) -> Any:
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()


class TcpTransport:
    """Length-prefixed frames (pickle or binary) over one TCP connection.

    One transport per shard session; created either by
    :meth:`connect` (client side) or around an accepted socket (server
    side).  ``TCP_NODELAY`` is set because the protocol is
    request/response at query time — Nagle would add a round-trip's
    latency to every RPC for no batching benefit (ingest messages are
    already coalesced parent-side).

    ``io_timeout`` bounds every socket operation: one send or recv that
    makes *no progress* for that many seconds raises
    :class:`TimeoutError` instead of blocking forever against a
    hung-but-alive peer (``None`` disables the bound).  The connection
    is unusable after a timeout — a partial frame may be in flight —
    so callers must treat it as lost.

    ``binary_frames`` controls the *outgoing* encoding of
    :meth:`send_ingest`: when ``True`` (set by the client after the
    capability probe confirmed the peer decodes kind-1 frames),
    all-``record_columns`` ingest messages skip pickle entirely and
    cross as the raw column layout in the module docstring.  Incoming
    frames need no flag — the header names their kind.
    """

    def __init__(
        self,
        sock: socket.socket,
        io_timeout: float | None = None,
    ) -> None:
        self._sock = sock
        self.binary_frames = False
        sock.settimeout(io_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: float | None = None,
    ) -> "TcpTransport":
        """Dial ``host:port``, retrying refused connections.

        A freshly started server may not have bound yet (the
        two-terminal workflow has no ordering guarantee), so connection
        refusals — and only refusals — are retried every
        ``_RETRY_INTERVAL`` seconds until ``timeout`` elapses.
        Permanent failures (a DNS typo, an unreachable network) are
        knowable on the first attempt and fail immediately; every
        failure is re-raised with the address in the message.
        ``io_timeout`` becomes the connected transport's per-operation
        bound.
        """
        host, port = parse_address(address)
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                return cls(sock, io_timeout=io_timeout)
            except ConnectionRefusedError as error:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"cannot connect to shard server at {address}: {error}"
                    ) from error
                time.sleep(_RETRY_INTERVAL)
            except OSError as error:
                raise ConnectionError(
                    f"cannot connect to shard server at {address}: {error}"
                ) from error

    def send(self, message: Any) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(_HEADER.pack(len(payload)) + payload)

    def send_ingest(self, names: List[str], commands: List[tuple]) -> None:
        """Send one ``("ingest", names, commands)`` message.

        Uses the kind-1 binary frame when the session negotiated it and
        every command fits the fixed column layout; anything else (an
        un-negotiated session, non-contiguous or exotic-dtype columns)
        falls back to the kind-0 pickle frame, so the fast path never
        restricts what the protocol can carry.
        """
        if self.binary_frames:
            buffers = _encode_binary_ingest(names, commands)
            if buffers is not None:
                self._sendv(buffers)
                return
        self.send(("ingest", names, commands))

    def _sendv(self, buffers: Sequence) -> None:
        """Write a buffer sequence: small fields coalesce into one
        ``sendall``, large ones (the column arrays) go straight to the
        socket with no join copy."""
        small: List[bytes] = []
        small_size = 0
        for buffer in buffers:
            if len(buffer) >= _SENDV_COALESCE_BYTES:
                if small:
                    self._sock.sendall(b"".join(small))
                    small = []
                    small_size = 0
                self._sock.sendall(buffer)
            else:
                small.append(bytes(buffer))
                small_size += len(buffer)
                if small_size >= _SENDV_COALESCE_BYTES:
                    self._sock.sendall(b"".join(small))
                    small = []
                    small_size = 0
        if small:
            self._sock.sendall(b"".join(small))

    def recv(self) -> Any:
        header = self._recv_exact(_HEADER.size, eof_ok=True)
        (word,) = _HEADER.unpack(header)
        kind = word >> _KIND_SHIFT
        length = word & _LENGTH_MASK
        if kind not in (FRAME_PICKLE, FRAME_BINARY_INGEST):
            raise ConnectionError(
                f"unknown frame kind {kind}: peer is not speaking "
                f"the shard protocol"
            )
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(
                f"oversized frame ({length} bytes): peer is not speaking "
                f"the shard protocol"
            )
        payload = self._recv_exact(length)
        if kind == FRAME_BINARY_INGEST:
            return _decode_binary_ingest(payload)
        return pickle.loads(payload)

    def _recv_exact(self, n: int, eof_ok: bool = False) -> bytearray:
        """Read exactly ``n`` bytes into one (writable) buffer.

        EOF on a frame boundary (``eof_ok``) is the peer's clean
        goodbye and raises :class:`EOFError`, mirroring
        ``multiprocessing`` connections; EOF mid-frame means the peer
        died and raises :class:`ConnectionError`.  Returning a
        ``bytearray`` lets the binary decoder hand out writable ndarray
        views of the payload with zero further copies.
        """
        buffer = bytearray(n)
        view = memoryview(buffer)
        received = 0
        while received < n:
            chunk = self._sock.recv_into(view[received:])
            if not chunk:
                if eof_ok and received == 0:
                    raise EOFError("peer closed the connection")
                raise ConnectionError("connection closed mid-frame")
            received += chunk
        return buffer

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _encode_binary_ingest(names, commands):
    """Encode an ingest message as kind-1 buffers, or ``None``.

    ``None`` means "not encodable, use pickle": columns that are not
    the fixed contiguous ``(int64, int64, float64)`` layout.  Only
    ``record_columns`` is ever ingested (the serve loop refuses any
    other name), so a different name also falls back to the pickle
    frame, where the peer refuses it by name.  On success returns the full
    buffer sequence — header first — ready for a vectored send; column
    arrays are passed through as memoryviews, so large arrays are never
    copied on the way out.
    """
    for method, args in commands:
        if method != "record_columns":
            return None
        windows, server_indices, values = args[3], args[4], args[5]
        for array, dtype in (
            (windows, _I64),
            (server_indices, _I64),
            (values, _F64),
        ):
            if (
                not isinstance(array, np.ndarray)
                or array.dtype != dtype
                or not array.flags.c_contiguous
            ):
                return None
    fields = bytearray()
    buffers: List = [b""]  # header placeholder, filled in below
    fields += _U32.pack(len(names))
    for name in names:
        encoded = name.encode("utf-8")
        fields += _U32.pack(len(encoded)) + encoded
    fields += _U32.pack(len(commands))
    buffers.append(fields)
    total = len(fields)
    for _method, args in commands:
        pool_id, datacenter_id, counter = args[0], args[1], args[2]
        windows, server_indices, values = args[3], args[4], args[5]
        meta = bytearray()
        for text in (pool_id, datacenter_id, counter):
            encoded = text.encode("utf-8")
            meta += _U32.pack(len(encoded)) + encoded
        meta += _U64.pack(windows.size)
        buffers.append(meta)
        total += len(meta)
        for array in (windows, server_indices, values):
            data = memoryview(array).cast("B")
            buffers.append(data)
            total += len(data)
    buffers[0] = _HEADER.pack((FRAME_BINARY_INGEST << _KIND_SHIFT) | total)
    return buffers


def _decode_binary_ingest(payload: bytearray):
    """Decode a kind-1 payload back into ``("ingest", names, commands)``.

    Column arrays are writable ndarray views sharing the received
    buffer — one allocation per frame, no per-array copy (the store
    takes ownership of them, exactly as it does for unpickled arrays).
    A malformed payload raises :class:`ConnectionError`, the same
    not-speaking-the-protocol verdict as a bad frame header.
    """
    view = memoryview(payload)
    try:
        offset = 0
        (n_names,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        names = []
        for _ in range(n_names):
            (byte_len,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            names.append(bytes(view[offset:offset + byte_len]).decode("utf-8"))
            offset += byte_len
        (n_commands,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        commands = []
        for _ in range(n_commands):
            texts = []
            for _field in range(3):
                (byte_len,) = _U32.unpack_from(view, offset)
                offset += _U32.size
                texts.append(
                    bytes(view[offset:offset + byte_len]).decode("utf-8")
                )
                offset += byte_len
            (n_rows,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            columns = []
            for dtype in (_I64, _I64, _F64):
                array = np.frombuffer(view, dtype=dtype, count=n_rows,
                                      offset=offset)
                if not array.dtype.isnative:  # pragma: no cover - BE hosts
                    array = array.astype(array.dtype.newbyteorder("="))
                columns.append(array)
                offset += n_rows * 8
            commands.append(
                ("record_columns", (*texts, *columns))
            )
        if offset != len(payload):
            raise ValueError("trailing bytes")
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise ConnectionError(
            f"malformed binary ingest frame: {error}"
        ) from None
    return ("ingest", names, commands)
