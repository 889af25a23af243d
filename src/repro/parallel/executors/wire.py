"""Fixed binary frame protocol for the executor data plane.

PR 2 framed every message as a 4-byte length plus a pickled dict: easy,
but every task re-shipped the callable, every array was copied through
``pickle.dumps``, and the receiving side had to execute whatever pickle
arrived — a trust caveat the module used to document in bold.  This
module replaces that with a fixed binary layout:

``frame := header · section-table · data-heap``

* **header** — ``struct('>4sBBHqQ')``: magic ``b"SLW2"``, protocol
  version, message type, section count, a signed 64-bit ``tag`` (the
  driver's task tag / batch epoch), and the body length in bytes.
* **section table** — one fixed 48-byte entry per section,
  ``struct('>BBBxIQ4Q')``: payload kind, dtype code, ndim, CRC-32
  (pickle sections only), data length, and up to four 64-bit shape
  dims.  Kinds: ``JSON`` (the object tree), ``BYTES``, ``NDARRAY``
  (raw little-endian buffers), ``PICKLE`` (explicit, checksummed).
* **data heap** — section payloads back to back, in table order.

Sending is scatter-gather: array sections go to the socket as
``memoryview`` s of the original buffers (no serialization copy), and
small parts coalesce into one ``bytes``.  Receiving reads the body into
a single buffer and decodes every ``NDARRAY`` section with
``numpy.frombuffer`` — a zero-copy view, returned read-only so shared
backing stores (the pool backend's ``multiprocessing.shared_memory``
segments) cannot be corrupted by a worker.

Object codec
------------
:func:`encode_frame` carries one payload object per frame.  Plain data
— ``None``/bool/int/float/str/bytes, lists, tuples, dicts (any
encodable keys), numpy arrays and scalars — is encoded structurally:
containers into the JSON section, buffers into their own sections.
Dataclasses registered with :func:`register_struct` travel as named
field maps and are reconstructed on the far side (unknown names are
resolved by importing their module, gated to the ``repro.`` namespace).

Anything else must opt in explicitly via :class:`Pickled` (or the
``allow_pickle=True`` encode fallback), which produces a ``PICKLE``
section protected by a CRC-32 and **refused at decode unless the
receiver passes** ``allow_pickle=True``.  The worker only does so for
the one-shot batch broadcast that carries the task callable; task
frames decode strictly, so the old execute-any-pickle trust caveat is
retired for everything except that explicitly framed, checksummed blob.
"""

from __future__ import annotations

import importlib
import json
import pickle
import socket
import struct
import zlib
from dataclasses import fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

__all__ = [
    "WireError",
    "Pickled",
    "Frame",
    "register_struct",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "buffers_nbytes",
    "MAX_FRAME",
    "MSG_HELLO",
    "MSG_BATCH",
    "MSG_TASK",
    "MSG_RESULT",
    "MSG_HEARTBEAT",
    "MSG_PING",
    "MSG_SHUTDOWN",
]

MAGIC = b"SLW2"
VERSION = 1

# -- message types ------------------------------------------------------
MSG_HELLO = 1      #: worker → server: registration ({"worker", "pid"})
MSG_BATCH = 2      #: server → worker: one-shot broadcast (fn blob + context)
MSG_TASK = 3       #: server → worker: one task payload under header tag
MSG_RESULT = 4     #: worker → server: terminal state of the tagged task
MSG_HEARTBEAT = 5  #: worker → server: 24-byte liveness frame
MSG_PING = 6       #: server → worker: 24-byte idle-liveness frame
MSG_SHUTDOWN = 7   #: server → worker: drain and exit

#: magic, version, msg_type, n_sections, tag, body_len
_HEADER = struct.Struct(">4sBBHqQ")
#: kind, dtype, ndim, pad, crc32, data_len, shape[4]
_SECTION = struct.Struct(">BBBxIQ4Q")

#: Refuse absurd frames (corrupt header / non-protocol peer).
MAX_FRAME = 256 * 1024 * 1024
_MAX_SECTIONS = 65535
_MAX_DIMS = 4

# -- section kinds ------------------------------------------------------
_K_JSON = 1
_K_BYTES = 2
_K_NDARRAY = 3
_K_PICKLE = 4

# Wire dtypes are explicit little-endian so frames are portable across
# hosts regardless of native byte order.
_DTYPE_CODES: Dict[str, int] = {
    "<f8": 1, "<f4": 2, "<i8": 3, "<i4": 4, "<i2": 5, "<i1": 6,
    "<u8": 7, "<u4": 8, "<u2": 9, "|u1": 10, "|b1": 11, "<c16": 12,
}
_CODE_DTYPES = {code: np.dtype(name) for name, code in _DTYPE_CODES.items()}

#: Buffers below this size are coalesced into one bytes object per
#: frame; larger ones go to the socket as zero-copy memoryviews.
_COALESCE_LIMIT = 16 * 1024

_RESERVED_KEYS = frozenset({"__nd__", "__by__", "__tu__", "__it__", "__dc__", "__pk__"})

#: Sentinel: "leave the socket timeout alone" (recv_frame default).
_KEEP_TIMEOUT = object()


class WireError(ConnectionError):
    """The peer closed mid-frame or sent a malformed/refused frame."""


class Pickled:
    """Explicitly opt one payload subtree into pickle framing.

    The blob travels as a CRC-32-checksummed ``PICKLE`` section and is
    only unpickled by receivers that pass ``allow_pickle=True`` — the
    seam the batch broadcast uses for the task callable.
    """

    __slots__ = ("blob",)

    def __init__(self, obj: object) -> None:
        if isinstance(obj, (bytes, bytearray)):
            self.blob = bytes(obj)
        else:
            self.blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Registered dataclasses (pickle-free structured payloads)
# ----------------------------------------------------------------------
_STRUCTS: Dict[str, Type] = {}
_STRUCT_TYPES: Dict[Type, str] = {}


def register_struct(cls: Type) -> Type:
    """Allow ``cls`` (a dataclass) to travel the wire as a field map.

    Usable as a decorator.  Decoding an unregistered name imports its
    module first (``repro.*`` modules only) so worker processes that
    never imported the defining module still resolve it.
    """
    if not is_dataclass(cls):
        raise TypeError(f"register_struct needs a dataclass, got {cls!r}")
    key = f"{cls.__module__}:{cls.__qualname__}"
    _STRUCTS[key] = cls
    _STRUCT_TYPES[cls] = key
    return cls


def _resolve_struct(key: str) -> Type:
    cls = _STRUCTS.get(key)
    if cls is not None:
        return cls
    module = key.split(":", 1)[0]
    if module != "repro" and not module.startswith("repro."):
        raise WireError(f"refusing to resolve struct {key!r} outside repro.*")
    try:
        importlib.import_module(module)
    except ImportError as exc:
        raise WireError(f"cannot resolve struct {key!r}: {exc}") from exc
    cls = _STRUCTS.get(key)
    if cls is None:
        raise WireError(f"module {module!r} does not register struct {key!r}")
    return cls


# ----------------------------------------------------------------------
# Object codec
# ----------------------------------------------------------------------
def _wire_dtype(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    dt = arr.dtype
    if dt.byteorder == ">" or (dt.byteorder == "=" and not np.little_endian):
        arr = arr.astype(dt.newbyteorder("<"))
        dt = arr.dtype
    name = dt.str if dt.str in _DTYPE_CODES else dt.str.replace("=", "<")
    code = _DTYPE_CODES.get(name)
    if code is None:
        raise TypeError(f"dtype {dt} has no wire encoding")
    return arr, code


def _enc(obj: object, sections: List[Tuple[int, int, Tuple[int, ...], object]],
         allow_pickle: bool) -> object:
    """Encode one object into a JSON-able tree + out-of-band sections.

    Each ``sections`` entry is ``(kind, dtype_code, shape, buffer)``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return _enc(obj.item(), sections, allow_pickle)
    if isinstance(obj, np.ndarray):
        if obj.ndim > _MAX_DIMS:
            raise TypeError(f"arrays beyond {_MAX_DIMS} dims have no wire encoding")
        # ascontiguousarray promotes 0-d to 1-d, so keep the true shape.
        arr, code = _wire_dtype(np.ascontiguousarray(obj))
        sections.append((_K_NDARRAY, code, obj.shape, memoryview(arr).cast("B")))
        return {"__nd__": len(sections) - 1}
    if isinstance(obj, (bytes, bytearray, memoryview)):
        sections.append((_K_BYTES, 0, (), bytes(obj)))
        return {"__by__": len(sections) - 1}
    if isinstance(obj, Pickled):
        sections.append((_K_PICKLE, 0, (), obj.blob))
        return {"__pk__": len(sections) - 1}
    if isinstance(obj, tuple):
        return {"__tu__": [_enc(v, sections, allow_pickle) for v in obj]}
    if isinstance(obj, list):
        return [_enc(v, sections, allow_pickle) for v in obj]
    if isinstance(obj, dict):
        plain = all(isinstance(k, str) for k in obj) and not (
            _RESERVED_KEYS & obj.keys()
        )
        if plain:
            return {k: _enc(v, sections, allow_pickle) for k, v in obj.items()}
        return {"__it__": [
            [_enc(k, sections, allow_pickle), _enc(v, sections, allow_pickle)]
            for k, v in obj.items()
        ]}
    key = _STRUCT_TYPES.get(type(obj))
    if key is not None:
        return {"__dc__": key, "f": {
            f.name: _enc(getattr(obj, f.name), sections, allow_pickle)
            for f in fields(obj)
        }}
    if allow_pickle:
        return _enc(Pickled(obj), sections, allow_pickle)
    raise TypeError(
        f"object of type {type(obj).__name__} is not wire-encodable; use plain "
        "data / numpy arrays / register_struct dataclasses, or wrap it in "
        "wire.Pickled for an explicit (checksummed, receiver-gated) blob"
    )


def _dec(node: object, sections: Sequence[object], allow_pickle: bool) -> object:
    if isinstance(node, list):
        return [_dec(v, sections, allow_pickle) for v in node]
    if not isinstance(node, dict):
        return node
    if "__nd__" in node and len(node) == 1:
        return sections[node["__nd__"]]
    if "__by__" in node and len(node) == 1:
        return sections[node["__by__"]]
    if "__pk__" in node and len(node) == 1:
        blob = sections[node["__pk__"]]
        if not allow_pickle:
            raise WireError(
                "frame carries a pickle section but the receiver did not opt in"
            )
        return pickle.loads(blob)
    if "__tu__" in node and len(node) == 1:
        return tuple(_dec(v, sections, allow_pickle) for v in node["__tu__"])
    if "__it__" in node and len(node) == 1:
        return {
            _dec(k, sections, allow_pickle): _dec(v, sections, allow_pickle)
            for k, v in node["__it__"]
        }
    if "__dc__" in node and len(node) == 2 and "f" in node:
        cls = _resolve_struct(node["__dc__"])
        return cls(**{
            k: _dec(v, sections, allow_pickle) for k, v in node["f"].items()
        })
    return {k: _dec(v, sections, allow_pickle) for k, v in node.items()}


# ----------------------------------------------------------------------
# Frame assembly / parsing
# ----------------------------------------------------------------------
def encode_frame(
    msg_type: int,
    tag: int = 0,
    payload: object = None,
    *,
    allow_pickle: bool = True,
    with_payload: bool = True,
) -> List[object]:
    """Build one frame as a list of send buffers (scatter-gather).

    ``with_payload=False`` produces a 24-byte control frame (heartbeat,
    ping, shutdown) with no sections at all.  The first buffer is the
    header plus section table plus coalesced small payloads; large
    array/bytes buffers follow as zero-copy memoryviews.
    """
    # Placeholders in the JSON tree index *auxiliary* sections (0-based);
    # the root JSON section itself always travels as table entry 0, so
    # aux section i sits at table entry i+1 on both sides.
    sections: List[Tuple[int, int, Tuple[int, ...], object]] = []
    if with_payload:
        tree = _enc(payload, sections, allow_pickle)
        root = json.dumps(tree, separators=(",", ":")).encode("utf-8")
        sections.insert(0, (_K_JSON, 0, (), root))
    if len(sections) > _MAX_SECTIONS:
        raise TypeError(f"payload needs {len(sections)} sections (max {_MAX_SECTIONS})")
    table = bytearray()
    body_len = len(sections) * _SECTION.size
    datas: List[object] = []
    for kind, dtype_code, shape, buf in sections:
        data_len = len(buf)
        crc = zlib.crc32(buf) if kind == _K_PICKLE else 0
        dims = list(shape) + [0] * (_MAX_DIMS - len(shape))
        table += _SECTION.pack(kind, dtype_code, len(shape), crc, data_len, *dims)
        datas.append(buf)
        body_len += data_len
    if body_len > MAX_FRAME:
        raise TypeError(f"frame of {body_len} bytes exceeds protocol maximum")
    header = _HEADER.pack(MAGIC, VERSION, msg_type, len(sections), tag, body_len)

    # Coalesce the header, table and small payloads; keep big buffers
    # as views so arrays are never copied on their way to the socket.
    buffers: List[object] = []
    small = bytearray(header)
    small += table
    for buf in datas:
        if len(buf) < _COALESCE_LIMIT:
            small += buf
        else:
            buffers.append(bytes(small))
            small = bytearray()
            buffers.append(buf)
    if small:
        buffers.append(bytes(small))
    return buffers


def buffers_nbytes(buffers: Sequence[object]) -> int:
    """Total wire size of an encoded frame."""
    return sum(len(b) for b in buffers)


class Frame:
    """One received frame: header fields plus a lazily-decoded payload.

    Decoding is deferred so the receiver can gate pickle sections per
    message type (e.g. allow them for the batch broadcast only).
    """

    __slots__ = ("msg_type", "tag", "nbytes", "_sections", "_root", "_cache")

    def __init__(self, msg_type: int, tag: int, nbytes: int,
                 sections: Optional[List[object]], root: Optional[bytes]) -> None:
        self.msg_type = msg_type
        self.tag = tag
        self.nbytes = nbytes
        self._sections = sections
        self._root = root
        self._cache: Dict[bool, object] = {}

    def payload(self, allow_pickle: bool = False) -> object:
        """Decode the payload object (``None`` for control frames)."""
        if self._root is None:
            return None
        if allow_pickle not in self._cache:
            tree = json.loads(self._root.decode("utf-8"))
            self._cache[allow_pickle] = _dec(tree, self._sections, allow_pickle)
        return self._cache[allow_pickle]


def _parse_body(msg_type: int, tag: int, n_sections: int, body: memoryview,
                nbytes: int) -> Frame:
    if n_sections == 0:
        if len(body):
            raise WireError("control frame carries unexpected body bytes")
        return Frame(msg_type, tag, nbytes, None, None)
    table_len = n_sections * _SECTION.size
    if len(body) < table_len:
        raise WireError("frame body shorter than its section table")
    offset = table_len
    root: Optional[bytes] = None
    sections: List[object] = []
    for k in range(n_sections):
        entry = _SECTION.unpack_from(body, k * _SECTION.size)
        kind, dtype_code, ndim, crc, data_len = entry[:5]
        dims = entry[5:5 + _MAX_DIMS]
        if offset + data_len > len(body):
            raise WireError("section data overruns the frame body")
        data = body[offset:offset + data_len]
        offset += data_len
        if kind == _K_JSON:
            if k != 0:
                raise WireError("JSON root must be section 0")
            root = bytes(data)
        elif kind == _K_BYTES:
            sections.append(bytes(data))
        elif kind == _K_NDARRAY:
            dtype = _CODE_DTYPES.get(dtype_code)
            if dtype is None:
                raise WireError(f"unknown wire dtype code {dtype_code}")
            if ndim > _MAX_DIMS:
                raise WireError(f"array section with {ndim} dims")
            shape = tuple(int(d) for d in dims[:ndim])
            if any(d > MAX_FRAME for d in shape):
                raise WireError("array section with an absurd dimension")
            expected = dtype.itemsize
            for d in shape:
                expected *= d
            if expected != data_len:
                raise WireError(
                    f"array section shape {shape} x {dtype} needs {expected} "
                    f"bytes, frame carries {data_len}"
                )
            arr = np.frombuffer(data, dtype=dtype).reshape(shape)
            arr.flags.writeable = False
            sections.append(arr)
        elif kind == _K_PICKLE:
            if zlib.crc32(data) != crc:
                raise WireError("pickle section failed its checksum")
            sections.append(bytes(data))
        else:
            raise WireError(f"unknown section kind {kind}")
    if offset != len(body):
        raise WireError("frame body longer than its sections")
    if root is None:
        raise WireError("payload frame is missing its JSON root section")
    return Frame(msg_type, tag, nbytes, sections, root)


def decode_frame(buffer) -> Frame:
    """Parse one complete frame from an in-memory buffer.

    This is the attach path for ``multiprocessing.shared_memory``
    segments: the pool backend writes an encoded frame into the segment
    once, and every worker maps it and decodes views in place.
    """
    view = memoryview(buffer)
    if len(view) < _HEADER.size:
        raise WireError("buffer shorter than a frame header")
    magic, version, msg_type, n_sections, tag, body_len = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise WireError("buffer does not start with a slimcodeml frame")
    if version != VERSION:
        raise WireError(f"frame protocol version {version} (expected {VERSION})")
    if body_len > len(view) - _HEADER.size:
        raise WireError("frame body overruns the buffer")
    body = view[_HEADER.size:_HEADER.size + body_len]
    return _parse_body(msg_type, tag, n_sections, body, _HEADER.size + body_len)


# ----------------------------------------------------------------------
# Socket I/O
# ----------------------------------------------------------------------
def _send_buffers(sock: socket.socket, buffers: Sequence[object]) -> int:
    total = 0
    for buf in buffers:
        sock.sendall(buf)
        total += len(buf)
    return total


def send_frame(
    sock: socket.socket,
    msg_type: int,
    tag: int = 0,
    payload: object = None,
    *,
    allow_pickle: bool = True,
    with_payload: bool = True,
) -> int:
    """Encode and send one frame; returns the bytes put on the wire."""
    return _send_buffers(
        sock,
        encode_frame(msg_type, tag, payload,
                     allow_pickle=allow_pickle, with_payload=with_payload),
    )


def send_buffers(sock: socket.socket, buffers: Sequence[object]) -> int:
    """Send a pre-encoded frame (the broadcast path: encode once, send
    to every worker)."""
    return _send_buffers(sock, buffers)


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> Optional[bytearray]:
    """Read exactly ``n`` bytes into a fresh buffer.

    Returns ``None`` on a clean EOF before the first byte when
    ``at_boundary`` (frame boundary); raises :class:`WireError` on EOF
    anywhere else.  ``socket.timeout`` propagates.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            if got == 0 and at_boundary:
                return None
            raise WireError("connection closed mid-frame")
        got += k
    return buf


def recv_frame(
    sock: socket.socket,
    *,
    timeout: object = _KEEP_TIMEOUT,
) -> Optional[Frame]:
    """Receive one frame; ``None`` on clean EOF at a frame boundary.

    ``timeout`` (seconds or ``None`` for blocking), when given, applies
    for the duration of this call only — the socket's previous timeout
    is restored afterwards, so a framed read can never silently change
    the blocking behaviour of later operations on the connection.
    Raises ``socket.timeout`` when no full frame arrives in time and
    :class:`WireError` on torn, malformed or oversized frames.
    """
    prev = sock.gettimeout() if timeout is not _KEEP_TIMEOUT else None
    if timeout is not _KEEP_TIMEOUT:
        sock.settimeout(timeout)  # type: ignore[arg-type]
    try:
        header = _recv_exact(sock, _HEADER.size, at_boundary=True)
        if header is None:
            return None
        magic, version, msg_type, n_sections, tag, body_len = _HEADER.unpack(bytes(header))
        if magic != MAGIC:
            raise WireError("peer is not speaking the slimcodeml frame protocol")
        if version != VERSION:
            raise WireError(f"frame protocol version {version} (expected {VERSION})")
        if body_len > MAX_FRAME:
            raise WireError(f"frame of {body_len} bytes exceeds protocol maximum")
        if n_sections > _MAX_SECTIONS:
            raise WireError(f"frame with {n_sections} sections exceeds protocol maximum")
        body = bytearray()
        if body_len:
            got = _recv_exact(sock, body_len, at_boundary=False)
            assert got is not None
            body = got
        return _parse_body(msg_type, tag, n_sections, memoryview(body),
                           _HEADER.size + body_len)
    finally:
        if timeout is not _KEEP_TIMEOUT:
            sock.settimeout(prev)
