"""Worker-side loop for the socket executor (``slimcodeml worker``).

A worker is deliberately dumb: connect, say hello, receive the batch
broadcast (the pickled task callable — the only frame this process
will ever unpickle — plus the batch's shared read-only context), then
loop: receive a strictly-decoded ``TASK`` frame, run it, stream the
result back, repeat.  A daemon thread heartbeats every couple of
seconds so the server can tell a *hung task* (heartbeats keep flowing,
the deadline trips) from a *dead worker* (silence / EOF).  All fault
policy — retries, backoff, attribution — lives with the server's
driver, never here.

The task loop's read is bounded by ``idle_timeout``: the coordinator
pings every couple of seconds while idle, so prolonged silence means
it is hung or partitioned — the worker exits cleanly instead of
blocking forever (the old untimed read wedged workers behind a frozen
coordinator while their heartbeats kept flowing).
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Optional, Tuple

from repro.parallel.executors import wire
from repro.parallel.executors.wire import WireError

__all__ = ["run_worker", "parse_address", "HEARTBEAT_INTERVAL"]

#: Seconds between idle/busy heartbeats (well under the server's
#: default 15 s ``heartbeat_timeout``).
HEARTBEAT_INTERVAL = 2.0

#: Default seconds of coordinator silence before a worker gives up.
#: Generous relative to the coordinator's ~2 s idle ping, so only a
#: genuinely hung or partitioned coordinator trips it.
DEFAULT_IDLE_TIMEOUT = 60.0


def parse_address(spec: str) -> Tuple[str, int]:
    """``host:port`` → tuple (the CLI's ``--connect`` argument)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {spec!r}")
    return host, int(port)


def _log(name: str, message: str) -> None:
    print(f"[worker {name}] {message}", file=sys.stderr, flush=True)


def _heartbeat_loop(sock: socket.socket, send_lock: threading.Lock,
                    stop: threading.Event) -> None:
    buffers = wire.encode_frame(wire.MSG_HEARTBEAT, with_payload=False)
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            with send_lock:
                wire.send_buffers(sock, buffers)
        except OSError:
            return


def _reply_error(sock: socket.socket, send_lock: threading.Lock, tag: int,
                 error_type: str, message: str, elapsed: float) -> None:
    reply = {"ok": False, "error_type": error_type,
             "message": message, "elapsed": elapsed}
    with send_lock:
        wire.send_frame(sock, wire.MSG_RESULT, tag, reply)


def run_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    max_tasks: Optional[int] = None,
    connect_timeout: float = 30.0,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
) -> int:
    """Serve tasks from ``host:port`` until told to stop.

    Returns the number of tasks completed (successes *and* captured
    errors both count — either way the worker did its job).  Exits on
    a ``SHUTDOWN`` frame, on EOF (server gone), after ``max_tasks``
    tasks, or after ``idle_timeout`` seconds of total coordinator
    silence (``0`` disables the idle exit).
    """
    worker_name = name or f"{socket.gethostname()}:pid{os.getpid()}"
    recv_timeout: Optional[float] = idle_timeout if idle_timeout > 0 else None
    # Workers may legitimately start before the coordinator binds its
    # port (fleet-first deployment), so refused connections retry until
    # ``connect_timeout`` elapses.
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop = threading.Event()
    with send_lock:
        wire.send_frame(sock, wire.MSG_HELLO, 0,
                        {"worker": worker_name, "pid": os.getpid()})
    threading.Thread(
        target=_heartbeat_loop, args=(sock, send_lock, stop),
        name="slimcodeml-heartbeat", daemon=True,
    ).start()

    fn = None
    context: object = None
    done = 0
    try:
        while True:
            try:
                msg = wire.recv_frame(sock, timeout=recv_timeout)
            except socket.timeout:
                _log(worker_name,
                     f"coordinator silent for {idle_timeout:g}s; exiting")
                break
            except (OSError, WireError):
                break
            if msg is None or msg.msg_type == wire.MSG_SHUTDOWN:
                break
            if msg.msg_type == wire.MSG_BATCH:
                # The broadcast's fn blob is the only pickle this
                # process executes — explicit, CRC-checked, and sent by
                # the coordinator this worker dialled out to.
                try:
                    batch = msg.payload(allow_pickle=True)
                except (WireError, Exception):  # noqa: BLE001
                    break  # poisoned broadcast: nothing sane to run
                fn = batch.get("fn")
                context = batch.get("context")
                continue
            if msg.msg_type != wire.MSG_TASK:
                continue  # pings and stale frames
            if fn is None:
                _reply_error(sock, send_lock, msg.tag, "ProtocolError",
                             "task before batch broadcast", 0.0)
                continue
            try:
                # Strict decode: a task frame carrying a pickle section
                # is refused here, not executed.
                payload = msg.payload(allow_pickle=False)
            except WireError as exc:
                _reply_error(sock, send_lock, msg.tag, "WireError",
                             str(exc), 0.0)
                continue
            started = time.perf_counter()
            try:
                result = fn(payload, context)
            except Exception as exc:  # noqa: BLE001 - faults become messages
                try:
                    _reply_error(sock, send_lock, msg.tag,
                                 type(exc).__name__, str(exc),
                                 time.perf_counter() - started)
                except OSError:
                    break
            else:
                elapsed = time.perf_counter() - started
                try:
                    buffers = wire.encode_frame(
                        wire.MSG_RESULT, msg.tag,
                        {"ok": True, "result": result, "elapsed": elapsed},
                    )
                except Exception as exc:  # noqa: BLE001 - unencodable result
                    try:
                        _reply_error(sock, send_lock, msg.tag,
                                     "ResultEncodeError", str(exc), elapsed)
                    except OSError:
                        break
                else:
                    try:
                        with send_lock:
                            wire.send_buffers(sock, buffers)
                    except OSError:
                        break
            done += 1
            if max_tasks is not None and done >= max_tasks:
                break
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
    return done
