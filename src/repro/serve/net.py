"""Newline-delimited-JSON transport for the evaluation service.

One TCP connection carries any number of concurrent requests: each
request is a single JSON line tagged with a client-chosen ``id``, and
responses come back as JSON lines tagged with the same ``id`` — in
*completion* order, not submission order, so slow requests never head-
of-line-block fast ones on the same socket.

Request line::

    {"id": 7, "design": {...design_to_dict...}, "workload": "har",
     "environment": "paper", "fidelity": "analytical",
     "deadline_s": 2.0}

``environment`` is any label the server's registry resolves (a preset
such as ``"paper"``, ``"scenario:<name>"``, or a registered or
generated trace label) and defaults to ``"paper"``; ``fidelity`` and
``deadline_s`` are optional.  Response line::

    {"id": 7, "ok": true, "report": {"workload": ..., "fidelity": ...,
     "feasible": ..., "metrics": {...}, "by_environment": {...}}}

or, on failure, ``{"id": 7, "ok": false, "error": "<ChrysalisError
subclass name>", "message": "..."}``.  The client maps the error name
back onto the library's exception hierarchy, so remote failures raise
the same types local calls would (:class:`ServiceOverloadError`,
:class:`EvaluationTimeout`, ...).

Everything here is stdlib asyncio; the server is a thin shim that
forwards to an in-process :class:`~repro.serve.service.EvaluationService`
— coalescing and micro-batching happen there, across *all* connections.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro import errors as errors_module
from repro.errors import (
    ChrysalisError,
    ServeError,
    ServiceClosedError,
    _config_field,
)
from repro.sim.metrics import InferenceMetrics
from repro.serialize import design_from_dict, design_to_dict, \
    metrics_from_dict, metrics_to_dict, _metrics_by_env
from repro.serve.service import EvaluationService


def _encode(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


class ServeServer:
    """TCP front of one :class:`EvaluationService`.

    ::

        service = EvaluationService()
        async with service, ServeServer(service, port=7777) as server:
            host, port = server.address
            ...

    The server owns only the transport; start/stop the service
    separately (stopping the service first drains in-flight work, after
    which remaining connections receive ``ServiceClosedError``
    responses).
    """

    def __init__(self, service: EvaluationService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ServiceClosedError("server is not running")
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start(self) -> "ServeServer":
        if self._server is not None:
            raise ServiceClosedError("server is already running")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port)
        return self

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Closing the listener leaves established connections alive;
        # close them too (their handlers then wind down on EOF).
        for writer in list(self._writers):
            writer.close()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def __aenter__(self) -> "ServeServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        requests: Set[asyncio.Task] = set()
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                requests.add(task)
                self._tasks.add(task)
                task.add_done_callback(requests.discard)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._writers.discard(writer)
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        request_id: Any = None
        try:
            payload = json.loads(line)
            if isinstance(payload, dict):
                request_id = payload.get("id")
            _check_request(payload)
            response = await self._respond(payload)
        except ChrysalisError as exc:
            response = {"id": request_id, "ok": False,
                        "error": type(exc).__name__, "message": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            response = {"id": request_id, "ok": False,
                        "error": "ServeError",
                        "message": f"malformed request: {exc}"}
        async with write_lock:
            try:
                writer.write(_encode(response))
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover
                pass  # client went away; nothing to tell it

    async def _respond(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        design = design_from_dict(payload["design"])
        report = await self.service.submit(
            design, payload["workload"],
            scenario=payload.get("environment", "paper"),
            fidelity=payload.get("fidelity", "analytical"),
            deadline_s=payload.get("deadline_s"))
        return {
            "id": payload.get("id"),
            "ok": True,
            "report": {
                "workload": report.workload,
                "fidelity": report.fidelity,
                "feasible": report.feasible,
                "metrics": metrics_to_dict(report.metrics),
                "by_environment": {
                    name: metrics_to_dict(metrics)
                    for name, metrics in report.by_environment.items()},
            },
        }


#: The request fields that must be strings when present.
_STRING_FIELDS = ("workload", "environment", "fidelity")


def _check_request(payload: Any) -> None:
    """Raise :class:`ServeError` naming the first field of the wrong
    JSON type; ``_respond`` may then use the payload as it is."""
    if not isinstance(payload, dict):
        raise ServeError(f"malformed request: a request line must be a "
                         f"JSON object, got {type(payload).__name__}")
    if "design" in payload and not isinstance(payload["design"], dict):
        raise ServeError("malformed request: field 'design' must be an "
                         "object")
    for name in _STRING_FIELDS:
        if name in payload and not isinstance(payload[name], str):
            raise ServeError(f"malformed request: field {name!r} must be "
                             f"a string")
    deadline = payload.get("deadline_s")
    if deadline is not None and not _finite_number(deadline):
        raise ServeError("malformed request: field 'deadline_s' must be a "
                         "finite number or null")


def _finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass
class RemoteReport:
    """Client-side view of one evaluation (wire form, re-typed)."""

    workload: str
    fidelity: str
    feasible: bool
    metrics: InferenceMetrics
    by_environment: Dict[str, InferenceMetrics] = field(default_factory=dict)


class ServeClient:
    """Asyncio client for :class:`ServeServer`'s JSON-lines protocol.

    Safe for concurrent use: any number of coroutines may call
    :meth:`evaluate` on one client; responses are matched by id.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._receiver = asyncio.ensure_future(self._receive_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:  # refused, unreachable, unknown host
            raise ServiceClosedError(
                f"cannot connect to {host}:{port}: {exc}") from None
        return cls(reader, writer)

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def close(self) -> None:
        self._receiver.cancel()
        try:
            await self._receiver
        except asyncio.CancelledError:
            pass
        self._fail_pending(ServiceClosedError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def evaluate(self, design: Any, workload: str, *,
                       environment: str = "paper",
                       fidelity: str = "analytical",
                       deadline_s: Optional[float] = None) -> RemoteReport:
        if self._receiver.done():
            raise ServiceClosedError("connection closed")
        request_id = next(self._ids)
        payload: Dict[str, Any] = {
            "id": request_id,
            "design": design_to_dict(design),
            "workload": workload,
            "environment": environment,
            "fidelity": fidelity,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(_encode(payload))
        await self._writer.drain()
        data = await future
        record = "serve report"
        return RemoteReport(
            workload=_config_field(record, data, "workload"),
            fidelity=_config_field(record, data, "fidelity"),
            feasible=_config_field(record, data, "feasible"),
            metrics=_config_field(record, data, "metrics", metrics_from_dict),
            by_environment=_config_field(record, data, "by_environment",
                                         _metrics_by_env))

    # -- wire handling --------------------------------------------------------

    async def _receive_loop(self) -> None:
        """Resolve pending requests until the connection ends; EOF, a
        lost connection or a line outside the protocol fails them all."""
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except ValueError as exc:  # longer than the reader's limit
                    raise ServeError(
                        f"malformed response line: {exc}") from None
                if not line:
                    raise ServiceClosedError("server closed the connection")
                self._dispatch(line)
        except ServeError as exc:
            self._fail_pending(exc)
        except (ConnectionError, OSError) as exc:
            self._fail_pending(ServiceClosedError(f"connection lost: {exc}"))

    def _dispatch(self, line: bytes) -> None:
        try:
            response = json.loads(line)
            future = self._pending.pop(response.get("id"), None)
        except (ValueError, TypeError, AttributeError):
            # Not a JSON object with a hashable id (a text banner, an
            # array, ...): nothing after it can be trusted either.
            raise ServeError(
                f"malformed response line {line[:80]!r}") from None
        if future is None or future.done():
            return
        if response.get("ok"):
            future.set_result(response.get("report"))
        else:
            future.set_exception(self._as_error(response))

    @staticmethod
    def _as_error(response: Dict[str, Any]) -> ChrysalisError:
        """Raise remote failures as the types local calls would raise."""
        name = response.get("error", "ServeError")
        message = response.get("message", "remote evaluation failed")
        error_cls = getattr(errors_module, str(name), None)
        if isinstance(error_cls, type) \
                and issubclass(error_cls, ChrysalisError):
            return error_cls(message)
        return ServeError(f"{name}: {message}")

    def _fail_pending(self, error: ChrysalisError) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()


__all__ = ["RemoteReport", "ServeClient", "ServeServer"]
