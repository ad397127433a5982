"""Tests for the evaluation service's JSON-lines TCP transport."""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import evaluate, evaluate_batch
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.environments import ScenarioGenerator
from repro.errors import ConfigurationError, ServeError
from repro.serve import EvaluationService, ServeClient, ServeServer
from repro.serialize import design_from_dict, design_to_dict, \
    metrics_to_dict
from repro.units import uF
from repro.workloads import zoo


@pytest.fixture(scope="module")
def designs():
    network = zoo.har_cnn()
    return [
        AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=6.0 + 2.0 * index,
                         capacitance_f=uF(100)),
            InferenceDesign.msp430(), network, n_tiles=2)
        for index in range(3)
    ]


def _run_with_server(coroutine_fn, **service_kwargs):
    """Start service + server, run ``coroutine_fn(service, host, port)``."""

    async def main():
        service = EvaluationService(**service_kwargs)
        async with service, ServeServer(service) as server:
            host, port = server.address
            return await coroutine_fn(service, host, port)

    return asyncio.run(main())


def test_round_trip_matches_local_evaluation(designs):
    async def scenario(service, host, port):
        async with await ServeClient.connect(host, port) as client:
            return await client.evaluate(designs[0], "har")

    remote = _run_with_server(scenario)
    local = evaluate(designs[0], "har", fidelity="analytical")
    assert remote.workload == local.workload
    assert remote.fidelity == "analytical"
    assert remote.feasible == local.feasible
    assert remote.metrics == local.metrics
    assert remote.by_environment == local.by_environment


def test_concurrent_clients_share_one_service(designs):
    admitted = []  # the service, once started

    def evaluate_when_all_admitted(designs, network, environments,
                                   checkpoint):
        # Hold every flush until all 6 requests are admitted (or 10 s
        # pass), so each duplicate of designs[0] arrives while its twin
        # is in flight.
        deadline = time.monotonic() + 10.0
        while (admitted[0].stats.requests < 6
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return evaluate_batch(list(designs), network,
                              environments=list(environments),
                              checkpoint=checkpoint)

    async def scenario(service, host, port):
        admitted.append(service)

        async def one_client(index):
            async with await ServeClient.connect(host, port) as client:
                # every client also asks for designs[0]: across-client
                # duplicates must coalesce server-side
                mine = await asyncio.gather(
                    client.evaluate(designs[index], "har"),
                    client.evaluate(designs[0], "har"))
                return mine

        results = await asyncio.gather(*[one_client(i) for i in range(3)])
        return service.stats, results

    stats, results = _run_with_server(
        scenario, evaluate_batch_fn=evaluate_when_all_admitted)
    assert stats.requests == 6
    assert stats.coalesced == 3  # four requests for designs[0], one priced
    assert stats.evaluated == 3
    for index, (mine, first) in enumerate(results):
        assert mine.metrics == evaluate(designs[index], "har",
                                        fidelity="analytical").metrics
        assert first.metrics == results[0][0].metrics


def test_remote_errors_map_back_to_library_types(designs):
    async def scenario(service, host, port):
        async with await ServeClient.connect(host, port) as client:
            with pytest.raises(ConfigurationError):
                await client.evaluate(designs[0], "no-such-workload")
            with pytest.raises(ConfigurationError):
                await client.evaluate(designs[0], "har",
                                      environment="no-such-env")
            # the connection survives failed requests
            return await client.evaluate(designs[0], "har")

    remote = _run_with_server(scenario)
    assert remote.feasible == evaluate(designs[0], "har",
                                       fidelity="analytical").feasible


def test_trace_label_requests_build_no_environments(designs, spec_builds):
    (label,) = ScenarioGenerator(name="net-built-once", seed=3, count=1,
                                 families=("cloudy",)).expand()
    spec_builds.clear()

    async def scenario(service, host, port):
        async with await ServeClient.connect(host, port) as client:
            return await asyncio.gather(*[
                client.evaluate(designs[index % len(designs)], "har",
                                environment=label)
                for index in range(8)])

    remote = _run_with_server(scenario)
    assert spec_builds == []
    for index, report in enumerate(remote):
        local = evaluate(designs[index % len(designs)], "har",
                         scenario=label, fidelity="analytical")
        assert report.metrics == local.metrics
        assert report.by_environment == local.by_environment


def test_requests_build_no_accelerator_after_the_first(designs,
                                                       monkeypatch):
    """Every flush prices on the process's one MSP430 cost model: after
    the first request, no request builds an accelerator."""
    builds = []
    build = InferenceDesign.build
    monkeypatch.setattr(InferenceDesign, "build",
                        lambda self: builds.append(self) or build(self))

    async def scenario(service, host, port):
        async with await ServeClient.connect(host, port) as client:
            await client.evaluate(designs[0], "har")
            builds.clear()
            for index in range(6):
                await client.evaluate(designs[index % len(designs)], "har")

    _run_with_server(scenario)
    assert builds == []


def test_malformed_request_line_gets_error_response(designs):
    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"this is not json\n")
        garbage = json.loads(await reader.readline())
        writer.write(json.dumps({"id": 9}).encode() + b"\n")  # no design
        missing = json.loads(await reader.readline())
        # a well-formed request on the same connection still works
        writer.write(json.dumps({
            "id": 10, "design": design_to_dict(designs[0]),
            "workload": "har"}).encode() + b"\n")
        good = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        return garbage, missing, good

    garbage, missing, good = _run_with_server(scenario)
    assert garbage["ok"] is False
    assert missing["ok"] is False and missing["id"] == 9
    assert good["ok"] is True and good["id"] == 10
    assert good["report"]["fidelity"] == "analytical"


def test_server_close_fails_pending_client_calls(designs):
    async def main():
        service = EvaluationService()
        async with service:
            server = await ServeServer(service).start()
            host, port = server.address
            client = await ServeClient.connect(host, port)
            report = await client.evaluate(designs[0], "har")
            await server.stop()
            await asyncio.sleep(0.05)  # let the client see the EOF
            with pytest.raises(ServeError):
                await client.evaluate(designs[1], "har")
            await client.close()
            return report

    report = asyncio.run(main())
    assert report.metrics == evaluate(designs[0], "har",
                                      fidelity="analytical").metrics


def _bad_report(line: bytes) -> bytes:
    """An ``ok`` response to the request whose metric has the wrong type."""
    request = json.loads(line)
    metrics = dict(metrics_to_dict(evaluate(
        design_from_dict(request["design"]), "har",
        fidelity="analytical").metrics), e2e_latency="x")
    return json.dumps({"id": request["id"], "ok": True, "report": {
        "workload": "har", "fidelity": "analytical", "feasible": True,
        "metrics": metrics, "by_environment": {}}}).encode() + b"\n"


#: Peers that do not speak the protocol: what each sends on connect,
#: how it answers each request line, and what the client must raise.
FAKE_SERVERS = [
    (b"", lambda line: b"garbage\n", ServeError),
    (b"", lambda line: b"[1, 2]\n", ServeError),
    (b"welcome to some other service\n", lambda line: b"", ServeError),
    (b"", lambda line: b"x" * 70_000 + b"\n", ServeError),  # > 64 KiB
    (b"", _bad_report, ConfigurationError),
]


@pytest.mark.parametrize("greeting, answer, error", FAKE_SERVERS,
                         ids=["garbage", "array", "banner", "long-line",
                              "bad-metric"])
def test_client_fails_fast_against_a_fake_server(designs, greeting, answer,
                                                 error):
    """A response line that is not a JSON object fails every pending
    call with ServeError, and a wrong-typed report raises too, instead
    of leaving ``evaluate`` waiting forever."""

    async def handle(reader, writer):
        writer.write(greeting)
        while line := await reader.readline():
            writer.write(answer(line))
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(error):
                    await asyncio.wait_for(
                        client.evaluate(designs[0], "har"), timeout=2.0)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())


#: Any value ``json.loads`` can return, non-finite floats included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)


def _probes(design):
    """Request lines of the wrong JSON shape, each with the field its
    error response must name."""
    valid = {"id": 3, "design": design, "workload": "har"}
    return [
        ([1, 2], "object"),
        ("just a string", "object"),
        (None, "object"),
        ({"id": 1, "design": [], "workload": "har"}, "'design'"),
        (dict(valid, environment=5), "'environment'"),
        (dict(valid, workload=7), "'workload'"),
        (dict(valid, workload=["har"]), "'workload'"),
        (dict(valid, fidelity=1.5), "'fidelity'"),
        (dict(valid, deadline_s="soon"), "'deadline_s'"),
        (dict(valid, deadline_s=float("nan")), "'deadline_s'"),
    ]


def test_wrong_shaped_lines_get_one_error_each(designs):
    design = design_to_dict(designs[0])
    probes = _probes(design)

    async def scenario(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        responses = []
        for payload, _ in probes:
            writer.write(json.dumps(payload).encode() + b"\n")
            responses.append(json.loads(
                await asyncio.wait_for(reader.readline(), timeout=5.0)))
        writer.write(json.dumps({"id": 11, "design": design,
                                 "workload": "har"}).encode() + b"\n")
        good = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
        writer.close()
        await writer.wait_closed()
        return responses, good

    responses, good = _run_with_server(scenario)
    for (payload, field), response in zip(probes, responses):
        assert response["ok"] is False, payload
        assert response["error"] == "ServeError", response
        assert field in response["message"], response
        expected_id = payload.get("id") if isinstance(payload, dict) else None
        assert response["id"] == expected_id
    assert good["ok"] is True and good["id"] == 11


def _exchange(address, line: bytes):
    """Send one line, close the write side, return every response line."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(line + b"\n")
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).splitlines()


@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_line_gets_exactly_one_response(server_address, value):
    responses = _exchange(server_address, json.dumps(value).encode())
    assert len(responses) == 1
    assert json.loads(responses[0])["ok"] is False


@settings(max_examples=60, deadline=None)
@given(fields=st.fixed_dictionaries({}, optional={
    name: JSON_VALUES for name in ("id", "design", "workload",
                                   "environment", "fidelity",
                                   "deadline_s")}))
def test_any_field_values_get_exactly_one_response(server_address, fields):
    responses = _exchange(server_address, json.dumps(fields).encode())
    assert len(responses) == 1
    # compared as JSON text: a NaN id is echoed, but NaN != NaN
    assert (json.dumps(json.loads(responses[0])["id"])
            == json.dumps(fields.get("id")))


def test_non_finite_design_gets_one_error_response(server_address,
                                                   designs):
    design = design_to_dict(designs[0])
    design["energy"]["panel_area_cm2"] = float("nan")
    line = json.dumps({"id": 4, "design": design, "workload": "har"})
    assert '"panel_area_cm2": NaN' in line
    responses = _exchange(server_address, line.encode())
    assert len(responses) == 1
    response = json.loads(responses[0])
    assert response["ok"] is False and response["id"] == 4
    assert response["error"] == "ConfigurationError"
    assert "panel_area_cm2" in response["message"]
