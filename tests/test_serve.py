"""Tests for the always-on evaluation service (repro.serve).

The behavioral tests (coalescing, flush triggers, deadlines, shedding)
inject fake evaluation functions and a fake clock, so they are
deterministic and never pay for a real evaluation; the fidelity tests
at the bottom run the real analytical engine and pin the service's
bit-identity against direct :func:`repro.api.evaluate` calls.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import threading
import time
import weakref

import pytest

from repro.api import EvalRequest, evaluate, evaluate_many, serve
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.energy.traces import TraceEnvironment, TraceSegment
from repro.errors import (ConfigurationError, EvaluationTimeout,
                          InfeasibleDesignError, ServiceClosedError,
                          ServiceOverloadError)
from repro.hardware.checkpoint import CheckpointModel
from repro.hardware.memory import FRAM
from repro.obs.registry import MetricsRegistry
from repro.serialize import design_from_dict, design_to_dict
from repro.serve import EvaluationService, ServeConfig, ServeStats
from repro.units import uF
from repro.workloads import zoo
from repro.workloads.layers import Dense
from repro.workloads.network import Network


def _designs(network, count):
    """``count`` distinct valid designs (panel-area sweep)."""
    designs = []
    for index in range(count):
        energy = EnergyDesign(panel_area_cm2=6.0 + 2.0 * index,
                              capacitance_f=uF(100))
        designs.append(AuTDesign.with_default_mappings(
            energy, InferenceDesign.msp430(), network, n_tiles=2))
    return designs


@pytest.fixture(scope="module")
def har_designs():
    return _designs(zoo.har_cnn(), 4)


class _FakeBatchEval:
    """Stand-in for evaluate_batch: records calls, returns markers."""

    def __init__(self):
        self.calls = []
        self.release = None  # set to a threading.Event to block

    def __call__(self, designs, network, environments, checkpoint):
        if self.release is not None:
            assert self.release.wait(timeout=10.0)
        self.calls.append(len(designs))
        return [("report", design) for design in designs]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


def test_identical_requests_coalesce_onto_one_evaluation(har_designs):
    fake = _FakeBatchEval()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        async with service:
            return await asyncio.gather(*[
                service.submit(har_designs[0], "har") for _ in range(6)])

    results = asyncio.run(main())
    assert fake.calls == [1]  # one flush, one design — not six
    assert all(result == results[0] for result in results)
    assert service.stats.requests == 6
    assert service.stats.coalesced == 5
    assert service.stats.evaluated == 1
    assert service.stats.coalesce_rate == pytest.approx(5 / 6)


def test_distinct_designs_do_not_coalesce(har_designs):
    fake = _FakeBatchEval()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        async with service:
            return await asyncio.gather(*[
                service.submit(design, "har") for design in har_designs])

    results = asyncio.run(main())
    assert service.stats.coalesced == 0
    assert service.stats.evaluated == len(har_designs)
    assert len({id(result) for result in results}) == len(har_designs)


# ---------------------------------------------------------------------------
# micro-batching flush triggers
# ---------------------------------------------------------------------------


def test_flush_when_batch_fills_before_max_wait(har_designs):
    """A wave of twice ``max_batch_size`` requests, all queued before
    the batcher runs, flushes in batches split at the cap."""
    fake = _FakeBatchEval()
    cap = len(har_designs) // 2
    service = EvaluationService(ServeConfig(max_batch_size=cap),
                                evaluate_batch_fn=fake)

    async def main():
        async with service:
            await asyncio.wait_for(
                asyncio.gather(*[service.submit(design, "har")
                                 for design in har_designs]),
                timeout=10.0)

    asyncio.run(main())
    assert fake.calls == [cap, cap]
    assert service.stats.batches == 2
    assert service.stats.batch_occupancy.max == cap


def test_eager_flush_does_not_wait_out_the_timer(har_designs):
    fake = _FakeBatchEval()
    # A partial batch (4 of 64 slots) is priced as soon as the queue
    # drains: nothing waits for more company.
    service = EvaluationService(
        ServeConfig(max_batch_size=64),
        evaluate_batch_fn=fake)

    async def main():
        async with service:
            await asyncio.wait_for(
                asyncio.gather(*[service.submit(design, "har")
                                 for design in har_designs]),
                timeout=5.0)

    asyncio.run(main())
    assert sum(fake.calls) == len(har_designs)
    assert service.stats.evaluated == len(har_designs)


# ---------------------------------------------------------------------------
# deadlines and admission control
# ---------------------------------------------------------------------------


def test_deadline_expired_in_queue_raises_structured_timeout(har_designs):
    fake = _FakeBatchEval()
    clock = _FakeClock()
    # The batcher wakes on the submission, after the clock has moved.
    service = EvaluationService(evaluate_batch_fn=fake, time_fn=clock)

    async def main():
        async with service:
            task = asyncio.ensure_future(
                service.submit(har_designs[0], "har", deadline_s=1.0))
            await asyncio.sleep(0)  # let the submission enqueue
            clock.now = 100.0       # deadline long gone by flush time
            with pytest.raises(EvaluationTimeout, match="analytical "
                               "'har_cnn' request expired in queue"):
                await task

    asyncio.run(main())
    assert fake.calls == []  # expired before evaluation, never priced
    assert service.stats.timeouts == 1
    assert service.stats.evaluated == 0


def test_full_queue_sheds_with_overload_error(har_designs):
    fake = _FakeBatchEval()
    fake.release = threading.Event()
    service = EvaluationService(
        ServeConfig(max_batch_size=1, max_queue=1),
        evaluate_batch_fn=fake)

    async def main():
        async with service:
            first = asyncio.ensure_future(
                service.submit(har_designs[0], "har"))
            await asyncio.sleep(0.05)  # batcher takes it, blocks in eval
            second = asyncio.ensure_future(
                service.submit(har_designs[1], "har"))
            await asyncio.sleep(0.05)  # sits in the (size-1) queue
            with pytest.raises(ServiceOverloadError):
                await service.submit(har_designs[2], "har")
            fake.release.set()
            await asyncio.gather(first, second)

    asyncio.run(main())
    assert service.stats.shed == 1
    assert service.stats.evaluated == 2


def test_rejects_when_not_running(har_designs):
    service = EvaluationService()

    async def before_start():
        await service.submit(har_designs[0], "har")

    with pytest.raises(ServiceClosedError):
        asyncio.run(before_start())

    async def after_stop():
        async with service:
            pass
        await service.submit(har_designs[0], "har")

    with pytest.raises(ServiceClosedError):
        asyncio.run(after_stop())


def test_stop_drains_admitted_requests(har_designs):
    fake = _FakeBatchEval()
    fake.release = threading.Event()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        await service.start()
        first = asyncio.ensure_future(service.submit(har_designs[0], "har"))
        await asyncio.sleep(0.05)  # the batcher holds it, blocked in eval
        rest = [asyncio.ensure_future(service.submit(design, "har"))
                for design in har_designs[1:]]
        await asyncio.sleep(0.05)  # queued behind the blocked flush
        # stop() joins the executor synchronously, so the release must
        # come from another thread.
        timer = threading.Timer(0.1, fake.release.set)
        timer.start()
        try:
            await service.stop(drain=True)  # must flush them, not drop them
        finally:
            timer.join(timeout=10.0)
        return await asyncio.gather(first, *rest)

    results = asyncio.run(main())
    assert len(results) == len(har_designs)
    assert fake.calls == [1, len(har_designs) - 1]
    assert service.stats.evaluated == len(har_designs)


def test_stop_without_drain_fails_queued_and_inflight(har_designs):
    fake = _FakeBatchEval()
    fake.release = threading.Event()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        await service.start()
        inflight = asyncio.ensure_future(
            service.submit(har_designs[0], "har"))
        await asyncio.sleep(0.05)  # the batcher holds it, blocked in eval
        queued = asyncio.ensure_future(service.submit(har_designs[1], "har"))
        await asyncio.sleep(0.05)
        timer = threading.Timer(0.1, fake.release.set)
        timer.start()
        try:
            await service.stop(drain=False)
        finally:
            timer.join(timeout=10.0)
        return await asyncio.gather(inflight, queued,
                                    return_exceptions=True)

    results = asyncio.run(main())
    assert [type(result) for result in results] == [ServiceClosedError] * 2
    assert service.stats.evaluated == 0


def test_waiter_deadline_fires_while_evaluation_runs(har_designs):
    fake = _FakeBatchEval()
    fake.release = threading.Event()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        async with service:
            started = time.monotonic()
            with pytest.raises(EvaluationTimeout, match="analytical "
                               "'har_cnn' request missed its 0.05 s "
                               "deadline"):
                await service.submit(har_designs[0], "har",
                                     deadline_s=0.05)
            waited = time.monotonic() - started
            fake.release.set()
        return waited

    waited = asyncio.run(main())
    assert waited < 5.0  # the waiter did not sit out the evaluation
    assert service.stats.timeouts == 1
    assert fake.calls == [1]  # the evaluation itself still finished


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServeConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        ServeConfig(max_queue=0)
    with pytest.raises(ConfigurationError):
        ServeConfig(default_deadline_s=0.0)


_NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("value", _NON_FINITE, ids=str)
@pytest.mark.parametrize("knob", ["default_deadline_s", "drain_timeout_s"])
def test_config_rejects_non_finite_seconds(knob, value):
    with pytest.raises(ConfigurationError, match=f"{knob} must be a "
                       f"positive, finite number"):
        ServeConfig(**{knob: value})


@pytest.mark.parametrize("value", _NON_FINITE, ids=str)
def test_submit_rejects_non_finite_deadline(har_designs, value):
    fake = _FakeBatchEval()
    service = EvaluationService(evaluate_batch_fn=fake)

    async def main():
        async with service:
            await service.submit(har_designs[0], "har", deadline_s=value)

    with pytest.raises(ConfigurationError, match="deadline_s must be a "
                       "positive, finite number"):
        asyncio.run(main())
    assert fake.calls == []


def test_submit_validates_fidelity_and_deadline(har_designs):
    service = EvaluationService(evaluate_batch_fn=_FakeBatchEval())

    async def bad_fidelity():
        async with service:
            await service.submit(har_designs[0], "har", fidelity="nope")

    with pytest.raises(ConfigurationError):
        asyncio.run(bad_fidelity())

    async def bad_deadline():
        async with service:
            await service.submit(har_designs[0], "har", deadline_s=-1.0)

    with pytest.raises(ConfigurationError):
        asyncio.run(bad_deadline())


def test_evaluation_failure_propagates_without_killing_service(
        har_designs):
    calls = []

    def failing_then_fine(designs, network, environments, checkpoint):
        calls.append(len(designs))
        if len(calls) == 1:
            raise InfeasibleDesignError("cannot complete the workload")
        return [("report", design) for design in designs]

    service = EvaluationService(evaluate_batch_fn=failing_then_fine)

    async def main():
        async with service:
            with pytest.raises(InfeasibleDesignError):
                await service.submit(har_designs[0], "har")
            # the batcher survived; the next request still works
            return await service.submit(har_designs[1], "har")

    result = asyncio.run(main())
    assert result == ("report", har_designs[1])
    assert service.stats.failures == 1
    assert service.stats.evaluated == 1


# ---------------------------------------------------------------------------
# request identity: a request is its value
# ---------------------------------------------------------------------------


class _FakeEval:
    """Stand-in for the scalar evaluate: records calls, returns markers."""

    def __init__(self):
        self.calls = []

    def __call__(self, design, network, environments, checkpoint, fidelity):
        self.calls.append(fidelity)
        return ("report", design)


def _submit_together(*requests):
    """Submit ``(design, keywords)`` har requests in one wave; return the
    service and the batch and scalar fakes that priced them."""
    batch, scalar = _FakeBatchEval(), _FakeEval()
    service = EvaluationService(evaluate_fn=scalar, evaluate_batch_fn=batch)

    async def main():
        async with service:
            await asyncio.gather(*[service.submit(design, "har", **keywords)
                                   for design, keywords in requests])

    asyncio.run(main())
    return service, batch, scalar


def test_decoded_design_coalesces_with_the_live_object(har_designs):
    decoded = design_from_dict(design_to_dict(har_designs[0]))
    assert decoded is not har_designs[0]
    service, batch, _ = _submit_together((har_designs[0], {}), (decoded, {}))
    assert service.stats.coalesced == 1
    assert batch.calls == [1]


_LIGHT = LightEnvironment.brighter()
_TRACE = TraceEnvironment("same-name", (TraceSegment(10.0, 1e-4),))

#: ``(first, second)`` request keywords that name different requests.
_APART = {
    "fidelity": ({}, {"fidelity": "step"}),
    "checkpoint": ({}, {"checkpoint": CheckpointModel(
        nvm=FRAM, exception_rate=0.2)}),
    "environment content": (
        {"environments": (_LIGHT,)},
        {"environments": (dataclasses.replace(_LIGHT, cloudiness=0.5),)}),
    "traces sharing a name": (
        {"environments": (_TRACE,)},
        {"environments": (TraceEnvironment(
            "same-name", (TraceSegment(10.0, 2e-4),)),)}),
    "light and trace sharing a name": (
        {"environments": (_LIGHT,)},
        {"environments": (TraceEnvironment(
            _LIGHT.name, (TraceSegment(10.0, 1e-4),)),)}),
}


@pytest.mark.parametrize("first, second", list(_APART.values()),
                         ids=list(_APART))
def test_requests_differing_in_value_are_priced_apart(har_designs, first,
                                                      second):
    service, batch, scalar = _submit_together((har_designs[0], first),
                                              (har_designs[0], second))
    assert service.stats.coalesced == 0
    assert service.stats.evaluated == 2
    # one evaluation each; analytical ones in flush groups of one
    assert batch.calls == [1] * (2 - len(scalar.calls))


@pytest.mark.parametrize("environments", [
    lambda: (TraceEnvironment("same-name", (TraceSegment(10.0, 1e-4),)),),
    lambda: list(LightEnvironment.paper_environments()),
], ids=["equal traces", "environment lists"])
def test_requests_equal_in_value_coalesce(har_designs, environments):
    service, batch, _ = _submit_together(
        (har_designs[0], {"environments": environments()}),
        (har_designs[0], {"environments": environments()}))
    assert service.stats.coalesced == 1
    assert batch.calls == [1]


def test_namesake_networks_are_priced_as_themselves():
    """A custom network that shares an earlier one's name is priced as
    itself, in flight together and alone later."""
    har = zoo.har_cnn()
    wide = Network.chain(har.name, har.input_shape, har.layers[:3] + (
        Dense("fc1", in_features=512, out_features=32),
        Dense("fc2", in_features=32, out_features=6)))
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(470)),
        InferenceDesign.msp430(), har, n_tiles=1)
    service = EvaluationService()

    async def main():
        async with service:
            together = await asyncio.gather(service.submit(design, har),
                                            service.submit(design, wide))
            return together + [await service.submit(design, wide)]

    on_har, on_wide, wide_alone = asyncio.run(main())
    direct_har = evaluate(design, har, fidelity="analytical").metrics
    direct_wide = evaluate(design, wide, fidelity="analytical").metrics
    assert direct_wide.e2e_latency > direct_har.e2e_latency
    assert on_har.metrics == direct_har
    assert on_wide.metrics == direct_wide
    assert wide_alone.metrics == direct_wide
    assert service.stats.coalesced == 0


def test_service_keeps_no_design_after_its_request():
    """Sequential requests leave nothing behind but the batcher's last
    batch: no memo, interning or pinning outlives a request."""
    designs = _designs(zoo.har_cnn(), 3)
    alive = [weakref.ref(design) for design in designs]
    service = EvaluationService()

    async def main():
        async with service:
            while designs:
                await service.submit(designs.pop(), "har")
            gc.collect()
            return sum(ref() is not None for ref in alive)

    assert asyncio.run(main()) <= 1


# ---------------------------------------------------------------------------
# fidelity: the service must not change what is computed
# ---------------------------------------------------------------------------


def test_service_results_bit_identical_to_direct_evaluate(har_designs):
    service = EvaluationService()

    async def main():
        async with service:
            return await asyncio.gather(*[
                service.submit(har_designs[index % 3], "har")
                for index in range(6)])

    reports = asyncio.run(main())
    assert service.stats.coalesced == 3
    for index, report in enumerate(reports):
        direct = evaluate(har_designs[index % 3], "har",
                          fidelity="analytical")
        assert report.metrics == direct.metrics
        assert report.by_environment == direct.by_environment
        assert report.fidelity == "analytical"


def test_checkpointed_requests_match_direct_evaluate(har_designs):
    """A request with its own checkpoint model is keyed and priced with
    it (its key once raised AttributeError)."""
    service = EvaluationService()
    checkpoint = CheckpointModel(nvm=FRAM, exception_rate=0.2)

    async def main():
        async with service:
            return await asyncio.gather(*[
                service.submit(har_designs[index % 2], "har",
                               checkpoint=checkpoint)
                for index in range(4)])

    reports = asyncio.run(main())
    assert service.stats.coalesced == 2
    for index, report in enumerate(reports):
        direct = evaluate(har_designs[index % 2], "har",
                          fidelity="analytical", checkpoint=checkpoint)
        assert report.metrics == direct.metrics
        assert report.metrics != evaluate(har_designs[index % 2],
                                          "har").metrics


def test_serve_entrypoint_builds_configured_service():
    service = serve(max_batch_size=8, max_queue=16)
    assert isinstance(service, EvaluationService)
    assert service.config.max_batch_size == 8
    assert service.config.max_queue == 16
    assert not service.running


def test_step_fidelity_matches_direct_evaluate(har_designs):
    """Step requests skip the analytical batch and are priced one at a
    time through ``evaluate(fidelity="step")``."""
    service = EvaluationService()

    async def main():
        async with service:
            return await service.submit(har_designs[0], "har",
                                        fidelity="step")

    report = asyncio.run(main())
    direct = evaluate(har_designs[0], "har", fidelity="step")
    assert report.fidelity == "step"
    assert report.metrics == direct.metrics
    assert report.by_environment == direct.by_environment
    assert service.stats.evaluated == 1


# ---------------------------------------------------------------------------
# evaluate_many: the heterogeneous batch front the service flushes into
# ---------------------------------------------------------------------------


def test_evaluate_many_matches_per_request_evaluate(har_designs):
    cifar_design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=10.0, capacitance_f=uF(470)),
        InferenceDesign.msp430(), zoo.cifar10_cnn(), n_tiles=2)
    requests = [
        EvalRequest(har_designs[0], "har"),
        EvalRequest(cifar_design, "cifar10"),
        EvalRequest(har_designs[1], "har", scenario="wearable"),
        EvalRequest(har_designs[0], "har"),
    ]
    reports = evaluate_many(requests)
    assert [r.workload for r in reports] == ["har_cnn", "cifar10_cnn",
                                             "har_cnn", "har_cnn"]
    for request, report in zip(requests, reports):
        direct = evaluate(request.design, request.workload,
                          scenario=request.scenario,
                          fidelity="analytical")
        assert report.metrics == direct.metrics


def test_evaluate_many_empty_and_obs(har_designs):
    assert evaluate_many([]) == []
    reports = evaluate_many([EvalRequest(har_designs[0], "har")],
                            obs=True)
    assert reports[0].obs is not None
    assert "spans" in reports[0].obs


# ---------------------------------------------------------------------------
# stats export: the form perfbench's serve host reads
# ---------------------------------------------------------------------------


def test_stats_export_matches_the_registry_form():
    stats = ServeStats(requests=5, coalesced=2, evaluated=3, batches=2,
                       shed=1, timeouts=0, failures=1)
    registry = MetricsRegistry()
    for value in (0.0, 2e-4, 3e-3, 3e-3, 0.75):
        stats.latency_seconds.observe(value)
        registry.histogram("serve.request_seconds").observe(value)
    for value in (1.0, 4.0):
        stats.batch_occupancy.observe(value)
        registry.histogram("serve.batch_occupancy").observe(value)
    registry.histogram("serve.queue_wait_seconds")  # never observed
    histograms = registry.as_dict()["histograms"]
    assert stats.as_dict() == {
        "requests": 5, "coalesced": 2, "evaluated": 3, "batches": 2,
        "shed": 1, "timeouts": 0, "failures": 1, "coalesce_rate": 0.4,
        "latency_seconds": histograms["serve.request_seconds"],
        "queue_wait_seconds": histograms["serve.queue_wait_seconds"],
        "batch_occupancy": histograms["serve.batch_occupancy"],
    }
    assert histograms["serve.queue_wait_seconds"] == {
        "count": 0, "sum": 0.0, "min": None, "max": None,
        "p50": None, "p90": None, "p99": None, "buckets": {}}
    assert histograms["serve.request_seconds"]["count"] == 5
