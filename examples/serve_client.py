"""Serving: concurrent callers sharing one evaluation service.

Six callers submit at once — four distinct designs plus one design
submitted twice more on purpose.  The service compares requests by
value, so the duplicates coalesce onto a single in-flight evaluation
(watch ``coalesced`` in the stats line) and the distinct ones are
priced together through one vectorized micro-batch instead of four
scalar calls.  Responses are bit-identical to per-request
``repro.evaluate``.

Run:  PYTHONPATH=src python examples/serve_client.py

For the same service behind a TCP socket, see ``python -m repro serve
run`` / ``serve bench`` and docs/SERVING.md.
"""

import asyncio

from repro.api import serve
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.explore.mapper_search import MappingOptimizer
from repro.workloads import zoo


def build_designs(count: int) -> list:
    """A small pool of valid designs (panel-area sweep)."""
    network = zoo.har_cnn()
    inference = InferenceDesign.msp430()
    designs = []
    for index in range(count):
        energy = EnergyDesign(panel_area_cm2=6.0 + 2.0 * index,
                              capacitance_f=100e-6)
        mappings = MappingOptimizer(network).optimize(energy, inference)
        if mappings is not None:
            designs.append(AuTDesign(energy=energy, inference=inference,
                                     mappings=mappings))
    return designs


async def main() -> None:
    designs = build_designs(4)
    service = serve(max_batch_size=16)

    async with service:
        # Four distinct designs, plus designs[0] twice more: the
        # duplicates share designs[0]'s evaluation instead of paying
        # for their own.
        requests = designs + [designs[0], designs[0]]
        reports = await asyncio.gather(*[
            service.submit(design, "har") for design in requests])

    for design, report in zip(requests, reports):
        print(f"panel {design.energy.panel_area_cm2:5.1f} cm^2  ->  "
              f"e2e latency {report.metrics.e2e_latency * 1e3:8.2f} ms")

    stats = service.stats
    print(f"\n{stats.requests} requests: {stats.evaluated} evaluated, "
          f"{stats.coalesced} coalesced "
          f"({stats.coalesce_rate:.0%} served off an in-flight twin), "
          f"{stats.batches} batch(es)")
    assert reports[0].metrics == reports[4].metrics == reports[5].metrics


if __name__ == "__main__":
    asyncio.run(main())
