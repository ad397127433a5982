"""Scenario study: a body-worn health sensor under strict SWaP limits.

The paper motivates AuT with wearables (continuous glucose-style
monitoring).  A wearable cannot carry more than a few cm^2 of
harvester, so the design question becomes: *given at most 4 cm^2 of
solar panel, how fast can on-device inference be, and what architecture
delivers it?*

This example:
1. runs the SWaP-constrained search from the scenario preset;
2. validates the winning design on the step-based simulator in both
   lighting environments, printing the power-cycle behaviour;
3. shows what the same constraint costs on a darker deployment.

Run:  python examples/wearable_scenario.py
"""

from repro import Chrysalis, zoo
from repro.core.scenarios import SCENARIOS
from repro.explore.ga import GAConfig
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.trace import EventKind


def main() -> None:
    scenario = SCENARIOS["wearable"]
    print(f"scenario   : {scenario.name} — {scenario.description}")
    print(f"constraint : panel <= {scenario.max_panel_cm2} cm^2")
    print()

    network = zoo.har_cnn()
    tool = Chrysalis(
        network,
        setup="existing",
        scenario=scenario,
        ga_config=GAConfig(population_size=12, generations=8, seed=7),
    )
    solution = tool.generate()
    print(solution.report())
    print()

    # Validate on the step simulator: watch the intermittent execution.
    evaluator = ChrysalisEvaluator(network)
    for environment in scenario.environments:
        result = evaluator.simulate(solution.design, environment)
        metrics = result.metrics
        ckpts = result.trace.count(EventKind.CHECKPOINT_SAVED)
        print(f"[{environment.name:>8}] latency {metrics.e2e_latency:8.3f} s"
              f" | cycles {metrics.power_cycles:3d}"
              f" | checkpoints {ckpts:3d}"
              f" | exceptions {metrics.exceptions:2d}"
              f" | efficiency {metrics.system_efficiency:.2f}")
        ok = scenario.satisfied_by(solution.solar_panel_cm2,
                                   metrics.e2e_latency)
        print(f"           SWaP constraints satisfied: {ok}")

    # First few trace events of the brighter run, for a feel of the
    # intermittent execution.
    result = evaluator.simulate(solution.design, scenario.environments[0])
    print()
    print("trace (first 12 events):")
    print(result.trace.render(limit=12))


if __name__ == "__main__":
    main()
