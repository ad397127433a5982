"""The CHRYSALIS front door — the usage model of §III-A.

    Given a domain-specific DNN model along with its corresponding
    dataset, the high-level specifications of the AuT (including
    environment and technology constraints) as well as specific
    objective demands, the tool can automatically generate the ideal
    AuT solution.

Example
-------
>>> from repro.core import Chrysalis
>>> from repro.explore.objectives import Objective
>>> from repro.workloads import zoo
>>> tool = Chrysalis(zoo.har_cnn(), setup="existing",
...                  objective=Objective.lat_sp())
>>> solution = tool.generate()          # doctest: +SKIP
>>> print(solution.report())            # doctest: +SKIP
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.result import AuTSolution
from repro.core.scenarios import Scenario
from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.explore.bilevel import BilevelExplorer, SearchResult
from repro.explore.ga import GAConfig
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.hardware.checkpoint import CheckpointModel
from repro.workloads.network import Network


class Chrysalis:
    """Automated EA/IA co-design for one workload.

    Parameters
    ----------
    network:
        The domain-specific DNN task (see :mod:`repro.workloads.zoo`).
    objective:
        One of the paper's three objectives; defaults to ``lat*sp``.
    setup:
        ``"existing"`` for the Table IV MSP430-based space, ``"future"``
        for the Table V reconfigurable-accelerator space.  Ignored when
        an explicit ``space`` is given.
    space:
        A custom :class:`DesignSpace` (e.g. a Table VI ablation).
    scenario:
        Optional SWaP scenario; supplies environments and, when no
        objective was given, the constraint-derived objective.
    environments:
        Lighting environments to qualify in; defaults to the paper's
        brighter/darker pair (or the scenario's, when given).
    ga_config:
        Search budget knobs for the HW-level genetic algorithm.
    candidate_time_budget_s:
        Optional wall-clock budget per candidate evaluation; an
        over-budget candidate is absorbed as an ``EvaluationTimeout``
        penalty instead of stalling the search (campaign runs set this
        from their spec).
    """

    def __init__(self, network: Network,
                 objective: Optional[Objective] = None,
                 setup: str = "existing",
                 space: Optional[DesignSpace] = None,
                 scenario: Optional[Scenario] = None,
                 environments: Optional[Sequence[LightEnvironment]] = None,
                 ga_config: Optional[GAConfig] = None,
                 checkpoint: Optional[CheckpointModel] = None,
                 candidate_time_budget_s: Optional[float] = None) -> None:
        self.network = network
        if space is not None:
            self.space = space
        elif setup == "existing":
            self.space = DesignSpace.existing_aut()
        elif setup == "future":
            self.space = DesignSpace.future_aut()
        else:
            raise ConfigurationError(
                f"setup must be 'existing' or 'future', got {setup!r}"
            )
        if objective is None and scenario is not None:
            objective = scenario.objective()
        if objective is None:
            objective = Objective.lat_sp()
        self.objective = objective
        if environments is None and scenario is not None:
            environments = scenario.environments
        self.environments = environments
        self.scenario = scenario
        self.ga_config = ga_config
        self.checkpoint = checkpoint
        self.candidate_time_budget_s = candidate_time_budget_s
        self.last_result: Optional[SearchResult] = None

    def generate(self) -> AuTSolution:
        """Run the bi-level search and package the ideal architecture."""
        explorer = BilevelExplorer(
            network=self.network,
            space=self.space,
            objective=self.objective,
            environments=self.environments,
            ga_config=self.ga_config,
            checkpoint=self.checkpoint,
            candidate_time_budget_s=self.candidate_time_budget_s,
        )
        result = explorer.run()
        self.last_result = result
        return AuTSolution.from_search(result, self.network,
                                       objective_label=self.objective.value_label())

    def evaluate(self, design, *, fidelity: str = "step", **options):
        """Price one explicit design under this tool's configuration.

        A thin pass-through to :func:`repro.api.evaluate` that fills in
        the tool's workload, environments (scenario-derived when one was
        given), and checkpoint model, so a design pulled out of
        :meth:`generate` or :meth:`pareto` can be re-priced — at either
        fidelity — without re-stating the setup.  Keyword ``options``
        forward unchanged (``fast_forward``, ``faults``, ``obs``, ...).
        """
        from repro.api import evaluate as _evaluate

        if self.environments is not None:
            options.setdefault("environments", self.environments)
        options.setdefault("checkpoint", self.checkpoint)
        return _evaluate(design, self.network, fidelity=fidelity, **options)

    def pareto(self):
        """The (panel area, sustained latency) Pareto front of the space.

        Runs the NSGA-II multi-objective explorer instead of the scalar
        bi-level search; returns a list of
        :class:`~repro.explore.pareto.ParetoPoint` whose payloads are
        the lowered :class:`~repro.design.AuTDesign` objects.
        """
        from repro.explore.nsga2 import ParetoExplorer

        explorer = ParetoExplorer(
            self.network, self.space,
            environments=self.environments,
            ga_config=self.ga_config,
            checkpoint=self.checkpoint,
        )
        return explorer.run()
