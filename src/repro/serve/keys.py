"""Content-hashed request keys for the evaluation service.

The coalescer needs one stable name per *semantically identical*
request: two clients asking for the same ``(design, workload,
environments, fidelity, checkpoint)`` tuple must land on the same key
even though they hold distinct (equal-by-value) objects.  The hash
therefore covers exactly the value content that can change an
:func:`repro.api.evaluate` result — the same discipline as campaign
:class:`~repro.campaign.spec.RunKey` hashes — and nothing about the
requesting client.

Each request also carries a *group* key: the request key minus the
design.  Requests sharing a group are mutually batchable — same
workload, same environment set, same checkpoint model, analytical
fidelity — so the micro-batcher can price a whole group through
:func:`repro.api.evaluate_batch` in one call.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.design import AuTDesign
from repro.environments import Environment
from repro.environments import environment_to_dict as _environment_content
from repro.hardware.checkpoint import CheckpointModel
from repro.serialize import design_to_dict
from repro.workloads.network import Network


def environment_to_dict(environment: Environment) -> Dict[str, Any]:
    """Full value content of one environment (hash input).

    Delegates to :func:`repro.environments.environment_to_dict`: the
    hash covers the *complete resolved spec* — for a trace environment
    that is every segment, not just the label — so two different traces
    registered under the same name can never coalesce onto one cached
    evaluation.
    """
    return _environment_content(environment)


def checkpoint_to_dict(checkpoint: Optional[CheckpointModel]
                       ) -> Optional[Dict[str, Any]]:
    if checkpoint is None:
        return None
    return {
        "nvm": checkpoint.nvm.value,
        "header_bytes": checkpoint.header_bytes,
        "live_fraction": checkpoint.live_fraction,
        "exception_rate": checkpoint.exception_rate,
        "strategy": checkpoint.strategy.value,
    }


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def request_key(design: AuTDesign, network: Network,
                environments: Sequence[Environment], fidelity: str,
                checkpoint: Optional[CheckpointModel] = None
                ) -> Tuple[str, str]:
    """``(key, group)`` content hashes of one evaluation request.

    ``key`` names the full request (coalescing identity); ``group``
    omits the design (micro-batching compatibility class).  Workloads
    are named by ``network.name`` — zoo names are canonical, and custom
    networks must use distinct names to stay distinct (the same rule
    campaign specs follow).
    """
    shared: Dict[str, Any] = {
        "workload": network.name,
        "environments": [environment_to_dict(env) for env in environments],
        "fidelity": fidelity,
        "checkpoint": checkpoint_to_dict(checkpoint),
    }
    group = _digest(shared)
    key = _digest(dict(shared, design=design_to_dict(design)))
    return key, group
