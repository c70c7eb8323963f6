"""The one reasoner call of every method: build its request from the
task-level prompt, obtain the response, and extract the final answer (for
PoT, run the program)."""

from __future__ import annotations

import re

from .baselines import (FailureKind, MethodId, Prediction, Sandbox,
                        build_baseline_prompt, run_pot_instance)
from .errors import GatewayError
from .gateway import ChatRequest, Gateway
from .prompts import PromptAsset
from .tasks import TaskInstance

_MARKER_RE = re.compile(r"Final answer:[ \t]*(.*)")


def build_execute_prompt(pseudocode: PromptAsset,
                         instance: TaskInstance) -> tuple[str, str]:
    """Returns (system, user) for the execution-simulation call; the
    benchmark under ``perfbench/`` builds and traces it by this name."""
    return build_baseline_prompt(MethodId.THINK_AND_EXECUTE, instance,
                                 pseudocode)


def reasoner_request(method: MethodId, instance: TaskInstance,
                     asset: PromptAsset | None, model_id: str) -> ChatRequest:
    """The one request ``method`` sends the Reasoner for ``instance``."""
    system, user = build_baseline_prompt(method, instance, asset)
    return ChatRequest(role_tag="reasoner", system=system, user=user,
                       model_id=model_id)


def extract_final_answer(transcript: str) -> str | None:
    """Text after the LAST "Final answer:" marker, to end of line, trimmed;
    None when there is no marker.  Matching is case-sensitive; ":"/":  "
    spacing variants both work."""
    matches = _MARKER_RE.findall(transcript)
    return matches[-1].strip() if matches else None


def run_instance(method: MethodId, instance: TaskInstance,
                 asset: PromptAsset | None, gateway: Gateway,
                 model_id: str = "mock-model",
                 sandbox: Sandbox | None = None) -> Prediction:
    """Run one instance under one method with its one reasoner call.
    ``asset`` is the task's prompt from ``task_assets``.  PoT runs its
    program in ``sandbox``.  Model-content failures (missing marker, gateway
    refusals, sandbox crashes) are recorded in the returned Prediction; only
    configuration errors raise."""
    request = reasoner_request(method, instance, asset, model_id)
    try:
        response = gateway.complete(request)
    except GatewayError as exc:
        return Prediction(transcript="", final_answer=None,
                          kind=FailureKind.GATEWAY_ERROR, detail=str(exc))
    if method is MethodId.ZERO_SHOT_POT:
        return run_pot_instance(instance, response, sandbox)
    answer = extract_final_answer(response)
    if answer is None:
        return Prediction(transcript=response, final_answer=None,
                          kind=FailureKind.NO_FINAL_ANSWER)
    return Prediction(transcript=response, final_answer=answer)
