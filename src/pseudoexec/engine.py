"""The one reasoner call of every method: build its request, obtain the
response, and extract the final answer (for PoT, run the program)."""

from __future__ import annotations

import re

from .baselines import (DEFAULT_INTERPRETER, DEFAULT_TIMEOUT_MS, FailureKind,
                        MethodId, Prediction, build_baseline_prompt,
                        run_pot_instance)
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


def extract_final_answer(transcript: str) -> str | None:
    """Text after the LAST "Final answer:" marker, to end of line, trimmed;
    None when there is no marker.  Matching is case-sensitive; ":"/":  "
    spacing variants both work."""
    matches = _MARKER_RE.findall(transcript)
    return matches[-1].strip() if matches else None


def run_instance(method: MethodId, instance: TaskInstance,
                 asset: PromptAsset | None, gateway: Gateway,
                 model_id: str = "mock-model",
                 interpreter_command: list[str] | tuple[str, ...]
                 = DEFAULT_INTERPRETER,
                 sandbox_timeout_ms: int = DEFAULT_TIMEOUT_MS,
                 credential_env: str | None = None) -> Prediction:
    """Run one instance under one method with its one reasoner call.
    ``asset`` is the task's prompt: the pseudocode for Think-and-Execute,
    the plan for NL planning, unused otherwise.  Model-content failures
    (missing marker, gateway refusals, sandbox crashes) are recorded in the
    returned Prediction; only configuration errors raise."""
    system, user = build_baseline_prompt(method, instance, asset)
    request = ChatRequest(role_tag="reasoner", system=system, user=user,
                          model_id=model_id)
    try:
        response = gateway.complete(request)
    except GatewayError as exc:
        return Prediction(transcript="", final_answer=None,
                          kind=FailureKind.GATEWAY_ERROR, detail=str(exc))
    if method is MethodId.ZERO_SHOT_POT:
        return run_pot_instance(instance, response, interpreter_command,
                                sandbox_timeout_ms, credential_env)
    answer = extract_final_answer(response)
    if answer is None:
        return Prediction(transcript=response, final_answer=None,
                          kind=FailureKind.NO_FINAL_ANSWER)
    return Prediction(transcript=response, final_answer=answer)
