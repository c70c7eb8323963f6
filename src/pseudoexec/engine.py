"""Execute phase and the one reasoner call of every method: wrap a pseudocode
prompt and an instance in the execution-simulation template, obtain the
simulated transcript, and extract the final answer."""

from __future__ import annotations

import re

from .baselines import (DEFAULT_INTERPRETER, DEFAULT_TIMEOUT_MS,
                        FAIL_GATEWAY, FAIL_NO_FINAL_ANSWER, MethodId,
                        Prediction, build_baseline_prompt, run_pot_instance)
from .errors import (GatewayError, MissingAsset, MissingFunctionName,
                     NoFinalAnswer)
from .gateway import ChatRequest, Gateway
from .prompts import PromptAsset, escape_instance, load_asset_text, render
from .tasks import TaskInstance

_MARKER_RE = re.compile(r"Final answer:[ \t]*(.*)")


def build_execute_prompt(pseudocode: PromptAsset,
                         instance: TaskInstance) -> tuple[str, str]:
    """Returns (system, user) for the execution-simulation call."""
    if not pseudocode.function_name:
        raise MissingFunctionName("execute prompt needs a function name")
    system = load_asset_text("meta/execute_system.txt")
    user = render(load_asset_text("meta/execute.txt"), {
        "prompt": pseudocode.body,
        "input_text": escape_instance(instance.input_text),
        "function_name": pseudocode.function_name,
    })
    return system, user


def extract_final_answer(transcript: str) -> str:
    """Text after the LAST "Final answer:" marker, to end of line, trimmed.
    Matching is case-sensitive; ":"/":  " spacing variants both work."""
    matches = _MARKER_RE.findall(transcript)
    if not matches:
        raise NoFinalAnswer("marker not found in transcript")
    return matches[-1].strip()


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
    if method is MethodId.THINK_AND_EXECUTE:
        if asset is None:
            raise MissingAsset("pseudocode")
        system, user = build_execute_prompt(asset, instance)
    else:
        system, user = build_baseline_prompt(method, instance, asset)

    request = ChatRequest(role_tag="reasoner", system=system, user=user,
                          model_id=model_id)
    try:
        response = gateway.complete(request)
    except GatewayError as exc:
        return Prediction(transcript="", final_answer=None,
                          failure=f"{FAIL_GATEWAY}: {exc}")
    if method is MethodId.ZERO_SHOT_POT:
        return run_pot_instance(instance, response, interpreter_command,
                                sandbox_timeout_ms, credential_env)
    try:
        answer = extract_final_answer(response)
    except NoFinalAnswer:
        return Prediction(transcript=response, final_answer=None,
                          failure=FAIL_NO_FINAL_ANSWER)
    return Prediction(transcript=response, final_answer=answer)
