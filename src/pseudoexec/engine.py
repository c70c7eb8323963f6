"""Execute phase: wrap a pseudocode prompt and an instance in the
execution-simulation template, obtain the simulated transcript, and extract
the final answer."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .baselines import MethodId, build_baseline_prompt, run_pot_instance
from .errors import GatewayError, MissingFunctionName, NoFinalAnswer
from .gateway import ChatRequest, Gateway
from .prompts import PromptAsset, escape_instance, load_asset_text, render
from .tasks import TaskInstance

FAIL_NO_FINAL_ANSWER = "no_final_answer"
FAIL_GATEWAY = "gateway_error"
FAIL_SANDBOX = "sandbox_error"

_MARKER_RE = re.compile(r"Final answer:[ \t]*(.*)")


@dataclass(frozen=True)
class Prediction:
    transcript: str
    final_answer: str | None
    failure: str | None = None

    def __post_init__(self) -> None:
        if (self.final_answer is None) == (self.failure is None):
            raise ValueError(
                "exactly one of final_answer and failure must be set")


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


def _prediction_from_transcript(transcript: str) -> Prediction:
    try:
        answer = extract_final_answer(transcript)
    except NoFinalAnswer:
        return Prediction(transcript=transcript, final_answer=None,
                          failure=FAIL_NO_FINAL_ANSWER)
    return Prediction(transcript=transcript, final_answer=answer)


def run_instance(method: MethodId, instance: TaskInstance, assets,
                 gateway: Gateway,
                 model_id: str = "mock-model",
                 interpreter_command: list[str] | None = None,
                 sandbox_timeout_ms: int = 10_000,
                 credential_env: str | None = None) -> Prediction:
    """Run one instance under one method.  Model-content failures (missing
    marker, gateway refusals, sandbox crashes) are recorded in the returned
    Prediction; only configuration errors raise."""
    if method is MethodId.THINK_AND_EXECUTE:
        pseudocode = _require_asset(assets, "pseudocode")
        system, user = build_execute_prompt(pseudocode, instance)
    elif method is MethodId.ZERO_SHOT_POT:
        return run_pot_instance(
            instance, gateway, model_id=model_id,
            interpreter_command=interpreter_command,
            timeout_ms=sandbox_timeout_ms,
            credential_env=credential_env)
    else:
        asset = assets.get("nl_plan") if isinstance(assets, dict) else None
        system, user = build_baseline_prompt(method, instance, asset)

    request = ChatRequest(role_tag="reasoner", system=system, user=user,
                          model_id=model_id)
    try:
        transcript = gateway.complete(request)
    except GatewayError as exc:
        return Prediction(transcript="", final_answer=None,
                          failure=f"{FAIL_GATEWAY}: {exc}")
    return _prediction_from_transcript(transcript)


def _require_asset(assets, key: str) -> PromptAsset:
    from .errors import MissingAsset
    asset = assets.get(key) if isinstance(assets, dict) else None
    if asset is None:
        raise MissingAsset(key)
    return asset

