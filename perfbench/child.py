"""One measured process: a fresh interpreter that either runs
``pseudoexec run`` or runs it only up to its first instance.

Usage:
  python3 perfbench/child.py run   --src SRC --config CFG --result OUT.json
                                   [--spans SPANS.jsonl]
  python3 perfbench/child.py setup --src SRC --config CFG --result OUT.json

The result file holds ``time.monotonic()`` readings, which the parent
compares with its own readings taken just before spawning this process
(CLOCK_MONOTONIC is system-wide), plus peak RSS and any exception that
escaped the run.  With ``--spans`` the run is traced and the spans are
written after it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    """Raised in place of ``evaluate_run``: set-up is over."""


def _setup(config_path: str) -> None:
    """Run ``pseudoexec run`` up to its first instance.  Everything
    ``cmd_run`` does before it calls ``evaluate_run``, including the
    arguments it passes to that call, is timed; the call itself raises."""
    from pseudoexec import cli

    def stop(*args, **kwargs):
        raise _SetupDone

    cli.evaluate_run = stop
    try:
        cli.main(["run", "--config", config_path])
    except _SetupDone:
        return
    raise RuntimeError("pseudoexec run ended before its first instance")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    started = time.monotonic()
    import pseudoexec.cli
    imported = time.monotonic()
    result = {"import_s": imported - started, "error": None}
    if not Path(pseudoexec.cli.__file__).resolve().is_relative_to(
            Path(args.src).resolve()):
        raise SystemExit(f"pseudoexec imported from {pseudoexec.cli.__file__}"
                         f", not from {args.src}")

    if args.mode == "setup":
        _setup(args.config)
        result["setup_s"] = time.monotonic() - started
    else:
        tracer = None
        if args.spans:
            from tracer import Tracer
            from pseudoexec import config as config_mod, gateway

            config = config_mod.load_config(args.config, {})
            cassette = Path(config.cassette_path or "")
            recorded = None   # what a paid call would re-buy
            if config.mode == "record" and cassette.is_file():
                recorded = set(gateway.load_cassette(cassette))
            tracer = Tracer(recorded)
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result["exit_code"] = pseudoexec.cli.main(
                    ["run", "--config", args.config])
        except Exception as exc:   # an aborted run is still measured
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["done"] = time.monotonic()
        if tracer is not None:
            tracer.write(args.spans)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
