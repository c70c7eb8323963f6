"""Benchmark of ``pseudoexec run``, end to end and layer by layer.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload mock_te --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all

Each measured ``pseudoexec run`` is a closed loop in a fresh interpreter
(``perfbench/child.py``): one process whose callers each wait for the
model's reply.  The run repeats until ``--seconds`` have passed, and the
benchmark reports medians over the repetitions.  Set-up is measured in
separate fresh interpreters between the runs.  Every run's transcripts,
tallies and report are checked (see ``workloads.check_run``).

With ``--trace 0`` the last output line holds the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` traced and untraced runs alternate
and it holds the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3              # measured runs per invocation, at least
MIN_SETUPS = 9            # set-up measurements per invocation, at least
CHILD_TIMEOUT_S = 120


@dataclass
class RunSample:
    instances_per_s: float
    peak_rss_mb: float
    import_s: float
    completed: bool
    check: object
    paid_calls: int = 0
    max_inflight: int = 0
    appends: int = 0
    stub_wait_share: float = 0.0
    layers: dict = field(default_factory=dict)


class Stub:
    """The localhost model stub, in its own process."""

    def __init__(self, table: Path, log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(table)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub did not start; see {log}")
        self.url = f"http://127.0.0.1:{int(line)}"
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=10) as r:
            return json.load(r)

    def reset(self) -> None:
        self._call("/reset", data=b"")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    def __init__(self, workload, seed: int, root: Path):
        self.w = workload
        self.seed = seed
        self.root = root
        self.work = (root / ".perfbench_work" /
                     f"{workload.name}-{seed}-{os.getpid()}")
        self.stub = None
        self.reports: set[bytes] = set()
        self.child_errors: list[str] = []

    def start(self) -> None:
        """Write the workload's inputs and start the stub it needs."""
        import workloads

        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.prep = workloads.prepare(self.w, self.seed, self.work)
        self.n = len(self.prep.corpus)
        config = dict(self.prep.config)
        if self.prep.stub_table is not None:
            table = self.work / "stub_table.json"
            table.write_text(json.dumps(self.prep.stub_table),
                             encoding="utf-8")
            self.stub = Stub(table, self.work / "stub.log")
            config["endpoint"] = self.stub.url + "/v1/chat/completions"
        config["interpreter_command"] = [sys.executable]
        self.config = config
        self.config_path = self.work / "config.json"
        self.cassette = Path(config.get("cassette_path") or self.work / "-")
        self._fresh_run_inputs()

    def _fresh_run_inputs(self) -> Path:
        """Empty the runs directory and copy the cassette afresh.  Deleting
        the previous run's transcripts first also puts the file system in
        the same state before every run: when it is skipped, transcript
        writes here swing between two speeds about 2x apart."""
        runs_dir = self.work / "runs"
        shutil.rmtree(runs_dir, ignore_errors=True)
        self.config_path.write_text(
            json.dumps(dict(self.config, runs_dir=str(runs_dir))),
            encoding="utf-8")
        if self.prep.cassette_base is not None:
            shutil.copyfile(self.prep.cassette_base, self.cassette)
        return runs_dir

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may share it
            self.work.parent.rmdir()

    def _spawn(self, mode: str, env_extra: dict, spans: Path | None = None
               ) -> tuple[float, float, dict | None]:
        """Start a fresh child; returns (spawn time, exit time, result)."""
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), mode,
                "--src", str(self.root / "src"),
                "--config", str(self.config_path),
                "--result", str(result_path)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        env = dict(os.environ, TMPDIR=str(self.work / "tmp"),
                   NO_PROXY="127.0.0.1,localhost",
                   no_proxy="127.0.0.1,localhost", **env_extra)
        with open(self.work / "child.err", "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=env, cwd=self.root)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            ended = time.monotonic()
        result = None
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        if proc.returncode != 0 or result is None or result.get("error"):
            detail = (result or {}).get("error") or \
                (self.work / "child.err").read_text(errors="replace")[-2000:]
            self.child_errors.append(f"{mode} exit {proc.returncode}: "
                                     f"{detail}")
        return started, ended, result

    def setup_once(self) -> float | None:
        self._fresh_run_inputs()   # the inputs a run starts from
        _, _, result = self._spawn("setup", {})
        return result.get("setup_s") if result else None

    def run_once(self, traced: bool) -> RunSample:
        import tracer
        import workloads

        runs_dir = self._fresh_run_inputs()
        lines_before = _count_lines(self.cassette)
        if self.stub is not None:
            self.stub.reset()
        spans = self.work / "spans.jsonl" if traced else None
        started, ended, result = self._spawn(
            "run", {workloads.CREDENTIAL_ENV: "perfbench-dummy-key"}, spans)
        check = workloads.check_run(self.prep, runs_dir)
        if check.report is not None:
            self.reports.add(check.report)
        result = result or {}
        wall = result.get("done", ended) - started
        sample = RunSample(
            instances_per_s=check.reached / wall,
            peak_rss_mb=result.get("peak_rss_mb", 0.0),
            import_s=result.get("import_s", 0.0),
            completed=(result.get("exit_code") == 0
                       and result.get("error") is None),
            check=check,
            appends=_count_lines(self.cassette) - lines_before)
        if self.stub is not None:
            stats = self.stub.stats()
            sample.paid_calls = stats["served"]
            sample.max_inflight = stats["max_inflight"]
            sample.stub_wait_share = stats["delay_s"] / wall
        if traced and spans.is_file():
            sample.layers = tracer.summarize(*tracer.read_spans(spans))
        return sample

    def correct(self, samples: list[RunSample]) -> bool:
        return (not self.child_errors and len(self.reports) == 1 and all(
            s.completed and s.check.tallies_ok and s.check.reached == self.n
            and s.check.mismatched == 0 for s in samples))

    def measure(self, seconds: int) -> tuple[list[RunSample], list[float]]:
        self.setup_once()                     # warm caches, unmeasured
        runs: list[RunSample] = []
        setups: list[float | None] = []
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(runs) < MIN_RUNS:
            setups.append(self.setup_once())
            runs.append(self.run_once(traced=False))
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_once())
        return runs, [s for s in setups if s is not None]

    def measure_traced(self, seconds: int
                       ) -> tuple[list[RunSample], list[RunSample]]:
        plain: list[RunSample] = []
        traced: list[RunSample] = []
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(traced) < 2:
            plain.append(self.run_once(traced=False))
            traced.append(self.run_once(traced=True))
        return plain, traced


def _count_lines(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _failures(samples: list[RunSample], n: int) -> dict[str, int]:
    """Recorded failures by category plus instances never reached."""
    totals = {"no_final_answer": 0, "gateway_error": 0, "sandbox_error": 0,
              "other": 0, "aborted": 0}
    for s in samples:
        for category, count in s.check.failures.items():
            key = category if category in totals else "other"
            totals[key] += count
        totals["aborted"] += n - s.check.reached
    return totals


def end_to_end(bench: Bench, seconds: int) -> tuple[dict, list]:
    runs, setups = bench.measure(seconds)
    failures = _failures(runs, bench.n)
    attempted = bench.n * len(runs)
    print(f"perfbench {bench.w.name}: instances_per_s per run "
          f"{[round(s.instances_per_s, 2) for s in runs]}, setup_s "
          f"{[round(s, 4) for s in setups]}", file=sys.stderr)
    metrics = {
        "instances_per_s": statistics.median(s.instances_per_s for s in runs),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "ok_frac": 1.0 - sum(failures.values()) / attempted,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
    }
    return metrics, runs


def per_layer(bench: Bench, seconds: int) -> tuple[dict, list]:
    plain, traced = bench.measure_traced(seconds)
    rows = []
    for s in traced:
        row = dict(s.layers)
        row.update({f"fail.{k}": v
                    for k, v in _failures([s], bench.n).items()})
        row["import.s"] = s.import_s
        row["gateway.http.max_inflight"] = s.max_inflight
        row["gateway.record.appends"] = s.appends
        row["paid_calls_per_instance"] = s.paid_calls / bench.n
        rows.append(row)
    metrics = {key: statistics.median(r.get(key, 0) for r in rows)
               for key in rows[0]}
    untraced = statistics.median(s.instances_per_s for s in plain)
    # Taken from the untraced runs: the share of a plain run's wall time
    # the stub spent in its delays.
    metrics["stub.wait_share"] = statistics.median(
        s.stub_wait_share for s in plain)
    metrics["trace.instances_per_s"] = statistics.median(
        s.instances_per_s for s in traced)
    metrics["trace.overhead"] = untraced / metrics["trace.instances_per_s"]
    return metrics, plain + traced


def run_workload(workload, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == workload.name)
    bench = Bench(workload, seed, Path.cwd())
    try:
        bench.start()
        print("perfbench input " + json.dumps(
            {"workload": workload.name, "seed": seed, "why": why,
             **bench.prep.properties}), flush=True)
        measured, samples = (per_layer if trace else end_to_end)(
            bench, seconds)
        correct = bench.correct(samples)
        for error in bench.child_errors[:3]:
            print(f"perfbench child error: {error}", file=sys.stderr)
    finally:
        bench.close()
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": correct,
        "attempted": bench.n * len(samples),
        "failed": sum(s.check.failed(bench.n) for s in samples),
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pseudoexec" / "cli.py").is_file():
        print("perfbench: no pseudoexec sources under ./src; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), spec)
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
