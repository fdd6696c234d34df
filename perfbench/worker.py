"""One benchmark process: a set-up or the measured rounds of a workload.

Usage: python3 perfbench/worker.py (setup|measure) SPEC.json

run.py starts this in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and BLAS pinned to one thread. The spec holds the calls to
make; the result is written as JSON to the path the spec names.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import layertrace as tracing


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Runner:
    def __init__(self, cli, tracer: tracing.Tracer | None = None):
        self.cli = cli  # looked up per call, so an installed tracer sees main
        self.tracer = tracer
        self.failures: list[str] = []

    def call(self, label: str, argv: list[str]) -> bool:
        if self.tracer is not None:
            self.tracer.context = label
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:  # a crash is a failed operation; the run goes on
                self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
                return False
        if code != 0:
            self.failures.append(f"{label}: exit code {code}")
        return code == 0

    def round(self, calls: list[list]) -> dict:
        cpu, start = cpu_seconds(), time.perf_counter()
        ok, call_s = 0, []
        for label, argv in calls:
            ok += self.call(label, argv)
            call_s.append(time.perf_counter() - start - sum(call_s))
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "cpu_s": cpu_seconds() - cpu,
            "call_s": call_s,
            "attempted": len(calls),
            "failed": len(calls) - ok,
        }


def import_cli():
    start = time.perf_counter()
    import cbtcode.cli

    return cbtcode.cli, time.perf_counter() - start


def digests(paths: list[str], base: str) -> dict[str, str]:
    """SHA-256 of each file, keyed by its path relative to base."""
    return {
        str(Path(p).relative_to(base)): sha256(Path(p)) if Path(p).is_file() else "missing" for p in paths
    }


def run_setup(spec: dict) -> dict:
    cli, import_s = import_cli()
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    runner = Runner(cli, tracer)
    for label, argv in spec["setup"]:
        runner.call(label, argv)
    result = {"import_s": import_s, "failures": runner.failures}
    root = Path(spec["setup_dir"])
    result["digests"] = {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}
    if tracer is not None:
        tracer.uninstall()
        result["raw"] = tracing.summarize(tracer.spans)
        result["absent"] = tracer.absent
        Path(spec["trace_file"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return result


def run_round(runner: Runner, spec: dict, tracer: tracing.Tracer | None = None, key: str = "round") -> dict:
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
        runner.tracer = tracer
    try:
        result = runner.round(spec[key])
    finally:
        if tracer is not None:
            tracer.uninstall()
            runner.tracer = None
    result["digests"] = digests(spec["artifacts"], spec["work_dir"])
    if tracer is not None:
        result["raw"] = tracing.summarize(tracer.spans)
    return result


def run_measure(spec: dict) -> dict:
    """Whole rounds until spec["seconds"] have passed. A traced run alternates
    untraced and traced rounds, and untraced rounds at --threads 2 where the
    spec has them, so that all see the same machine load."""
    cli, import_s = import_cli()
    runner = Runner(cli)
    tracer = tracing.Tracer() if spec["trace"] else None
    rounds, traced, threads2 = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        rounds.append(run_round(runner, spec))
        if tracer is not None:
            traced.append(run_round(runner, spec, tracer))
            if spec["threads2_round"]:
                threads2.append(run_round(runner, spec, key="threads2_round"))
    result = {"import_s": import_s, "rounds": rounds}
    # High-water mark of the measured calls, taken before any check runs.
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["traced_rounds"] = traced
        result["threads2_rounds"] = threads2
        result["absent"] = tracer.absent
        Path(spec["trace_file"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    measured_failures = list(runner.failures)
    runner.failures.clear()
    for label, argv in spec["check_calls"]:
        runner.call(label, argv)
    result["check_digests"] = digests(spec["check_artifacts"], spec["work_dir"])
    result["failures"] = measured_failures
    result["check_failures"] = runner.failures
    return result


def main() -> int:
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = run_setup(spec) if mode == "setup" else run_measure(spec)
    Path(spec["result_file"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
