"""Benchmark of the cbtcode CLI: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,code,evaluate} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the run sets up SETUPS times in fresh processes (setup_s is
their median), then one fresh process makes whole rounds of the measured
calls for S seconds (wall_s is the median round). With --trace 1 it sets up
once under the tracer, alternates untraced and traced rounds (and, for code,
rounds at --threads 2) for S seconds, and reports the per-layer metrics. Either way it
checks the outputs and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}. Everything it writes stays
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"
SETUPS = 3
BUDGET_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
BLAS_THREADS = "1"


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_digest(root: Path) -> str:
    """Identifies the program and benchmark code a digest record belongs to."""
    digest = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(mode: str, spec: dict, deadline: float, env: dict[str, str]) -> dict:
    result_file = Path(spec["result_file"])
    spec_file = result_file.with_suffix(".spec.json")
    spec_file.parent.mkdir(parents=True, exist_ok=True)
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left to start the {mode} process")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(spec_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"the {mode} process did not finish in time") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"the {mode} process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["process_wall_s"] = wall
    return result


def calls_json(calls) -> list:
    return [[label, [str(a) for a in argv]] for label, argv in calls]


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns the result and report lines."""
    deadline = time.monotonic() + BUDGET_S
    wl = workloads.WORKLOADS[name]
    out = root / OUT
    run_dir = out / f"{name}-seed{seed}-pid{os.getpid()}"
    trace_dir = out / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = worker_env(root)
    try:
        setups = []
        for i in range(1 if trace else SETUPS):
            setup_dir = run_dir / f"setup{i}"
            spec = {
                "trace": trace,
                "setup": calls_json(wl.setup(seed, setup_dir)),
                "setup_dir": str(setup_dir),
                "result_file": str(run_dir / f"setup{i}.json"),
                "trace_file": str(trace_dir / f"{name}-seed{seed}-setup.json"),
            }
            setups.append(run_worker("setup", spec, deadline, env))
            if setups[-1]["failures"]:
                raise BenchmarkError("set-up failed:\n" + "\n".join(setups[-1]["failures"]))
        setup_dir, work_dir = run_dir / "setup0", run_dir / "work"
        check_calls = wl.check_calls(setup_dir, work_dir)
        spec = {
            "trace": trace,
            "seconds": seconds,
            "round": calls_json(wl.round(setup_dir, work_dir)),
            "threads2_round": calls_json(wl.threads2_round(setup_dir, work_dir)) if trace and wl.threads2_round else [],
            "artifacts": [str(p) for p in wl.artifacts(work_dir)],
            "check_calls": calls_json(check_calls),
            "check_artifacts": [str(argv[argv.index("--out") + 1]) for _, argv in check_calls],
            "work_dir": str(work_dir),
            "result_file": str(run_dir / "measure.json"),
            "trace_file": str(trace_dir / f"{name}-seed{seed}-measure.json"),
        }
        measured = run_worker("measure", spec, deadline, env)
        errors = list(measured["failures"]) + list(measured["check_failures"])
        errors += determinism_errors(root, name, seed, setups, measured)
        try:
            check_errors, quality = wl.check(setup_dir, work_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            check_errors, quality = [f"outputs could not be checked: {exc!r}"], {}
        errors += check_errors
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        values, absent, count_errors = layer_metrics(setups[0], measured)
        errors += count_errors
        units = dict(layertrace.METRICS)
    else:
        values = {
            "setup_s": statistics.median(s["process_wall_s"] for s in setups),
            "wall_s": statistics.median(r["wall_s"] for r in measured["rounds"]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        absent, units = [], dict(END_TO_END)
    rounds = measured["rounds"] + measured.get("traced_rounds", []) + measured.get("threads2_rounds", [])
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }

    lines = [
        f"workload {name}, seed {seed}: {len(setups)} set-up(s), "
        f"{len(measured['rounds'])} untraced, {len(measured.get('traced_rounds', []))} traced and "
        f"{len(measured.get('threads2_rounds', []))} --threads 2 round(s) of {wl.size}",
        *(f"  {k:<28} {v['value']:>14.6f} {v['unit']}" for k, v in result["metrics"].items()),
        "  round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in measured["rounds"]),
        *(f"  check {k:<22} {v:>14.4f}" for k, v in quality.items()),
        *(f"  call {k:<23} {v:>14.6f} s (median)" for k, v in call_medians(spec["round"], measured["rounds"]).items()),
        f"  attempted {result['attempted']}, failed {result['failed']}, correct {str(result['correct']).lower()}",
        *(f"  absent entry point: {a}" for a in absent),
        *(f"  error: {e}" for e in errors),
    ]
    return result, lines


def call_medians(calls: list, rounds: list[dict]) -> dict[str, float]:
    """Median seconds of each distinct call label, summed within a round."""
    per_round = []
    for r in rounds:
        sums: dict[str, float] = {}
        for (label, _), seconds in zip(calls, r["call_s"]):
            sums[label] = sums.get(label, 0.0) + seconds
        per_round.append(sums)
    return {label: statistics.median(p[label] for p in per_round) for label in per_round[0]}


def determinism_errors(root: Path, name: str, seed: int, setups: list[dict], measured: dict) -> list[str]:
    """Set-ups and rounds agree byte for byte, and with earlier runs of the same code and seed."""
    errors = []
    if any(s["digests"] != setups[0]["digests"] for s in setups):
        errors.append("repeated set-ups wrote different bytes")
    first = measured["rounds"][0]["digests"]
    if any(r["digests"] != first for r in measured["rounds"]):
        errors.append("repeated rounds wrote different bytes")
    if any(r["digests"] != first for r in measured.get("traced_rounds", [])):
        errors.append("traced rounds wrote different bytes than untraced ones")
    if any(r["digests"] != first for r in measured.get("threads2_rounds", [])):
        errors.append("rounds at --threads 2 wrote different bytes than the measured rounds")
    record = {"setup": setups[0]["digests"], "round": first, "check": measured["check_digests"]}
    stored = root / OUT / "digests" / f"{name}-seed{seed}-{source_digest(root)}.json"
    if stored.exists():
        if json.loads(stored.read_text(encoding="utf-8")) != record:
            errors.append(f"artifacts differ from an earlier run of the same code and seed ({stored.name})")
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return errors


def layer_metrics(setup: dict, measured: dict) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer metrics of a traced run: medians over traced rounds, set-up added where it belongs."""
    traced = [r["raw"] for r in measured["traced_rounds"]]
    errors = [
        f"count {k} differs between traced rounds: {sorted({r[k] for r in traced})}"
        for k in layertrace.COUNTS
        if k in traced[0] and len({r[k] for r in traced}) > 1
    ]
    raw = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
    for k, v in setup["raw"].items():
        if k.startswith(layertrace.WITH_SETUP):
            raw[k] = raw.get(k, 0.0) + v
    values = layertrace.derive(raw)
    values["cli.import_s"] = setup["import_s"]
    values["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in measured["rounds"])
    untraced_s = statistics.median(r["wall_s"] for r in measured["rounds"])
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in measured["traced_rounds"]) - untraced_s
    threads2 = measured["threads2_rounds"]
    values["util.threads2_extra_s"] = statistics.median(r["wall_s"] for r in threads2) - untraced_s if threads2 else 0.0
    absent = sorted(set(setup.get("absent", [])) | set(measured.get("absent", [])))
    return values, absent, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cbtcode" / "cli.py").is_file():
        print(f"error: {root} holds no src/cbtcode; run from the root of a cbtcode checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, lines = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
