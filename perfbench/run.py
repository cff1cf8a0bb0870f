#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (the simulator library from
src/ plus the ebbench program) into .bench_build/ and runs one workload per
process, so process-wide state (the kernel autotuner table, serving
metrics) never leaks between workloads.

    python3 perfbench/run.py --workload sfc-wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Untraced runs report every end-to-end metric of
BENCHMARK.json, traced runs every per-layer metric; a per-layer metric of
a layer the workload never enters reads 0. The exit code is 0 on success,
1 when any output mismatched its reference, 2 on any other failure.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["zoo-mlp-l", "sfc-wire", "wdm-mapped"]
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures once, then lets the build tool bring ebbench up to date."""
    if not (ROOT / "src" / "serve" / "gateway.hpp").is_file():
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return BUILD / "ebbench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, report lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(BUILD / "work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(out)
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raise BenchError(f"{workload} printed no result line")
    return proc.returncode, lines[:-1], result


def declared_metrics(result, trace):
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in declared}
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                raise BenchError(f"{name}: unit {got[name]['unit']} != {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0.0, "unit": unit}  # layer not entered
        else:
            raise BenchError(f"end-to-end metric {name} was not measured")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        (BUILD / "work").mkdir(parents=True, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        worst_rc = 0
        for name in names:
            rc, lines, result = run_workload(binary, name, args.seed,
                                             args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            worst_rc = max(worst_rc, rc)
            metrics = declared_metrics(result, args.trace)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}/" if args.workload == "all" else ""
            for key, value in metrics.items():
                combined["metrics"][prefix + key] = value
        print(json.dumps(combined))
        return worst_rc
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
