#!/usr/bin/env python3
"""The repository's benchmark: one command per (workload, seed) run.

    python3 asrbench/run.py --workload batch-rib --seed 1 --seconds 10 --trace 0
    python3 asrbench/run.py --selftest

Run from the root of a checkout.  It builds the harness (asrbench/, a CMake
package of its own that compiles the library sources under src/) into
$CARGO_TARGET_DIR or .bench_build, generates the workload's inputs from the
seed in a separate process (cached per workload and seed), then measures.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is non-zero when an
output check failed or the run could not be made.  See asrbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch-rib", "batch-wide", "serve-mix", "ingest-serve")
# The unit-of-work median of each workload, as the report prints it; the
# traced run's value against the untraced run's is the tracing overhead.
HEADLINE = {"batch-rib": "batch_s", "batch-wide": "batch_s",
            "serve-mix": "burst_ms_per_kreq", "ingest-serve": "epoch_publish_p50_ms"}
BUILD_TYPE = "Release"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(message):
    print(f"asrbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else Path.cwd() / path


def build(out):
    """Configure once, then let the build tool bring the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator],
                       check=True, stdout=sys.stderr, timeout=600)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(out), "--target", "asrbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=900)
    return out / "asrbench"


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest():
    """Digest of the measured sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(sha256_file(path).encode())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def inputs(binary, workload, seed, out):
    """Generate (or reuse) the inputs for (workload, seed)."""
    final = out / "inputs" / workload / str(seed)
    if (final / "COMPLETE").is_file():
        return final
    staging = final.with_name(f"{seed}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    subprocess.run([str(binary), "gen", "--workload", workload, "--seed", str(seed),
                    "--out", str(staging)], check=True, timeout=170)
    (staging / "COMPLETE").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)
    return final


def report_value(lines, name):
    """A value from the report lines ("#   name = value unit"), or None."""
    for line in lines:
        match = re.match(r"#\s+(\S+) = (\S+) ", line)
        if match and match.group(1) == name:
            return float(match.group(2))
    return None


def listed_metrics(result, trace):
    """The result's metrics in BENCHMARK.json's order and units.

    An untraced run must report every end-to-end metric.  A traced run
    reports the per-layer metrics of the layers its workload calls; the
    others read 0.  A metric that is not listed, or has another unit, is an
    error in the harness.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            raise ValueError(f"metric {name} ({metric['unit']}) is not listed with that unit")
    metrics = {}
    for name, unit in units.items():
        if name in measured:
            metrics[name] = measured[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"end-to-end metric {name} was not reported")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness's statistics self-tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        out = build_dir()
        binary = build(out)
        if args.selftest:
            return subprocess.run([str(binary), "selftest"], timeout=120).returncode
        input_dir = inputs(binary, args.workload, args.seed, out)
        work = out / "work" / f"{args.workload}-{args.seed}"
        work.mkdir(parents=True, exist_ok=True)
        run = subprocess.run(
            [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", str(input_dir), "--work", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"cannot run: {error}")
        return 2

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError:
        sys.stdout.write(run.stdout)
        log(f"measuring process exited {run.returncode} without a result")
        return run.returncode or 2
    try:
        result["metrics"] = listed_metrics(result, args.trace)
    except (OSError, ValueError, KeyError) as error:
        sys.stdout.write(run.stdout)
        log(f"cannot report: {error}")
        return 2

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hardware_threads": len(os.sched_getaffinity(0)),
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_digest": source_digest(),
        "input_digests": {p.name: sha256_file(p)[:16]
                          for p in sorted(input_dir.iterdir()) if p.name != "COMPLETE"},
    }
    headline = report_value(lines, HEADLINE[args.workload])
    untraced = work / "untraced-headline.json"
    if args.trace:
        facts["trace_file"] = str(work / f"trace-{args.workload}-{args.seed}.jsonl")
        before = json.loads(untraced.read_text()) if untraced.is_file() else {}
        if headline is not None and before.get("name") == HEADLINE[args.workload]:
            facts["trace_overhead_vs_untraced"] = {
                HEADLINE[args.workload]: headline / before["value"] - 1}
    elif headline is not None:
        untraced.write_text(json.dumps({"name": HEADLINE[args.workload], "value": headline}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"run_facts": facts}))
    print(json.dumps(result), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
