#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload chan-wide --seed 1 --seconds 20 --trace 0

Builds the benchmark crate (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, checks the result against
BENCHMARK.json, and prints a stamp line followed by the result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones. The stamped result, and the spans of a traced run,
are written under e2e_bench/out/. Exits non-zero, without a result line,
when the build fails, the run fails or its output is malformed.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BINARY = "byz-e2e-bench"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A measured run takes tens of seconds; one still going after this is
# killed and reported as failed. The build before it is not timed.
RUN_TIMEOUT_S = 170
# What the source digest covers: the program and the benchmark.
SOURCE_PARTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "e2e_bench"]
SOURCE_SKIP = {"out", "target", ".bench_build", "__pycache__"}


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def validate(result, spec, traced):
    """Problems with a result line, or an empty list when it is sound."""
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not _is_int(attempted) or attempted < 1:
        problems.append(f"attempted must be a whole number >= 1, not {attempted!r}")
    if not _is_int(failed) or failed < 0:
        problems.append(f"failed must be a whole number >= 0, not {failed!r}")
    elif _is_int(attempted) and failed > attempted:
        problems.append(f"failed {failed} exceeds attempted {attempted}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    table = spec["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    for name in expected:
        if name not in metrics:
            problems.append(f"missing metric {name}")
    for name, entry in metrics.items():
        if not NAME_RE.fullmatch(name):
            problems.append(f"malformed metric name {name!r}")
        if name not in expected:
            problems.append(f"metric {name} is not listed in BENCHMARK.json")
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} must hold exactly value and unit")
            continue
        if entry["unit"] != expected[name]:
            problems.append(f"metric {name} unit {entry['unit']!r} != {expected[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r} is not a finite number")
    return problems


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def commit(root=ROOT):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root=ROOT):
    """SHA-256 over the program and benchmark sources (path and bytes),
    which identifies the code even where no git history is present."""
    h = hashlib.sha256()
    files = []
    for part in SOURCE_PARTS:
        p = root / part
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames if d not in SOURCE_SKIP)
                files.extend(Path(dirpath) / f for f in filenames)
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return target / "release" / BINARY


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"error: BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    binary = build()
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: benchmark exited with {done.returncode}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        stamp_line, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        print(f"error: unreadable benchmark output: {e}", file=sys.stderr)
        return 1
    problems = validate(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1

    stamp = {
        **stamp_line.get("stamp", {}),
        "commit": commit(),
        "source_digest": source_digest(),
        "rustc": rustc_version(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    record = {"stamp": stamp, "checks": stamp_line.get("checks", []), "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"stamp": stamp, "checks": record["checks"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
