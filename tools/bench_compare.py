#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between two versions of this repository.

Usage (from the repository root):
    python3 tools/bench_compare.py --base c580150 --workload decide-scale \\
        --workload couple --pairs 3 --seed 5 --seconds 30 --trace-runs 1 \\
        --out BENCH_7.json

The base commit is exported with `git archive` into a temporary directory,
and the head is the working tree's tracked and unignored files, copied into
another, so both sides run from what a commit holds and nothing else. Each
pair runs `python3 bench/run.py --trace 0` once per side, alternating which
side runs first. A run counts only if it exits 0 and its last stdout line is a JSON
result with "correct": true, "failed": 0 and a number for every metric (an
absent metric prints as null). With --trace-runs N, each side also makes N
`--trace 1` runs, held to the same rule, whose per-layer metrics are kept as
printed.

The output JSON holds, per workload, each side's runs, medians and
quartiles, and the head's wins per metric (better on that pair, ties
counting for neither side), plus the git shas, the Python version and nproc.
An existing --out file keeps its other workloads. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

RUN_TIMEOUT_S = 600


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export_commit(sha: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest)


def export_working_tree(dest: str) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        path = name.decode()
        if path and os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def bench_run(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run: its metric values, or the reason it does not count."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"no result within {RUN_TIMEOUT_S} s"}
    out = parse_run(proc.returncode, proc.stdout)
    out["wall_s"] = round(time.monotonic() - started, 1)
    if not out["ok"]:
        out["stderr"] = proc.stderr[-2000:]
    return out


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def parse_run(returncode: int, stdout: str) -> dict:
    """A run's metric values from its exit code and stdout, with "ok" false
    unless the last line is a correct result whose every metric is a number."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return {"ok": False, "error": f"exit {returncode}; last line is not a result"}
    out = {"ok": True, "attempted": result.get("attempted"), "failed": result.get("failed"), "metrics": metrics}
    not_numbers = sorted(name for name, value in metrics.items() if not is_number(value))
    if returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        out.update(ok=False, error=f"exit {returncode}, correct {result.get('correct')}, failed {result.get('failed')}")
    elif not_numbers:
        out.update(ok=False, error=f"not a number: {', '.join(not_numbers)}")
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(base_runs: list, head_runs: list, better: dict) -> dict:
    """Per metric: each side's values, medians and quartiles, and the head's wins."""
    pairs = [(b, h) for b, h in zip(base_runs, head_runs) if b["ok"] and h["ok"]]
    out = {}
    for name, direction in better.items():
        if not pairs or any(name not in run["metrics"] for pair in pairs for run in pair):
            continue
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        bm, hm = statistics.median(base), statistics.median(head)
        out[name] = {
            "better": direction,
            "base_median": bm,
            "head_median": hm,
            "ratio": hm / bm if bm else None,
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "head_wins": wins,
            "pairs": len(base),
            "base_runs": base,
            "head_runs": head,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    base_sha = git("rev-parse", args.base).decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    with open("BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    report.update({
        "base": {"sha": base_sha},
        "head": {"sha": head_sha, "uncommitted_changes": dirty},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
    })
    workloads_out = report.setdefault("workloads", {})

    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        sides = {"base": os.path.join(tmp, "base"), "head": os.path.join(tmp, "head")}
        export_commit(base_sha, sides["base"])
        export_working_tree(sides["head"])
        for workload in args.workload:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    run = bench_run(sides[side], workload, args.seed, args.seconds, 0)
                    runs[side].append(run)
                    tp = run.get("metrics", {}).get("throughput_per_s")
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: ok={run['ok']} "
                          f"throughput_per_s={tp}", file=sys.stderr)
            entry = {
                "seed": args.seed,
                "seconds": args.seconds,
                "pairs": args.pairs,
                "runs_ok": {side: sum(r["ok"] for r in rs) for side, rs in runs.items()},
                "errors": [r.get("error") for rs in runs.values() for r in rs if not r["ok"]],
                "end_to_end": summarise(runs["base"], runs["head"], better),
            }
            if args.trace_runs:
                entry["trace"] = {
                    side: [bench_run(sides[side], workload, args.seed, args.seconds, 1)
                           for _ in range(args.trace_runs)]
                    for side in ("base", "head")
                }
                entry["errors"] += [f"trace {side}: {r['error']}" for side, rs in entry["trace"].items()
                                    for r in rs if not r["ok"]]
            workloads_out[workload] = entry
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
    failed = sum(len(w["errors"]) for w in workloads_out.values())
    print(f"wrote {args.out}; {failed} run(s) did not count", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
