"""stochord benchmark: seeded closed-loop workloads with an independent exact check.

Usage (from the repository root):
    python3 bench/run.py --workload decide-scale --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. Every run spawns fresh interpreters (bench/worker.py),
checks every output here with bench/check.py, and prints one JSON object
as its last line: {"correct", "attempted", "failed", "metrics"}. See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5  # set-up-only interpreters per untraced run, besides the measured one
RUN_BUDGET_S = 170  # the whole run, checks included, must end within 180 s
# Reported times are scaled to a host on which worker.yardstick() takes this
# long, so that the host's speed drift cancels (see worker.py).
YARDSTICK_REF_S = 0.005
TAIL_LEVEL = 0.90  # latency_tail_ms; every run has >= MIN_OPS (200) ops, so >= 20 lie beyond it

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "latency_slope": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ordering.decide.calls": "count",
    "ordering.self_time_s": "s",
    "ordering.closed_form.calls": "count",
    "ordering.closed_form.time_s": "s",
    "ordering.bc.time_s": "s",
    **{
        f"ordering.decided_by.{stage}": "count"
        for stage in ("equal", "closed_form", "bernoulli_convolution", "hmlr",
                      "oracle_exact", "oracle_truncated", "unknown")
    },
    "likelihood.hmlr.calls": "count",
    "likelihood.hmlr.time_s": "s",
    "likelihood.hmlr.hit_ratio": "1",
    "oracle.dominance.calls": "count",
    "oracle.dominance.time_s": "s",
    "oracle.k_scanned": "count",
    "oracle.truncated_share": "1",
    "oracle.witnesses.calls": "count",
    "oracle.witnesses.time_s": "s",
    "distributions.pmf.calls": "count",
    "distributions.pmf.time_s": "s",
    "distributions.max_bits": "bits",
    "distributions.cdf_table.lookups": "count",
    "distributions.cdf_table.hit_ratio": "1",
    "exact.format_scalar.calls": "count",
    "exact.format_scalar.time_s": "s",
    **{f"couplings.{m}.samples_per_s": "1/s" for m in workloads.METHODS},
    "couplings.harness.time_s": "s",
    "couplings.harness.min_p": "1",
    "couplings.violations": "count",
    "streams.substream.calls": "count",
    "streams.substream.time_s": "s",
    "streams.draws": "count",
    "setup.import_s": "s",
    "setup.import_scipy_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_ratio": "1",
    "anchor.paper_x1_s": "s",
    "anchor.paper_x3_s": "s",
}


class RunFailed(Exception):
    """A worker crashed or timed out; the run prints no result."""


def spawn(workload, seed, seconds, deadline, *flags, importtime=False):
    """Run one worker; return (scaled set-up seconds from spawn, decoded result or None, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if importtime else None, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker {' '.join(flags)} exceeded the run budget")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if not ready:
        raise RunFailed("worker never reported ready")
    setup_s = float(ready[0].split()[1]) - spawned
    yardstick = float(next(line for line in lines if line.startswith("yardstick ")).split()[1])
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return setup_s * YARDSTICK_REF_S / yardstick, result, err


# --- the correctness gate ---------------------------------------------------------


def failures_decide(seed, records):
    """One reason list per record, from the exact checker."""
    rounds = workloads.rounds("decide-scale", seed, 1 + max(r[0] for r in records))
    laws = {}
    out = []
    for rnd, idx, _lat, _size, _tag, relation, witnesses, error, _stage in records:
        if error is not None:
            out.append([f"raised {error}"])
            continue
        P, Q = rounds[rnd][idx][:2]
        try:
            reasons = check.check_verdict(P, Q, relation, witnesses, laws)
        except ValueError as exc:
            reasons = [f"checker could not rebuild the pair: {exc}"]
        out.append(reasons)
    return out


def known_defect_lines(seed, records):
    """One line per pair left out of the rounds for a known defect, checked like the rest.

    These pairs are decided after the timed loop and count in neither
    `attempted` nor `failed` (workloads.KNOWN_DEFECT); the lines keep the
    defect in view, and show when a fix makes them pass the gate.
    """
    pairs = workloads.scale_round(seed, 0, known_defect=True)
    lines = []
    for (P, Q, *_), (_size, tag, relation, witnesses, error, _stage) in zip(pairs, records):
        if error is not None:
            outcome = f"raised {error}"
        else:
            try:
                reasons = check.check_verdict(P, Q, relation, witnesses, {})
            except ValueError as exc:
                reasons = [f"checker could not rebuild the pair: {exc}"]
            outcome = f"{relation}, " + ("; ".join(reasons) if reasons else "passes the gate")
        lines.append(f"known_defect {tag} (untimed, outside the gate): {outcome}")
    return lines


def failures_couple(records):
    return [[r[6]] if r[6] else [] for r in records]


# --- metrics ------------------------------------------------------------------------


def tail(latencies):
    """(value, samples beyond) at the fixed level TAIL_LEVEL.

    Each decide-scale round holds ~6 pairs of 0.3-1.3 s and then a drop to
    ~0.2 s. A level with only 10 samples beyond it (96 %) falls on that
    edge, so which side one pair lands on moves it by ~30 % from run to run.
    At 90 % it sits among the ~0.1 s pairs of the 450-point class, where
    neighbouring samples lie close together.
    """
    ordered = sorted(latencies)
    index = min(int(len(ordered) * TAIL_LEVEL), len(ordered) - 1)
    return ordered[index], len(ordered) - 1 - index


def loglog_slope(sizes, latencies):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in latencies]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def round_scales(result):
    """Per round, YARDSTICK_REF_S over the mean yardstick time taken in it.

    An operation's time sums the host's slowness over its whole span, and the
    host switches between fast and slow within a second, so the mean of
    yardsticks spread over the round, not their median, tracks it.
    """
    times = {}
    for rnd, seconds in result["yardstick"]:
        times.setdefault(rnd, []).append(seconds)
    return {rnd: YARDSTICK_REF_S / statistics.fmean(ts) for rnd, ts in times.items()}


def scaled_latencies(result):
    scale = round_scales(result)
    return [r[2] * scale[r[0]] for r in result["records"]]


def end_to_end(workload, setups, result):
    """Throughput and p50 are medians over whole rounds, so a slow stretch of the
    host moves only the rounds it overlaps; the tail and slope pool every op.
    All times are scaled by their round's yardstick."""
    records = result["records"]
    latencies = scaled_latencies(result)
    per_round = {}
    for r, latency in zip(records, latencies):
        per_round.setdefault(r[0], []).append((r, latency))
    throughputs, p50s = [], []
    for ops in per_round.values():
        work = sum(r[5] for r, _ in ops) if workload == "couple" else len(ops)
        throughputs.append(work / sum(latency for _, latency in ops))
        p50s.append(statistics.median(latency for _, latency in ops))
    tail_value, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(throughputs),
        "latency_p50_ms": 1e3 * statistics.median(p50s),
        "latency_tail_ms": 1e3 * tail_value,
        "latency_slope": loglog_slope([r[3] for r in records], latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    alias = "samples_per_s" if workload == "couple" else "decide_per_s"
    raw = [r[2] for r in records]
    notes = {alias: metrics["throughput_per_s"], "tail_percentile": 100 * TAIL_LEVEL,
             "tail_samples_beyond": beyond, "samples": len(latencies),
             "rounds": len(per_round), "measured_s": result["measured_s"],
             "unscaled_p50_ms": 1e3 * statistics.median(raw),
             "host_speed": statistics.median(round_scales(result).values()),
             "setup_runs": len(setups)}
    return metrics, notes


def parse_importtime(stderr, package="scipy.stats"):
    """Cumulative import seconds of `package` from -X importtime output, None if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1e6
    return None


def per_layer(workload, plain, traced, import_scipy_s):
    spans = traced["spans"]
    counts = traced["counts"]
    absent = set(traced["absent"])

    def span(name, field):
        if name in absent:
            return None
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    stages = {}
    for r in traced["records"]:
        if workload != "couple":
            stage = r[8] or "raised"
            stages[stage] = stages.get(stage, 0) + 1
    m = {
        "ordering.decide.calls": span("ordering.decide", "calls"),
        "ordering.self_time_s": sum(v["self_s"] for k, v in spans.items() if k.startswith("ordering.")),
        "ordering.closed_form.calls": span("ordering.closed_form", "calls"),
        "ordering.closed_form.time_s": span("ordering.closed_form", "time_s"),
        "ordering.bc.time_s": span("ordering.bc", "time_s"),
    }
    for name in PER_LAYER:
        if name.startswith("ordering.decided_by."):
            m[name] = stages.get(name.rsplit(".", 1)[1], 0)
    hmlr_calls = span("likelihood.hmlr", "calls")
    dominance_calls = span("oracle.dominance", "calls")
    m.update({
        "likelihood.hmlr.calls": hmlr_calls,
        "likelihood.hmlr.time_s": span("likelihood.hmlr", "time_s"),
        "likelihood.hmlr.hit_ratio": None if hmlr_calls is None else ratio(counts.get("likelihood.hmlr.members", 0), hmlr_calls),
        "oracle.dominance.calls": dominance_calls,
        "oracle.dominance.time_s": span("oracle.dominance", "time_s"),
        "oracle.k_scanned": None if "oracle.k_scanned" in absent else counts.get("oracle.k_scanned", 0),
        "oracle.truncated_share": None if dominance_calls is None else ratio(counts.get("oracle.truncated", 0), dominance_calls),
        "oracle.witnesses.calls": span("oracle.witnesses", "calls"),
        "oracle.witnesses.time_s": span("oracle.witnesses", "time_s"),
        "distributions.pmf.calls": span("distributions.pmf", "calls"),
        "distributions.pmf.time_s": span("distributions.pmf", "time_s"),
        "distributions.max_bits": None if "distributions.pmf" in absent else traced["max_bits"],
        "exact.format_scalar.calls": span("exact.format_scalar", "calls"),
        "exact.format_scalar.time_s": span("exact.format_scalar", "time_s"),
    })
    lookups = traced.get("cdf_table")
    m["distributions.cdf_table.lookups"] = None if lookups is None else sum(lookups)
    m["distributions.cdf_table.hit_ratio"] = None if lookups is None else ratio(lookups[0], sum(lookups))
    for method in workloads.METHODS:
        name = f"couplings.{method}"
        t = span(name, "time_s")
        m[f"{name}.samples_per_s"] = None if t is None else ratio(counts.get(f"{name}.samples", 0), t)
    m.update({
        "couplings.harness.time_s": span("couplings.harness", "time_s"),
        # no harness call tests nothing, which the harness itself reports as p = 1
        "couplings.harness.min_p": 1.0 if traced["min_p"] is None else traced["min_p"],
        "couplings.violations": counts.get("couplings.violations", 0),
        "streams.substream.calls": span("streams.substream", "calls"),
        "streams.substream.time_s": span("streams.substream", "time_s"),
        "streams.draws": None if "streams.draws" in absent else counts.get("streams.draws", 0),
        "setup.import_s": traced["import_s"],
        "setup.import_scipy_s": import_scipy_s,
        "setup.inputs_s": traced["inputs_s"],
    })
    # both runs scaled by their yardsticks, so host drift between them cancels
    plain_latencies = scaled_latencies(plain)
    plain_by_op = {(r[0], r[1]): t for r, t in zip(plain["records"], plain_latencies)}
    common = [
        (plain_by_op[(r[0], r[1])], t)
        for r, t in zip(traced["records"], scaled_latencies(traced))
        if (r[0], r[1]) in plain_by_op
    ]
    m["trace.overhead_ratio"] = ratio(sum(t for _, t in common), sum(p for p, _ in common))
    for tag in ("paper_x1", "paper_x3"):
        times = [t for r, t in zip(plain["records"], plain_latencies) if workload == "decide-scale" and r[4] == tag]
        m[f"anchor.{tag}_s"] = statistics.median(times) if times else 0.0
    return m


# --- entry point ---------------------------------------------------------------------


def emit(metrics, units, notes, records, failures):
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {units[name]}")
    for name, value in notes.items():
        print(f"{name:40s} {value:>14.6g}")
    failed = sum(1 for reasons in failures if reasons)
    print(f"{'error_rate':40s} {failed / max(1, len(records)):>14.6g} 1  ({failed} of {len(records)} ops)")
    kinds = {}
    for rec, reasons in zip(records, failures):
        if reasons:
            kind = reasons[0].split(":")[0].split(",")[0].split("=")[0]
            kinds.setdefault(kind, []).append(f"round {rec[0]} op {rec[1]}: {'; '.join(reasons)}")
    for kind, ops in sorted(kinds.items()):
        print(f"  {len(ops)} failed: {kind} (first: {ops[0]})")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stochord", "__init__.py")):
        sys.stderr.write("bench: src/stochord not found next to bench/; run from a repository checkout\n")
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    w, seed, seconds = args.workload, args.seed, args.seconds
    try:
        if args.trace == 0:
            setups = [spawn(w, seed, seconds, deadline, "--setup-only")[0] for _ in range(SETUP_RUNS)]
            setup_s, result, _ = spawn(w, seed, seconds, deadline)
            setups.append(setup_s)
            metrics, notes = end_to_end(w, setups, result)
            units = END_TO_END
        else:
            _, _, err = spawn(w, seed, seconds, deadline, "--setup-only", importtime=True)
            _, plain, _ = spawn(w, seed, seconds, deadline)
            _, result, _ = spawn(w, seed, seconds, deadline, "--trace")
            metrics = per_layer(w, plain, result, parse_importtime(err))
            notes = {"spans_recorded": sum(v["calls"] for v in result["spans"].values())}
            units = PER_LAYER
    except RunFailed as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    records = result["records"]
    if w == "couple":
        failures = failures_couple(records)
    else:
        failures = failures_decide(seed, records)
        for line in known_defect_lines(seed, result.get("known_defect", [])):
            print(line)
    emit(metrics, units, notes, records, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
