"""One benchmark run in a fresh interpreter: import, generate, then a closed loop.

Usage (from the repository root):
    python3 bench/worker.py --workload decide-scale --seed 1 --seconds 30 [--setup-only] [--trace]

Prints "ready <monotonic time>" as soon as `import stochord` and input
generation are done, so the parent can time set-up from spawn, then
"yardstick <seconds>", the host speed next to set-up. Then one
caller runs whole rounds of operations, each sent after the previous
returned, until the measured time reaches --seconds and at least
workloads.MIN_ROUNDS rounds ran. Set-up generates those rounds; any later
round is generated when it is reached, outside the timed region. The last
line is one JSON object with the per-op records; correctness is checked by
the parent, outside this process. A traced run also writes its spans to
.bench_out/spans-<workload>.{bin,json}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# This shared host's speed drifts by up to 2x over a minute or two, for all
# code alike. A fixed job (the yardstick), timed at the start of each round
# and then every YARDSTICK_EVERY_S of measured time, between operations,
# gives the host speed next to each round; run.py scales the round's times
# by it.
YARDSTICK_EVERY_S = 0.1
SETUP_YARDSTICKS = 9


def decided_by(verdict) -> str:
    """The stage a verdict came from, read from its relation and certificate."""
    relation = verdict.relation.value
    if relation in ("equal", "unknown"):
        return relation
    kind = type(verdict.certificate).__name__
    if kind == "OracleCertificate":
        return f"oracle_{verdict.certificate.kind}"
    return {
        "ClosedFormCertificate": "closed_form",
        "BernoulliConvolutionCertificate": "bernoulli_convolution",
        "HmlrCertificate": "hmlr",
    }.get(kind, kind)


def parse_round(stochord, workload, raw):
    """Spec objects for one generated round, as a caller would hold them."""
    spec = stochord.spec_from_json
    if workload == "couple":
        return [(c["method"], spec(c["P"]), spec(c["Q"]), c["size"], c["seed"]) for c in raw]
    return [(spec(P), spec(Q), *rest) for P, Q, *rest in raw]


def all_rounds(stochord, workload, seed, first):
    """The rounds made in set-up, then each later round when it is reached."""
    yield from first
    for index in itertools.count(len(first)):
        yield parse_round(stochord, workload, workloads.round_of(workload, seed, index))


def yardstick() -> float:
    """Seconds for a fixed job of big-rational, float and dict work: the host-speed unit."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    table = {}
    for i in range(30000):
        table[i % 97] = table.get(i % 97, 0.0) + math.sqrt(i)
    return time.perf_counter() - t0


def closed_loop(rounds, op, seconds, min_ops):
    """Run op on each item of each round, one after another, until the stop condition.

    Returns one record [round, index, latency, *fields] per op, the yardstick
    times [round, seconds] taken between ops, and the measured seconds.
    """
    records, yard, measured = [], [], 0.0
    for r, items in enumerate(rounds):
        since = YARDSTICK_EVERY_S  # each round starts with a yardstick
        for i, item in enumerate(items):
            if since >= YARDSTICK_EVERY_S:
                yard.append([r, yardstick()])
                since = 0.0
            latency, fields = op(item)
            measured += latency
            since += latency
            records.append([r, i, latency, *fields])
        if measured >= seconds and len(records) >= min_ops:
            break
    return records, yard, measured


def decide_op(stochord):
    """One timed decide: (latency, [size, tag, relation, witnesses, error, stage])."""

    def op(item):
        P, Q, size, tag = item
        t0 = time.perf_counter()
        try:
            verdict = stochord.decide(P, Q)
        except Exception as exc:  # a raised decide is a failed op, not a crashed run
            return time.perf_counter() - t0, [size, tag, None, None, f"{type(exc).__name__}: {exc}", None]
        latency = time.perf_counter() - t0
        w = verdict.witnesses
        witnesses = None if w is None else [w.k_minus, w.k_plus]
        return latency, [size, tag, verdict.relation.value, witnesses, None, decided_by(verdict)]

    return op


def sample(couplings, method, P, Q, seed, count):
    if method == "explicit":
        return couplings.binomial_explicit_coupling(P.n, P.p, Q.n, Q.p, seed, count)
    if method == "occupancy":
        return couplings.occupancy_coupling(P.n, P.p, Q.n, Q.p, seed, count)
    if method == "levy":
        return couplings.levy_coupling(P.r, P.p, Q.r, Q.p, seed, count)
    if method == "poissonize":
        return couplings.binom_poisson_coupling(P.n, P.p, Q.lam, seed, count)
    return couplings.quantile_coupling(P, Q, seed, count)


def couple_op(couplings, samples_per_case):
    """Sample then harness one case: (latency, [size, method, samples, error, min p]).

    Domination is checked after the clock stops.
    """

    def op(item):
        method, P, Q, size, sampler_seed = item
        error, report, samples = None, None, []
        t0 = time.perf_counter()
        try:
            samples = sample(couplings, method, P, Q, sampler_seed, samples_per_case)
            report = couplings.run_harness(samples, P, Q)
        except Exception as exc:  # DominationError or a broken precondition: a failed op
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        violations = sum(1 for s in samples if s.x1 > s.x2)
        if error is None and violations:
            error = f"{violations} samples with x1 > x2"
        if error is None and len(samples) != samples_per_case:
            error = f"{len(samples)} samples instead of {samples_per_case}"
        p_min = None if report is None else min(report.p_value_x1, report.p_value_x2)
        return latency, [size, method, len(samples), error, p_min]

    return op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import stochord
    import stochord.couplings  # noqa: F401  (bound as stochord.couplings below)

    import_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    raw = workloads.rounds(args.workload, args.seed, workloads.MIN_ROUNDS[args.workload])
    first = [parse_round(stochord, args.workload, r) for r in raw]
    inputs_s = time.perf_counter() - t1
    # time.monotonic is one system-wide clock, so the parent can subtract its spawn time
    print(f"ready {time.monotonic()!r}", flush=True)
    # the host speed next to set-up, taken after "ready" so that it is not part of it
    print(f"yardstick {statistics.fmean(yardstick() for _ in range(SETUP_YARDSTICKS))!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import spans as trace_mod

        tracer = trace_mod.Tracer()
        tracer.install()
    cache = getattr(getattr(stochord.distributions, "_finite_cdf_table_cached", None), "cache_info", None)
    cache_before = cache() if cache else None
    if args.workload == "couple":
        op = couple_op(stochord.couplings, workloads.COUPLE_SAMPLES)
    else:
        op = decide_op(stochord)
    rounds = all_rounds(stochord, args.workload, args.seed, first)
    records, yard, measured = closed_loop(rounds, op, args.seconds, workloads.MIN_OPS[args.workload])
    out = {
        "records": records,
        "yardstick": yard,
        "measured_s": measured,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if cache:
        after = cache()
        out["cdf_table"] = [after.hits - cache_before.hits, after.misses - cache_before.misses]
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.aggregate()
        out["counts"] = dict(tracer.counts)
        out["max_bits"] = tracer.max_bits
        out["min_p"] = tracer.min_p
        out["absent"] = sorted(tracer.absent)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}"))  # the latest traced run
    if args.workload == "decide-scale" and tracer is None:
        # pairs left out of the rounds for a known defect (workloads.KNOWN_DEFECT), decided untimed
        known = workloads.scale_round(args.seed, 0, known_defect=True)
        out["known_defect"] = [op(item)[1] for item in parse_round(stochord, args.workload, known)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
