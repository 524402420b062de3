"""Tests of the benchmark's own code: input generation and the exact checker.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import workloads  # noqa: E402


def test_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.rounds(workload, 7, 2)
        assert first == workloads.rounds(workload, 7, 2)
        assert first != workloads.rounds(workload, 8, 2)


def test_known_defect_pairs_are_outside_the_scale_rounds():
    timed = workloads.scale_round(5, 0)
    known = workloads.scale_round(5, 0, known_defect=True)
    assert len(timed) == workloads.ROUND_OPS["decide-scale"]
    assert {tag for *_, tag in known} == {"binomial/poisson", "poisson/binomial"}
    assert not {tuple(map(str, pair[:2])) for pair in known} & {tuple(map(str, pair[:2])) for pair in timed}


def test_couple_cases_meet_their_preconditions():
    from stochord import couplings, spec_from_json

    cases = [case for r in workloads.rounds("couple", 3, 6) for case in r]
    assert {case["method"] for case in cases} == set(workloads.METHODS)
    for case in cases:
        P, Q, method = case["P"], case["Q"], case["method"]
        if method in ("explicit", "occupancy"):
            n1, p1, n2, p2 = P["n"], Fraction(P["p"]), Q["n"], Fraction(Q["p"])
            assert 1 <= n1 <= n2
            assert (1 - p1) ** n1 >= (1 - p2) ** n2
        elif method == "levy":
            r1, p1, r2, p2 = P["r"], Fraction(P["p"]), Q["r"], Fraction(Q["p"])
            assert p1 >= p2 and p1**r1 >= p2**r2
        elif method == "poissonize":
            n, p, lam = P["n"], Fraction(P["p"]), Fraction(Q["lambda"])
            assert n * math.log1p(-float(p)) > -float(lam)
        else:
            law_p, law_q = check.law(P), check.law(Q)
            if isinstance(law_p, check.FiniteLaw):
                assert check.scan_finite(law_p, law_q)[0] in ("le_st", "equal")
            else:
                assert Fraction(P["lambda"]) <= Fraction(Q["lambda"])
        # the samplers' own precondition checks agree
        sp, sq = spec_from_json(P), spec_from_json(Q)
        if method in ("explicit", "occupancy"):
            couplings.occupancy_coupling(sp.n, sp.p, sq.n, sq.p, 1, 1)
        elif method == "levy":
            couplings.levy_coupling(sp.r, sp.p, sq.r, sq.p, 1, 1)
        elif method == "poissonize":
            couplings.binom_poisson_coupling(sp.n, sp.p, sq.lam, 1, 1)


def test_checker_paper_counterexample_crosses_at_44_45():
    P, Q = workloads.PAPER_X1
    relation, crossings = check.scan_finite(check.law(P), check.law(Q))
    assert relation == "incomparable"
    assert crossings == (45,)
    law_p, law_q = check.law(P), check.law(Q)
    assert check.compare_cdf(law_p, law_q, 44) == 1
    assert check.compare_cdf(law_p, law_q, 45) == -1


def test_checker_binomial_below_hypergeometric():
    P = {"family": "binomial", "n": 18, "p": "1/2"}
    Q = {"family": "hypergeometric", "B": 21, "W": 23, "n": 22}
    assert check.scan_finite(check.law(P), check.law(Q))[0] == "le_st"
    assert check.check_verdict(P, Q, "le_st", None) == []
    assert check.check_verdict(P, Q, "ge_st", None) != []


def test_checker_verifies_and_rejects_witnesses():
    P, Q = workloads.PAPER_X1
    # F_P > F_Q at 44 gives S_P(45) < S_Q(45); F_P < F_Q at 45 gives S_P(46) > S_Q(46)
    assert check.check_verdict(P, Q, "incomparable", (45, 46)) == []
    assert check.check_verdict(P, Q, "incomparable", (46, 45)) != []
    assert check.check_verdict(P, Q, "incomparable", None) != []


def test_checker_unbounded_laws_match_closed_forms():
    poisson = check.law({"family": "poisson", "lambda": "5/2"})
    lo, hi = poisson.cdf(3)
    expected = math.exp(-2.5) * (1 + 2.5 + 2.5**2 / 2 + 2.5**3 / 6)
    assert lo <= hi and math.isclose(float(lo), expected, rel_tol=1e-12)
    negbin = check.law({"family": "negbinomial", "r": 2, "p": "3/10"})
    lo, hi = negbin.cdf(1)
    assert lo == hi == Fraction(3, 10) ** 2 * (1 + 2 * Fraction(7, 10))


def test_tracer_records_spans_and_marks_missing_functions_absent(monkeypatch):
    import spans
    import stochord

    original = stochord.ordering.decide
    # ordering keeps its own binding, so decide still runs without exact.format_scalar
    monkeypatch.delattr(stochord.exact, "format_scalar")
    tracer = spans.Tracer()
    tracer.install()
    try:
        P = stochord.spec_from_json({"family": "binomial", "n": 18, "p": "1/2"})
        Q = stochord.spec_from_json({"family": "hypergeometric", "B": 21, "W": 23, "n": 22})
        assert stochord.decide(P, Q).relation.value == "le_st"
    finally:
        tracer.uninstall()
    assert tracer.absent == {"exact.format_scalar"}
    rows = tracer.aggregate()
    assert rows["ordering.decide"]["calls"] == 1
    assert rows["distributions.pmf"]["calls"] > 0
    assert 0 <= rows["ordering.decide"]["self_s"] <= rows["ordering.decide"]["time_s"]
    assert stochord.ordering.decide is original and stochord.decide is original


def test_scaled_metrics_cancel_a_uniformly_slower_host():
    import run

    rounds = workloads.MIN_ROUNDS["couple"]
    records = [
        [r, i, 0.01 * (i + 1), 8 + i, "explicit", workloads.COUPLE_SAMPLES, None, 0.5]
        for r in range(rounds)
        for i in range(workloads.ROUND_OPS["couple"])
    ]
    calm = {"records": records, "yardstick": [[r, 0.004] for r in range(rounds)], "peak_rss_mb": 100.0, "measured_s": 1.0}
    slow = {
        **calm,
        "records": [[r, i, 2 * t, *rest] for r, i, t, *rest in records],
        "yardstick": [[r, 0.008] for r in range(rounds)],
    }
    calm_metrics, _ = run.end_to_end("couple", [1.0], calm)
    slow_metrics, _ = run.end_to_end("couple", [1.0], slow)
    assert calm_metrics.keys() == slow_metrics.keys()
    for name, value in calm_metrics.items():
        assert math.isclose(value, slow_metrics[name]), name
