"""Integer mass tables and the one survival scan, against plain references.

The references in this file use only math.comb, fractions.Fraction and the
float Poisson recurrence: exact laws are summed as Fractions, Poisson laws
as floats, and cumulative values are compared directly, as the scan did
before the masses moved into integer tables. per_k_scan is the survival
scan as a pass over every k, as it was before it settled blocks of k.
"""

import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochord import (
    Binomial,
    Hypergeometric,
    InconsistentStages,
    NegBinomial,
    OraclePolicy,
    Poisson,
    PoissonBinomial,
    Relation,
    decide,
    dominance_exact,
    is_lr_ordered,
    likelihood_profile,
    spec_from_json,
    survival_witnesses,
    tail_conditions,
    verdict_to_json,
)
from stochord import distributions as dist
from stochord import likelihood as lik_mod
from stochord import oracle as oracle_mod
from stochord import ordering as ordering_mod
from stochord.cli import main
from stochord.exact import cross_sign
from stochord.ordering import ClosedFormOutcome

PINNED = json.loads((pathlib.Path(__file__).parent / "pinned_verdicts.json").read_text())
# oracle outputs of the per-k survival scan (commit 3bc22db), decide-scale's
# 700-point negative-binomial pairs among them
PINNED_SCANS = json.loads((pathlib.Path(__file__).parent / "pinned_scans.json").read_text())


# --- references -------------------------------------------------------------------


def _poisson_masses(lam, hi):
    mass, out = math.exp(-float(lam)), []
    for k in range(hi + 1):
        out.append(mass)
        mass = mass * float(lam) / (k + 1)
    return out


def ref_masses(spec, hi):
    """Masses of k = 0..hi: Fractions for exact laws, floats for Poisson."""
    if isinstance(spec, Poisson):
        return _poisson_masses(spec.lam, hi)
    if isinstance(spec, Binomial):
        n, p = spec.n, spec.p
        return [math.comb(n, k) * p**k * (1 - p) ** (n - k) if k <= n else Fraction(0) for k in range(hi + 1)]
    if isinstance(spec, Hypergeometric):
        total = math.comb(spec.B + spec.W, spec.n)
        return [
            Fraction(math.comb(spec.B, k) * math.comb(spec.W, spec.n - k), total) if k <= spec.n else Fraction(0)
            for k in range(hi + 1)
        ]
    if isinstance(spec, NegBinomial):
        r, p = int(spec.r), spec.p
        return [math.comb(r + k - 1, k) * p**r * (1 - p) ** k for k in range(hi + 1)]
    table = [Fraction(1)]
    for p in spec.p_vec:
        table = [
            (table[j] if j < len(table) else 0) * (1 - p) + (table[j - 1] * p if j else 0)
            for j in range(len(table) + 1)
        ]
    return [table[k] if k < len(table) else Fraction(0) for k in range(hi + 1)]


def ref_scan(P, Q, lo, hi, saturate=False):
    """(relation, crossings, witnesses) from cumulative sums compared directly."""
    mp, mq = ref_masses(P, hi), ref_masses(Q, hi)
    fp = fq = 0  # no mass lies below lo
    crossings, prev, above, below = [], 0, None, None
    for k in range(lo, hi + 1):
        fp, fq = fp + mp[k], fq + mq[k]
        if saturate and (isinstance(fp, float) or isinstance(fq, float)):
            if (1.0 - float(fp)) + (1.0 - float(fq)) < 1e-15:
                break
        sign = (fp > fq) - (fp < fq)
        if sign:
            if prev and sign != prev:
                crossings.append(k)
            prev = sign
            if sign > 0 and above is None:
                above = k
            if sign < 0 and below is None:
                below = k
    relation = {
        (True, True): Relation.INCOMPARABLE,
        (True, False): Relation.LE_ST,
        (False, True): Relation.GE_ST,
        (False, False): Relation.EQUAL,
    }[(above is not None, below is not None)]
    witnesses = None if above is None or below is None else (above + 1, below + 1)
    return relation, crossings, witnesses


def scan_result(P, Q, hi, saturate=False):
    scan = oracle_mod._survival_scan(P, Q, hi, saturate=saturate)
    relation = oracle_mod._relation_from_signs(scan.first_above is not None, scan.first_below is not None)
    return relation, list(scan.crossings), oracle_mod._witness_pair(scan, hi)


def per_k_scan(P, Q, hi, saturate=False, until_witnesses=False):
    """The fields of _survival_scan from a pass over every k of the window.

    Each cdf is the running sum of mass_iter: a Fraction for an exact law, a
    float for a float law. The sign compares the two exactly, the saturation
    test and the tail bound read float(F), which rounds a Fraction correctly.
    """
    lo = dist.joint_support(P, Q).k_min
    floats = saturate and (dist.mass_table(P) is None or dist.mass_table(Q) is None)

    def cdfs(spec):
        masses = dist.mass_iter(spec)
        head, acc = next(masses, None), 0
        for k in range(lo, hi + 1):
            if head is not None and head[0] == k:
                acc, head = acc + head[1], next(masses, None)
            yield acc

    crossings, prev, above, below, end = [], 0, None, None, lo - 1
    fp = fq = 0
    for k, fp, fq in zip(range(lo, hi + 1), cdfs(P), cdfs(Q)):
        if floats and (1.0 - float(fp)) + (1.0 - float(fq)) < 1e-15:
            break
        end = k
        sign = (fp > fq) - (fp < fq)
        if sign:
            if prev and sign != prev:
                crossings.append(k)
            prev = sign
            if sign > 0 and above is None:
                above = k
            if sign < 0 and below is None:
                below = k
            if until_witnesses and above is not None and below is not None:
                break
    tail_bound = max(0.0, 1.0 - float(fp)) + max(0.0, 1.0 - float(fq))
    return oracle_mod._Scan(tuple(crossings), above, below, end, tail_bound)


# --- strategies ---------------------------------------------------------------------

probs = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=60)
edge_probs = st.sampled_from([Fraction(0), Fraction(1)]) | probs
binomials = st.builds(Binomial, st.integers(1, 25), edge_probs)
hypergeometrics = st.tuples(st.integers(0, 18), st.integers(0, 18)).filter(lambda bw: sum(bw) > 0).flatmap(
    lambda bw: st.builds(Hypergeometric, st.just(bw[0]), st.just(bw[1]), st.integers(1, sum(bw)))
)
poisson_binomials = st.lists(edge_probs, min_size=1, max_size=7).map(
    lambda ps: PoissonBinomial(tuple(sorted(ps, reverse=True)))
)
finite_specs = binomials | hypergeometrics | poisson_binomials
negbinomials = st.builds(
    NegBinomial,
    st.integers(1, 6).map(Fraction),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(19, 20), max_denominator=40),
)
poissons = st.builds(Poisson, st.fractions(min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=8))
far_negbinomials = st.builds(  # means up to ~300, windows past the mode
    NegBinomial,
    st.integers(1, 8).map(Fraction),
    st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
)
float_probs = st.floats(min_value=0.02, max_value=0.98)
float_specs = (
    st.builds(Binomial, st.integers(1, 25), float_probs)
    | st.builds(NegBinomial, st.integers(1, 6).map(Fraction), st.floats(min_value=0.2, max_value=0.95))
    | st.builds(NegBinomial, st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]), probs)
    | st.builds(Poisson, st.floats(min_value=0.3, max_value=12.0))
    | st.lists(float_probs, min_size=1, max_size=6).map(lambda ps: PoissonBinomial(tuple(sorted(ps, reverse=True))))
)
all_specs = finite_specs | negbinomials | far_negbinomials | poissons | float_specs
unbounded_specs = negbinomials | far_negbinomials | poissons


# --- tables ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        Binomial(17, Fraction(3, 7)),
        Binomial(5, Fraction(0)),
        Binomial(5, Fraction(1)),
        Hypergeometric(12, 7, 9),
        Hypergeometric(0, 4, 2),
        NegBinomial(Fraction(4), Fraction(2, 9)),
        PoissonBinomial((Fraction(1), Fraction(2, 3), Fraction(1, 5), Fraction(0))),
    ],
)
def test_table_masses_match_reference(spec):
    table = dist.mass_table(spec)
    reference = ref_masses(spec, 30)
    assert [Fraction(table.num(k), table.den_at(k)) for k in range(31)] == reference
    assert [dist.pmf(spec, k) for k in range(31)] == reference


def test_unbounded_table_keeps_no_tail_scan():
    spec = NegBinomial(Fraction(3), Fraction(1, 7))
    table = dist.mass_table(spec)
    reference = ref_masses(spec, 400)
    assert dist.pmf(spec, 400) == reference[400]  # a jump is walked, not kept
    assert survival_witnesses(spec, Binomial(40, Fraction(1, 2)), 400) is not None
    assert dist.cdf(spec, 300) == sum(reference[:301])
    assert len(table.nums) < 10
    assert [dist.pmf(spec, k) for k in range(60)] == reference[:60]  # sequential reads are kept
    assert len(table.nums) == 60


def test_tables_past_the_bit_budget_keep_no_scan():
    P, Q = Binomial(1200, Fraction(1, 10**12 + 39)), Binomial(1200, Fraction(1, 2))
    table = dist.mass_table(P)  # 1201 numerators of ~48,000 bits each
    assert not table.keep
    assert dominance_exact(P, Q).relation == Relation.LE_ST
    assert len(table.nums) == 1
    p = P.p
    assert dist.pmf(P, 1199) == 1200 * p**1199 * (1 - p)
    assert dist.pmf(P, 2) == math.comb(1200, 2) * p**2 * (1 - p) ** 1198


def test_underflowing_float_recurrence_reads_the_exact_masses():
    spec = NegBinomial(Fraction(600), Fraction(1, 4))  # p^r = 4^-600 underflows to 0.0
    masses = [m for _, m in itertools.islice(dist.mass_iter(spec, prefer_exact=False), 151)]
    assert masses == [float(m) for m in ref_masses(spec, 150)]
    assert masses[-1] > 0


def test_float_specs_have_no_table():
    assert dist.mass_table(Poisson(Fraction(3))) is None
    assert dist.mass_table(Binomial(4, 0.5)) is None
    assert dist.mass_table(NegBinomial(Fraction(5, 2), Fraction(1, 2))) is None
    assert dist.mass_table(Binomial(4, Fraction(1, 2))) is not None


def test_table_cache_is_bounded():
    for n in range(1, 3 * dist._TABLE_SLOTS):
        dist.mass_table(Binomial(n, Fraction(1, 3)))
    assert len(dist._TABLES) <= dist._TABLE_SLOTS
    for i in range(4):
        dist.mass_table(Hypergeometric(1200 + i, 1527, 1500)).num(1500)  # grown in full
        dist.mass_table(Binomial(3, Fraction(1, 7 + i)))
    held = sum(t.bits() for t in dist._TABLES.values() if t is not None)
    assert held <= dist._TABLE_BITS


# --- the one scan against the Fraction reference -----------------------------------


big_ints = st.integers(0, 2**300) | st.integers(0, 2**70) | st.integers(0, 5)


@settings(max_examples=300, deadline=None)
@given(big_ints, big_ints, big_ints, big_ints, st.integers(0, 2**200))
def test_cross_sign_is_exact(a, b, c, d, scale):
    # random ratios, equal ratios, and ratios a unit apart, at every magnitude
    for args in [(a, b, c, d), (a * scale, b * scale, a, b), (a * d + 1, b * d, a, b), (a * d, b * d + 1, a, b)]:
        w, x, y, z = args
        assert cross_sign(*args) == (w * z > y * x) - (w * z < y * x)


@settings(max_examples=150, deadline=None)
@given(finite_specs, finite_specs)
def test_finite_scan_matches_reference(P, Q):
    js = dist.joint_support(P, Q)
    relation, crossings, witnesses = ref_scan(P, Q, js.k_min, js.k_max)
    report = dominance_exact(P, Q)
    assert (report.relation, list(report.crossings)) == (relation, crossings)
    assert survival_witnesses(P, Q) == witnesses
    assert report.witnesses == (witnesses if relation == Relation.INCOMPARABLE else None)


@settings(max_examples=100, deadline=None)
@given(negbinomials, negbinomials | finite_specs, st.integers(0, 70), st.booleans())
def test_negbinomial_scan_matches_reference(P, Q, hi, swap):
    if swap:
        P, Q = Q, P
    assert scan_result(P, Q, hi) == ref_scan(P, Q, 0, hi)
    assert survival_witnesses(P, Q, hi) == ref_scan(P, Q, 0, hi)[2]


@settings(max_examples=100, deadline=None)
@given(poissons, negbinomials | finite_specs | poissons, st.integers(0, 70), st.booleans())
def test_mixed_poisson_scan_matches_reference(P, Q, hi, swap):
    if swap:
        P, Q = Q, P
    assert scan_result(P, Q, hi, saturate=True) == ref_scan(P, Q, 0, hi, saturate=True)
    assert survival_witnesses(P, Q, hi) == ref_scan(P, Q, 0, hi)[2]


@settings(max_examples=100, deadline=None)
@given(negbinomials, negbinomials | finite_specs, st.integers(0, 40), st.booleans())
def test_exact_profile_values_match_reference(P, Q, k_cap, swap):
    if swap:
        P, Q = Q, P
    mp, mq = ref_masses(P, k_cap), ref_masses(Q, k_cap)
    expected = {k: math.inf if not mq[k] else mp[k] / mq[k] for k in range(k_cap + 1) if mp[k] or mq[k]}
    assert likelihood_profile(P, Q, k_cap).values == expected


@settings(max_examples=100, deadline=None)
@given(poissons, negbinomials | finite_specs, st.integers(0, 40), st.booleans())
def test_mixed_profile_values_match_reference(P, Q, k_cap, swap):
    # an exact mass meets a float Poisson mass as a float, as Fraction / float does
    if swap:
        P, Q = Q, P
    masses = {}
    for S in (P, Q):
        ref = ref_masses(S, k_cap)
        masses[S] = [float(dist.pmf(S, k)) if isinstance(S, Poisson) else float(ref[k]) for k in range(k_cap + 1)]
    expected = {
        k: math.inf if not q else p / q
        for k, (p, q) in enumerate(zip(masses[P], masses[Q]))
        if p or q
    }
    assert likelihood_profile(P, Q, k_cap).values == expected


# --- the float order of the scan ----------------------------------------------------


def _step_sign(p, q):
    """The sign _survival_scan gives a one-k window whose cdfs arrive as p and q."""
    spec = Binomial(1, Fraction(1, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_paired_cdf_scan", lambda cdf_p, cdf_q, ks: ((k, p, q) for k in ks))
        scan = oracle_mod._survival_scan(spec, spec, 0)
    return (scan.first_above is not None) - (scan.first_below is not None)


wide_ints = st.integers(1, 5) | st.integers(1, 2**64) | st.integers(1, 2**10000)


@settings(max_examples=200, deadline=None)
@given(wide_ints, st.integers(0, 2**32), wide_ints, st.integers(0, 2**32), st.integers(2, 2**3000))
def test_float_order_sign_matches_cross_sign(b, x, d, y, scale):
    # random ratios in [0, 1], equal ratios in different terms, and ratios
    # 1/(b*d) apart, each as _cdf_ratios yields it: (a / b, a, b)
    a, c = b * x >> 32, d * y >> 32
    pairs = [((a, b), (c, d)), ((a * scale, b * scale), (a, b)), ((a * d, b * d), (a * d + 1, b * d))]
    if a:
        pairs.append(((a * d - 1, b * d), (a, b)))
    for (a1, b1), (c1, d1) in pairs:
        if a1 > b1 or c1 > d1:
            continue
        for (u, v), (w, z) in [((a1, b1), (c1, d1)), ((c1, d1), (a1, b1))]:
            assert _step_sign((u / v, u, v), (w / z, w, z)) == cross_sign(u, v, w, z)
            # a float cdf arrives without its ratio, which is its own exact value
            g = w / z
            assert _step_sign((u / v, u, v), (g, None, None)) == cross_sign(u, v, *g.as_integer_ratio())


def test_scan_falls_back_to_exact_ratios_where_floats_tie(monkeypatch):
    # the two cdfs agree beyond 53 bits at most k, so the floats tie there
    P, Q = Binomial(40, Fraction(1, 3)), Binomial(40, Fraction(1, 3) + Fraction(1, 10**30))
    calls = []

    def counted(*args):
        calls.append(args)
        return cross_sign(*args)

    monkeypatch.setattr(oracle_mod, "cross_sign", counted)
    assert scan_result(P, Q, 40) == ref_scan(P, Q, 0, 40)
    assert scan_result(Q, P, 40) == ref_scan(Q, P, 0, 40)
    assert len(calls) > 20
    assert ref_scan(P, Q, 0, 40)[0] == Relation.LE_ST


# --- the block scan against the per-k pass -------------------------------------------


@settings(max_examples=250, deadline=None)
@given(all_specs, all_specs, st.integers(0, 400), st.booleans(), st.booleans())
@example(NegBinomial(Fraction(6), Fraction(1, 20)), NegBinomial(Fraction(5), Fraction(1, 25)), 400, False, False)
@example(NegBinomial(Fraction(6), Fraction(1, 20)), NegBinomial(Fraction(5), Fraction(1, 25)), 400, False, True)
@example(Poisson(Fraction(8)), NegBinomial(Fraction(3), Fraction(1, 2)), 400, True, False)
@example(Poisson(7.5), Hypergeometric(30, 31, 20), 400, True, True)
@example(Hypergeometric(30, 30, 20), Hypergeometric(30, 31, 20), 25, False, False)
def test_block_scan_matches_per_k_scan(P, Q, hi, saturate, until_witnesses):
    scan = oracle_mod._survival_scan(P, Q, hi, saturate=saturate, until_witnesses=until_witnesses)
    assert scan == per_k_scan(P, Q, hi, saturate, until_witnesses)


def _truncated_oracle_matches_per_k_scan(P, Q, k_cap, epsilon):
    # the oracle's reports, witnesses included, as they come out of the per-k pass
    report, witnesses = oracle_mod.dominance_truncated(P, Q, k_cap, epsilon), survival_witnesses(P, Q, k_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_survival_scan", per_k_scan)
        expected = oracle_mod.dominance_truncated(P, Q, k_cap, epsilon)
        assert survival_witnesses(P, Q, k_cap) == witnesses
    assert report == expected
    assert report.witnesses == expected.witnesses


epsilons = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-15])


@settings(max_examples=60, deadline=None)
@given(unbounded_specs, unbounded_specs | finite_specs | float_specs, st.integers(0, 300), epsilons, st.booleans())
def test_truncated_oracle_matches_per_k_scan(P, Q, k_cap, epsilon, swap):
    if swap:
        P, Q = Q, P
    _truncated_oracle_matches_per_k_scan(P, Q, k_cap, epsilon)


@settings(max_examples=40, deadline=None)
@given(poissons | st.builds(Poisson, st.floats(min_value=0.3, max_value=12.0)), negbinomials | finite_specs | poissons, epsilons, st.booleans())
def test_default_window_oracle_matches_per_k_scan(P, Q, epsilon, swap):
    # the window comes from tail_cap, and the float cdf saturates inside it
    if swap:
        P, Q = Q, P
    _truncated_oracle_matches_per_k_scan(P, Q, None, epsilon)


def test_block_scan_reads_few_points_where_the_cdfs_part():
    # NB(6, 1/20) and NB(5, 1/25) cross once; past the crossing whole blocks settle
    P, Q = NegBinomial(Fraction(6), Fraction(1, 20)), NegBinomial(Fraction(5), Fraction(1, 25))
    hi = dist.tail_cap(P, Q)
    read = []
    paired = oracle_mod._paired_cdf_scan

    def counted(cdf_p, cdf_q, ks):
        for point in paired(cdf_p, cdf_q, ks):
            read.append(point[0])
            yield point

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_mod, "_paired_cdf_scan", counted)
        scan = oracle_mod._survival_scan(P, Q, hi)
    assert scan == per_k_scan(P, Q, hi)
    assert len(read) == len(set(read)) < hi // 4


@pytest.mark.parametrize(
    "r, p", [(1, Fraction(1, 2)), (1, Fraction(9, 10)), (3, Fraction(2, 9)), (6, Fraction(1, 30)), (7, Fraction(333, 10000)), (40, Fraction(17, 25))]
)
def test_negbinomial_closed_form_is_the_running_sum(r, p):
    table = dist.mass_table(NegBinomial(Fraction(r), p))
    expected, acc, den = {}, 0, table.den
    for k, num in zip(range(1201), table.numerators()):
        if k:
            acc, den = acc * table.step, den * table.step
        acc += num
        expected[k] = (acc, num, den)
    for k in (0, 1, 2, 5, 50, 333, 1200):
        assert table._closed(k) == expected[k]
        assert dist.cdf(NegBinomial(Fraction(r), p), k) == Fraction(expected[k][0], expected[k][2])
        assert table.num(k) == expected[k][1]
    read = table.cdf_reader()
    for k in (1200, 3, 4, 700, 20, 21, 0, 1199, 40, 39, 60):  # closed forms, and walks from a read below
        acc, _, den = expected[k]
        assert read(k) == (acc / den, acc, den)


def test_finite_tables_sum_to_their_denominator():
    # the reader's F = den/den from k_max on rests on this
    specs = [Binomial(17, Fraction(3, 7)), Binomial(5, Fraction(1)), Hypergeometric(12, 7, 9), Hypergeometric(0, 4, 2)]
    specs += [PoissonBinomial((Fraction(1), Fraction(2, 3), Fraction(0))), NegBinomial(Fraction(2), Fraction(1))]
    for spec in specs:
        table = dist.mass_table(spec)
        assert sum(table.numerators()) == table.den
        assert table.cdf_reader()(10**6) == (1.0, table.den, table.den)
    assert dist.cdf(NegBinomial(Fraction(2), Fraction(1)), 10**6) == 1


# --- pinned outputs -----------------------------------------------------------------------


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c['P']['family']}-{c['Q']['family']}")
def test_pinned_verdicts(case, capsys):
    # verdicts of the parent commit; the k_cap case ends its window where
    # both float cdfs saturate, before the second strict sign shows
    P, Q = spec_from_json(case["P"]), spec_from_json(case["Q"])
    k_cap = case.get("k_cap")
    assert verdict_to_json(decide(P, Q, OraclePolicy(k_cap=k_cap))) == case["verdict"]
    cap_args = [] if k_cap is None else ["--k-cap", str(k_cap)]
    code = main(["decide", json.dumps(case["P"]), json.dumps(case["Q"]), *cap_args])
    assert code == 0
    assert capsys.readouterr().out == json.dumps(case["verdict"], sort_keys=True) + "\n"


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c['P']['family']}-{c['Q']['family']}")
def test_pinned_verdicts_serialise_as_plain_json(case):
    # indices are plain ints and no value is a Fraction or a NaN, so the
    # verdict's JSON is valid wherever a verdict is written
    P, Q = spec_from_json(case["P"]), spec_from_json(case["Q"])
    verdict = decide(P, Q, OraclePolicy(k_cap=case.get("k_cap")))
    cert = verdict.certificate
    indices = list(getattr(cert, "crossings", ()))
    if verdict.witnesses is not None:
        indices += [verdict.witnesses.k_minus, verdict.witnesses.k_plus]
    if getattr(cert, "turning_index", None) is not None:
        indices.append(cert.turning_index)
    assert all(type(k) is int for k in indices), indices
    assert json.loads(json.dumps(verdict_to_json(verdict), allow_nan=False)) == case["verdict"]


def _report_json(report):
    mode = report.mode
    if isinstance(mode, oracle_mod.Exact):
        mode_json = {"kind": "exact"}
    else:
        mode_json = {"kind": "truncated", "k_cap": mode.k_cap, "tail_bound": repr(mode.tail_bound), "certified": mode.certified}
    witnesses = None if report.witnesses is None else list(report.witnesses)
    return {"relation": report.relation.value, "crossings": list(report.crossings), "mode": mode_json, "witnesses": witnesses}


@pytest.mark.parametrize("case", PINNED_SCANS, ids=lambda c: f"{c['P']['family']}-{c['Q']['family']}")
def test_pinned_scans(case):
    P, Q = spec_from_json(case["P"]), spec_from_json(case["Q"])
    k_cap, options = case["k_cap"], {} if case["epsilon"] is None else {"epsilon": case["epsilon"]}
    assert _report_json(oracle_mod.dominance(P, Q, OraclePolicy(k_cap=k_cap, **options))) == case["dominance"]
    assert _report_json(oracle_mod.dominance_truncated(P, Q, k_cap, **options)) == case["dominance_truncated"]
    witnesses = survival_witnesses(P, Q, k_cap)
    assert (None if witnesses is None else list(witnesses)) == case["survival_witnesses"]
    assert oracle_mod.crossing_points(P, Q, k_cap) == case["crossing_points"]


# --- regressions -----------------------------------------------------------------------------


def _product_float_pmf(r, p, k):
    """NegBinomial.float_pmf for an exact r, as a fresh product of k Fractions."""
    coef = Fraction(1)
    for j in range(1, k + 1):
        coef *= Fraction(r + j - 1, j)
    return float(coef) * float(p) ** float(r) * float(1 - p) ** k


def test_negbinomial_float_masses_carry_the_coefficient():
    for spec in (NegBinomial(Fraction(3, 2), Fraction(1, 3)), NegBinomial(Fraction(3, 2), 0.4), NegBinomial(Fraction(2), 0.7)):
        expected = [_product_float_pmf(spec.r, spec.p, k) for k in range(301)]
        assert list(itertools.islice(spec.float_pmfs(0), 301)) == expected
        assert list(itertools.islice(spec.float_pmfs(117), 20)) == expected[117:137]
        assert [spec.float_pmf(k) for k in (0, 1, 150, 300)] == [expected[k] for k in (0, 1, 150, 300)]


def test_poisson_against_a_float_negbinomial_decides():
    # the profile scan's ~10^4-point window took O(K^2) Fraction products
    # when each float mass rebuilt C(r+k-1, k) from scratch
    verdict = decide(Poisson(0.01), NegBinomial(Fraction(2), 0.999999))
    assert verdict.relation == Relation.GE_ST
    assert verdict.certificate.kind == "truncated" and verdict.certificate.certified


def test_spec_hash_is_computed_once(monkeypatch):
    p_vec = tuple(Fraction(90 - i, 97) for i in range(60))
    spec, twin = PoissonBinomial(p_vec), PoissonBinomial(p_vec)
    assert hash(spec) == hash(twin) == hash((p_vec,))
    assert spec == twin and hash(Binomial(4, Fraction(1, 3))) == hash((4, Fraction(1, 3)))
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: hashed.append(self) or fraction_hash(self))
    dist.mass_table(spec)
    dist.mass_table(spec)
    assert hashed == []


def test_truncated_oracle_computes_tail_cap_once(monkeypatch):
    calls = []
    tail_cap = dist.tail_cap

    def counted(*args, **kwargs):
        calls.append(args)
        return tail_cap(*args, **kwargs)

    monkeypatch.setattr(dist, "tail_cap", counted)
    monkeypatch.setattr(oracle_mod, "tail_cap", counted)
    P, Q = NegBinomial(Fraction(1), Fraction(1, 2)), NegBinomial(Fraction(2), Fraction(1, 2))
    for A, B in ((P, Q), (Q, P)):  # certified through the closed-form profile, each way
        calls.clear()
        report = oracle_mod.dominance_truncated(A, B)
        assert report.relation in (Relation.LE_ST, Relation.GE_ST) and report.mode.certified
        assert len(calls) == 1


# --- regressions -----------------------------------------------------------------------------


def test_underflowing_exact_mass_in_a_mixed_ratio(capsys):
    # (2/3)^3000 underflows as a float, so a float Poisson mass divided by
    # it used to raise ZeroDivisionError in likelihood_profile
    P, Q = Binomial(3000, Fraction(1, 3)), Poisson(Fraction(999))
    verdict = decide(P, Q)
    assert verdict.relation == Relation.INCOMPARABLE
    assert decide(Q, P).relation == Relation.INCOMPARABLE
    assert tail_conditions(Q, P).left_value == 0.0
    assert likelihood_profile(Q, P).values[0] == 0.0
    spec_p = '{"family":"binomial","n":3000,"p":"1/3"}'
    assert main(["decide", spec_p, '{"family":"poisson","lambda":"999"}']) == 0
    assert json.loads(capsys.readouterr().out) == verdict_to_json(verdict)


# --- invariants raise, also under python -O -----------------------------------------------


def _closed_form_failing_for(pair):
    def closed_form(P, Q):
        return ClosedFormOutcome("forced", False, ()) if (P, Q) == pair else None

    return closed_form


def test_decide_raises_when_oracle_confirms_a_ruled_out_le(monkeypatch):
    P, Q = Binomial(2, Fraction(1, 2)), Binomial(3, Fraction(1, 2))
    monkeypatch.setattr(ordering_mod, "decide_closed_form", _closed_form_failing_for((P, Q)))
    with pytest.raises(InconsistentStages):
        decide(P, Q)


def test_decide_raises_when_oracle_confirms_a_ruled_out_ge(monkeypatch):
    P, Q = Binomial(3, Fraction(1, 2)), Binomial(2, Fraction(1, 2))
    monkeypatch.setattr(ordering_mod, "decide_closed_form", _closed_form_failing_for((Q, P)))
    with pytest.raises(InconsistentStages):
        decide(P, Q)


def test_lr_order_raises_when_closed_form_disagrees(monkeypatch):
    P, Q = Binomial(2, Fraction(1, 2)), Binomial(3, Fraction(1, 2))
    assert is_lr_ordered(P, Q)
    monkeypatch.setattr(lik_mod, "_binomial_lr_closed_form", lambda P, Q: False)
    with pytest.raises(InconsistentStages):
        is_lr_ordered(P, Q)
