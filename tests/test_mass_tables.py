"""Integer mass tables and the one survival scan, against plain references.

The references in this file use only math.comb, fractions.Fraction and the
float Poisson recurrence: exact laws are summed as Fractions, Poisson laws
as floats, and cumulative values are compared directly, as the scan did
before the masses moved into integer tables.
"""

import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
