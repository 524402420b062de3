import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochord import (
    Binomial,
    Hypergeometric,
    InvalidSpec,
    LengthMismatch,
    NegBinomial,
    Poisson,
    PoissonBinomial,
    Relation,
    bc_sufficient,
    binomial_bc_criterion,
    cdf,
    decide,
    decide_closed_form,
    dominance_exact,
    mean,
    pmf,
    support,
    survival,
    verdict_to_json,
)
from stochord import likelihood as lik_mod
from stochord import ordering as ordering_mod
from stochord.ordering import (
    BernoulliConvolutionCertificate,
    ClosedFormCertificate,
    OracleCertificate,
)


half = Fraction(1, 2)


def exact_st_oracle(P, Q):
    """Brute-force stochastic-order check on finite supports."""
    hi = max(support(P).k_max, support(Q).k_max)
    le = ge = True
    for k in range(0, hi + 1):
        fp, fq = cdf(P, k), cdf(Q, k)
        if fp < fq:
            le = False
        if fp > fq:
            ge = False
    return le, ge


class TestClosedForm:
    def test_binomial_example(self):
        out = decide_closed_form(Binomial(2, half), Binomial(3, Fraction(2, 5)))
        assert out.holds  # 1/4 >= 27/125 and 2 <= 3
        le, _ = exact_st_oracle(Binomial(2, half), Binomial(3, Fraction(2, 5)))
        assert le

    def test_negbinomial_same_p(self):
        out = decide_closed_form(NegBinomial(Fraction(1), half), NegBinomial(Fraction(2), half))
        assert out.holds
        out = decide_closed_form(NegBinomial(Fraction(2), half), NegBinomial(Fraction(1), half))
        assert not out.holds

    def test_negbinomial_same_r(self):
        out = decide_closed_form(NegBinomial(Fraction(1), half), NegBinomial(Fraction(1), Fraction(1, 4)))
        assert out.holds
        out = decide_closed_form(NegBinomial(Fraction(1), Fraction(1, 4)), NegBinomial(Fraction(1), half))
        assert not out.holds

    def test_binomial_poisson_void_condition(self):
        P, Q = Binomial(2, Fraction(3, 10)), Poisson(Fraction(1))
        out = decide_closed_form(P, Q)
        assert out.holds == ((0.7) ** 2 >= math.exp(-1))
        assert out.holds

    def test_poisson_negbinomial(self):
        out = decide_closed_form(Poisson(Fraction(1)), NegBinomial(Fraction(2), half))
        # e^-1 = 0.368 >= 0.25
        assert out.holds

    def test_hypergeometric_not_applicable_falls_through(self):
        assert decide_closed_form(Hypergeometric(100, 100, 18), Hypergeometric(21, 23, 22)) is None

    def test_binomial_vs_hypergeometric_needs_equal_sample_size(self):
        assert decide_closed_form(Binomial(18, half), Hypergeometric(21, 23, 22)) is None
        out = decide_closed_form(Binomial(4, half), Hypergeometric(6, 3, 4))
        assert out is not None

    def test_degenerate_binomials(self):
        assert decide_closed_form(Binomial(3, Fraction(0)), Binomial(1, Fraction(1, 9))).holds
        assert decide_closed_form(Binomial(3, half), Binomial(3, Fraction(1))).holds
        assert not decide_closed_form(Binomial(4, half), Binomial(3, Fraction(1))).holds
        assert not decide_closed_form(Binomial(3, Fraction(1)), Binomial(3, half)).holds

    def test_primed_coefficient_forms_match_mass_comparisons(self):
        # equal sample size: the binomial-coefficient reduction of the
        # hypergeometric conditions must match the mass comparisons exactly
        def comb0(n, k):
            return math.comb(n, k) if 0 <= k <= n else 0

        hyps = [
            Hypergeometric(B, W, n)
            for B in range(0, 8)
            for W in range(0, 8)
            for n in range(1, B + W + 1)
        ]
        checked = 0
        for P in hyps:
            for Q in hyps:
                if P.n != Q.n:
                    continue
                n = P.n
                k_lo = min(max(0, n - P.W), max(0, n - Q.W))
                k_hi = max(min(n, P.B), min(n, Q.B))
                for k, mass_cmp in (
                    (k_lo, pmf(P, k_lo) >= pmf(Q, k_lo)),
                    (k_hi, pmf(P, k_hi) <= pmf(Q, k_hi)),
                ):
                    lhs = comb0(P.B + P.W - n, P.B - k) * comb0(Q.B + Q.W, Q.B)
                    rhs = comb0(Q.B + Q.W - n, Q.B - k) * comb0(P.B + P.W, P.B)
                    coef_cmp = (lhs >= rhs) if k == k_lo else (lhs <= rhs)
                    assert coef_cmp == mass_cmp, (P, Q, k)
                    checked += 1
        assert checked > 1000


class TestDecide:
    def test_reflexive(self):
        for spec in (Binomial(3, half), Poisson(Fraction(2)), Hypergeometric(4, 4, 3)):
            assert decide(spec, spec).relation is Relation.EQUAL

    def test_equal_across_families(self):
        P = PoissonBinomial((Fraction(3, 10),) * 4)
        Q = Binomial(4, Fraction(3, 10))
        assert decide(P, Q).relation is Relation.EQUAL

    def test_counterexample_pair_incomparable_with_witnesses(self):
        P, Q = Hypergeometric(400, 509, 500), Hypergeometric(310, 710, 700)
        verdict = decide(P, Q)
        assert verdict.relation is Relation.INCOMPARABLE
        w = verdict.witnesses
        assert w is not None
        assert survival(P, w.k_minus) < survival(Q, w.k_minus)
        assert survival(P, w.k_plus) > survival(Q, w.k_plus)

    def test_oracle_exact_stage_when_closed_form_inapplicable(self):
        verdict = decide(Hypergeometric(100, 100, 18), Hypergeometric(21, 23, 22))
        assert verdict.relation is Relation.LE_ST
        assert isinstance(verdict.certificate, OracleCertificate)
        assert verdict.certificate.kind == "exact"

    def test_binomial_below_hypergeometric(self):
        verdict = decide(Binomial(18, half), Hypergeometric(21, 23, 22))
        assert verdict.relation is Relation.LE_ST

    def test_direction_flip_gives_ge(self):
        verdict = decide(Binomial(3, Fraction(2, 5)), Binomial(2, half))
        assert verdict.relation is Relation.GE_ST
        assert isinstance(verdict.certificate, ClosedFormCertificate)
        assert verdict.certificate.reversed

    def test_closed_form_both_directions_fail_is_incomparable(self):
        P, Q = Binomial(5, half), Binomial(6, Fraction(3, 10))
        verdict = decide(P, Q)
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.witnesses is not None

    def test_unbounded_pair_with_truncated_oracle(self):
        verdict = decide(Poisson(Fraction(1)), Poisson(Fraction(2)))
        assert verdict.relation is Relation.LE_ST

    def test_antisymmetry_and_expectation_on_grid(self):
        specs = [Binomial(n, Fraction(t, 10)) for n in (1, 2, 3) for t in (2, 5, 8)]
        specs += [Hypergeometric(B, W, 2) for B in (1, 3) for W in (1, 2)]
        specs += [PoissonBinomial((Fraction(7, 10), Fraction(2, 10)))]
        for P in specs:
            for Q in specs:
                v = decide(P, Q)
                v_rev = decide(Q, P)
                if v.relation is Relation.LE_ST:
                    assert v_rev.relation in (Relation.GE_ST, Relation.LE_ST)
                    if v_rev.relation is Relation.LE_ST:
                        assert decide(P, Q).relation is Relation.LE_ST and P != Q
                        assert dominance_exact(P, Q).relation is Relation.EQUAL
                    assert float(mean(P)) <= float(mean(Q)) + 1e-15
                if v.relation is Relation.EQUAL:
                    assert v_rev.relation is Relation.EQUAL

    def test_verdicts_never_conflict_with_exact_oracle(self):
        specs = [Binomial(n, Fraction(t, 10)) for n in (1, 2, 4) for t in (1, 5, 9)]
        specs += [Hypergeometric(B, W, n) for B in (2, 5) for W in (0, 3) for n in (1, 2)]
        for P in specs:
            for Q in specs:
                relation = decide(P, Q).relation
                le, ge = exact_st_oracle(P, Q)
                expected = {
                    (True, True): Relation.EQUAL,
                    (True, False): Relation.LE_ST,
                    (False, True): Relation.GE_ST,
                    (False, False): Relation.INCOMPARABLE,
                }[(le, ge)]
                assert relation is expected, (P, Q)


class TestBernoulliConvolution:
    def test_identical_vectors(self):
        out = bc_sufficient((half, half), (half, half))
        assert out.head_products_ok and out.tail_products_ok

    def test_padded_constant_vectors_match_binomial_condition(self):
        # suffix products on padded constant vectors reduce to
        # n1 <= n2 with (1-p1)^n1 >= (1-q1)^n2
        rng = random.Random(20100307)
        for _ in range(200):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            p1 = Fraction(rng.randint(1, 9), 10)
            q1 = Fraction(rng.randint(1, 9), 10)
            out = bc_sufficient((p1,) * n1, (q1,) * n2)
            expected = n1 <= n2 and (1 - p1) ** n1 >= (1 - q1) ** n2
            assert out.tail_products_ok == expected, (n1, p1, n2, q1)

    def test_sufficiency_confirmed_by_exact_oracle(self):
        rng = random.Random(424242)
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            p = tuple(sorted((Fraction(rng.randint(0, 10), 10) for _ in range(n)), reverse=True))
            q = tuple(sorted((Fraction(rng.randint(0, 10), 10) for _ in range(n)), reverse=True))
            out = bc_sufficient(p, q)
            if out.head_products_ok or out.tail_products_ok:
                hits += 1
                le, _ = exact_st_oracle(PoissonBinomial(p), PoissonBinomial(q))
                assert le, (p, q)
        assert hits > 30

    def test_single_mass_criterion_examples(self):
        # q = (9/10, 1/10): the void masses coincide at p = 7/10 exactly
        assert binomial_bc_criterion((Fraction(9, 10), Fraction(1, 10)), 2, Fraction(7, 10), "bc_le_binomial")
        assert binomial_bc_criterion((half, half), 2, half, "bc_le_binomial")
        assert binomial_bc_criterion((half, half), 2, half, "binomial_le_bc")

    def test_single_mass_criterion_is_equivalence(self):
        rng = random.Random(777)
        for _ in range(200):
            n = rng.randint(1, 5)
            q = tuple(sorted((Fraction(rng.randint(0, 10), 10) for _ in range(n)), reverse=True))
            p = Fraction(rng.randint(1, 9), 10)
            bc, binom = PoissonBinomial(q), Binomial(n, p)
            le, ge = exact_st_oracle(bc, binom)
            assert binomial_bc_criterion(q, n, p, "bc_le_binomial") == le, (q, n, p)
            assert binomial_bc_criterion(q, n, p, "binomial_le_bc") == ge, (q, n, p)

    def test_length_and_parameter_validation(self):
        with pytest.raises(LengthMismatch):
            binomial_bc_criterion((half, half, half), 2, half, "bc_le_binomial")
        with pytest.raises(InvalidSpec):
            binomial_bc_criterion((half,), 1, Fraction(1), "bc_le_binomial")
        with pytest.raises(ValueError):
            binomial_bc_criterion((half,), 1, half, "sideways")

    def test_decide_uses_bc_certificates(self):
        P = PoissonBinomial((Fraction(2, 10), Fraction(1, 10)))
        Q = PoissonBinomial((Fraction(6, 10), Fraction(5, 10)))
        verdict = decide(P, Q)
        assert verdict.relation is Relation.LE_ST
        assert isinstance(verdict.certificate, BernoulliConvolutionCertificate)

    def test_decide_bc_vs_binomial_incomparable(self):
        q = (Fraction(95, 100), Fraction(5, 100))
        verdict = decide(PoissonBinomial(q), Binomial(2, half))
        le, ge = exact_st_oracle(PoissonBinomial(q), Binomial(2, half))
        assert not le and not ge
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.witnesses is not None


class TestVerdictJson:
    def test_round_trip_fields(self):
        verdict = decide(Hypergeometric(400, 509, 500), Hypergeometric(310, 710, 700))
        payload = verdict_to_json(verdict)
        assert payload["relation"] == "incomparable"
        assert payload["certificate"]["kind"].startswith("oracle")
        assert set(payload["witnesses"]) == {"k_minus", "k_plus"}

    def test_closed_form_payload(self):
        payload = verdict_to_json(decide(Binomial(2, half), Binomial(3, Fraction(2, 5))))
        assert payload["relation"] == "le_st"
        assert payload["certificate"]["kind"] == "closed_form"
        assert payload["certificate"]["pair"] == "binomial_binomial"
        assert payload["witnesses"] is None


# --- Bernoulli-convolution criteria against the Fraction products ----------------


def fraction_bc_sufficient(p, q):
    """(prefix products of p <= those of q, suffix products of 1-q <= those of 1-p)."""
    n = max(len(p), len(q))
    p, q = p + (Fraction(0),) * (n - len(p)), q + (Fraction(0),) * (n - len(q))

    def prefix_le(a, b):
        prod_a = prod_b = Fraction(1)
        for x, y in zip(a, b):
            prod_a, prod_b = prod_a * x, prod_b * y
            if prod_a > prod_b:
                return False
        return True

    return prefix_le(p, q), prefix_le([1 - x for x in reversed(q)], [1 - x for x in reversed(p)])


def fraction_bc_binomial(q, n, p):
    """(BC_q <= b_{n,p} by the mass at 0, b_{n,p} <= BC_q by the mass at n)."""
    q = q + (Fraction(0),) * (n - len(q))
    return (1 - p) ** n <= math.prod(1 - x for x in q), p**n <= math.prod(q)


bc_probs = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=10**4
)
bc_vectors = st.lists(bc_probs, min_size=1, max_size=12).map(lambda ps: tuple(sorted(ps, reverse=True)))


@settings(max_examples=300, deadline=None)
@given(bc_vectors, bc_vectors)
def test_bc_products_match_fraction_products(p, q):
    out = bc_sufficient(p, q)
    assert (out.head_products_ok, out.tail_products_ok) == fraction_bc_sufficient(p, q)


@settings(max_examples=300, deadline=None)
@given(
    bc_vectors,
    st.integers(0, 4),
    st.fractions(min_value=Fraction(1, 10**4), max_value=1 - Fraction(1, 10**4), max_denominator=10**4),
)
def test_bc_extreme_masses_match_fraction_products(q, extra, p):
    n = len(q) + extra
    expected = fraction_bc_binomial(q, n, p)
    got = binomial_bc_criterion(q, n, p, "bc_le_binomial"), binomial_bc_criterion(q, n, p, "binomial_le_bc")
    assert got == expected
    # the mass at zero tied exactly: (1-p)^n is the product of n entries 1-p
    assert binomial_bc_criterion((p,) * n, n, p, "bc_le_binomial")
    assert binomial_bc_criterion((p,) * n, n, p, "binomial_le_bc")


# --- the HMLR stage ----------------------------------------------------------------


def test_decide_scans_the_profile_only_when_both_tail_conditions_hold(monkeypatch):
    calls = []
    hmlr = ordering_mod.hmlr_criterion

    def counted(A, B):
        calls.append((A, B))
        return hmlr(A, B)

    monkeypatch.setattr(ordering_mod, "hmlr_criterion", counted)
    # neither direction of this pair passes both tail conditions
    P, Q = NegBinomial(Fraction(3), Fraction(1, 3)), Poisson(Fraction(6))
    assert decide(P, Q).relation == Relation.INCOMPARABLE
    assert calls == []
    for A, B in [(P, Q), (Q, P)]:
        tails = lik_mod.tail_conditions(A, B)
        assert not (tails.left_holds and tails.right_holds)
    # with no closed form for P <= Q, both tail conditions hold and the scan decides
    P, Q = Binomial(5, Fraction(1, 5)), Hypergeometric(10, 10, 8)
    verdict = decide(P, Q)
    assert calls == [(P, Q)]
    assert verdict.relation == Relation.LE_ST
    assert verdict.certificate.turning_index is None and verdict.certificate.right_value == 0
