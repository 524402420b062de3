import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochord import (
    Binomial,
    Hypergeometric,
    InfiniteSupport,
    NegBinomial,
    Poisson,
    PoissonBinomial,
    Shape,
    UnboundedProfile,
    UnsupportedPair,
    consecutive_ratio,
    hmlr_criterion,
    is_lr_ordered,
    joint_support,
    likelihood_profile,
    lr_two_point_check,
    pmf,
    tail_conditions,
)
from stochord.likelihood import has_closed_ratio
half = Fraction(1, 2)
HYP_SMALL = Hypergeometric(21, 23, 22)
BIN_DECIMAL = Binomial(18, Fraction(5106, 10000))


def quotient_oracle(P, Q, k):
    """Independent ratio-of-ratios: (P(k+1)/Q(k+1)) / (P(k)/Q(k))."""
    return (pmf(P, k + 1) * pmf(Q, k)) / (pmf(Q, k + 1) * pmf(P, k))


class TestProfile:
    def test_counterexample_profile_values_and_shape(self):
        profile = likelihood_profile(HYP_SMALL, BIN_DECIMAL)
        assert profile.shape is Shape.NOT_HALF_MONOTONE
        assert math.isclose(float(profile.values[0]), 4.21415304e-6, rel_tol=1e-8)
        assert math.isclose(float(profile.values[13]), 2.049038572, rel_tol=1e-9)
        assert math.isclose(float(profile.values[17]), 0.9969190761, rel_tol=1e-9)
        assert math.isclose(float(profile.values[18]), 1.005818121, rel_tol=1e-9)

    def test_identical_specs_profile_is_flat_increasing(self):
        profile = likelihood_profile(BIN_DECIMAL, BIN_DECIMAL)
        assert profile.shape is Shape.INCREASING
        assert all(v == 1 for v in profile.values.values())

    def test_big_counterexample_three_phases(self):
        P, Q = Hypergeometric(400, 509, 500), Hypergeometric(310, 710, 700)
        profile = likelihood_profile(P, Q)
        assert profile.shape is Shape.NOT_HALF_MONOTONE
        values = profile.values
        assert all(values[k] < values[k + 1] for k in range(0, 2))
        assert all(values[k] > values[k + 1] for k in range(2, 150))
        assert all(values[k] < values[k + 1] for k in range(150, 310))
        # ratio exceeds one beyond the narrower support
        assert values[311] == math.inf

    def test_unimodal_binomial_pair(self):
        profile = likelihood_profile(Binomial(4, half), Binomial(6, Fraction(3, 10)))
        assert profile.shape is Shape.INCREASING_THEN_DECREASING
        peak = profile.turning_index
        assert profile.values[peak] == max(profile.values.values())

    def test_infinite_needs_cap_without_closed_ratio(self):
        with pytest.raises(UnboundedProfile):
            likelihood_profile(PoissonBinomial((half,)), Poisson(Fraction(1)), None)

    def test_cap_does_not_change_certified_classification(self):
        P, Q = NegBinomial(Fraction(2), Fraction(2, 5)), NegBinomial(Fraction(1), half)
        shapes = {likelihood_profile(P, Q, cap).shape for cap in (3, 10, 200, None)}
        assert len(shapes) == 1

    def test_values_respect_cap(self):
        profile = likelihood_profile(Poisson(Fraction(1)), Poisson(Fraction(2)), k_cap=7)
        assert max(profile.values) == 7
        assert profile.capped


class TestConsecutiveRatio:
    def test_binomial_direct_substitution(self):
        assert consecutive_ratio(Binomial(2, half), Binomial(3, half), 0) == Fraction(2, 3)

    def test_negbinomial_direct_substitution(self):
        value = consecutive_ratio(NegBinomial(Fraction(1), half), NegBinomial(Fraction(2), half), 0)
        assert value == half

    @pytest.mark.parametrize(
        "P,Q,ks",
        [
            (Binomial(4, Fraction(2, 7)), Binomial(6, Fraction(3, 5)), range(0, 4)),
            (NegBinomial(Fraction(2), Fraction(2, 5)), NegBinomial(Fraction(4), Fraction(3, 5)), range(0, 8)),
            (Hypergeometric(5, 4, 4), Hypergeometric(6, 3, 5), range(1, 4)),
            (Hypergeometric(6, 3, 5), Binomial(7, Fraction(2, 5)), range(2, 5)),
            (Binomial(5, Fraction(1, 3)), Poisson(Fraction(3, 2)), range(0, 5)),
            (Poisson(Fraction(2)), NegBinomial(Fraction(3), Fraction(1, 4)), range(0, 8)),
            (Poisson(Fraction(1)), Poisson(Fraction(3)), range(0, 6)),
        ],
    )
    def test_closed_form_matches_quotient_oracle(self, P, Q, ks):
        for k in ks:
            closed = consecutive_ratio(P, Q, k)
            oracle = quotient_oracle(P, Q, k)
            if isinstance(closed, Fraction) and isinstance(oracle, Fraction):
                assert closed == oracle
            else:
                assert math.isclose(float(closed), float(oracle), rel_tol=1e-12)

    def test_reversed_pair_is_reciprocal(self):
        P, Q = Hypergeometric(6, 3, 5), Binomial(7, Fraction(2, 5))
        assert consecutive_ratio(Q, P, 3) == 1 / consecutive_ratio(P, Q, 3)

    def test_binomial_ratio_strictly_decreasing(self):
        P, Q = Binomial(5, Fraction(3, 10)), Binomial(7, Fraction(1, 2))
        values = [consecutive_ratio(P, Q, k) for k in range(0, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negbinomial_ratio_nondecreasing_when_r1_below_r2(self):
        P, Q = NegBinomial(Fraction(1), Fraction(3, 10)), NegBinomial(Fraction(4), Fraction(1, 2))
        values = [consecutive_ratio(P, Q, k) for k in range(0, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPair):
            consecutive_ratio(PoissonBinomial((half,)), Binomial(2, half), 0)


class TestTailConditions:
    def test_binomial_left_closed_form(self):
        P, Q = Binomial(3, Fraction(1, 5)), Binomial(4, Fraction(2, 5))
        tc = tail_conditions(P, Q)
        assert tc.left_value == pmf(P, 0) / pmf(Q, 0)
        assert tc.left_holds == ((1 - P.p) ** 3 >= (1 - Q.p) ** 4)

    def test_negbinomial_left_closed_form(self):
        P, Q = NegBinomial(Fraction(2), half), NegBinomial(Fraction(3), Fraction(3, 5))
        tc = tail_conditions(P, Q)
        assert tc.left_holds == (P.p**2 >= Q.p**3)
        assert tc.right_value == (1 - P.p) / (1 - Q.p)

    def test_identical_pair(self):
        tc = tail_conditions(HYP_SMALL, HYP_SMALL)
        assert tc.left_value == 1 and tc.right_value == 1
        assert tc.left_holds and tc.right_holds

    def test_invariant_holds_iff_value_comparison(self):
        pairs = [
            (Binomial(2, half), Binomial(5, Fraction(1, 5))),
            (Hypergeometric(4, 4, 3), Binomial(5, Fraction(2, 5))),
            (Binomial(3, Fraction(3, 10)), Poisson(Fraction(1))),
            (Poisson(Fraction(2)), NegBinomial(Fraction(2), Fraction(1, 3))),
        ]
        for P, Q in pairs:
            tc = tail_conditions(P, Q)
            assert tc.left_holds == (tc.left_value >= 1)
            assert tc.right_holds == (tc.right_value <= 1)

    def test_finite_vs_infinite_right_value(self):
        tc = tail_conditions(Binomial(3, half), Poisson(Fraction(2)))
        assert tc.right_value == 0.0 and tc.right_holds
        tc = tail_conditions(Poisson(Fraction(2)), Binomial(3, half))
        assert tc.right_value == math.inf and not tc.right_holds
        assert tc.extreme_tail_ratio == math.inf


class TestHmlrCriterion:
    def test_not_half_monotone_hypergeometric_pair(self):
        decision = hmlr_criterion(Hypergeometric(100, 100, 18), HYP_SMALL)
        assert not decision.member
        assert decision.certificate.shape is Shape.NOT_HALF_MONOTONE

    def test_hyp_vs_decimal_binomial_not_member(self):
        # the profile shape is the primary obstruction; with the point
        # convention lambda(k_min) = 4.2e-6 < 1 the left tail fails as well
        decision = hmlr_criterion(HYP_SMALL, BIN_DECIMAL)
        assert not decision.member
        assert decision.certificate.shape is Shape.NOT_HALF_MONOTONE

    def test_identical_pair_is_member(self):
        assert hmlr_criterion(HYP_SMALL, HYP_SMALL).member

    def test_member_for_ordered_binomials(self):
        assert hmlr_criterion(Binomial(2, half), Binomial(3, Fraction(2, 5))).member


class TestLrOrder:
    def test_binomial_closed_form_counterexample(self):
        # odds: 1*1 = 1 > 2*(3/7) = 6/7
        assert not is_lr_ordered(Binomial(1, half), Binomial(2, Fraction(3, 10)))

    def test_poisson_pair(self):
        assert is_lr_ordered(Poisson(Fraction(1)), Poisson(Fraction(2)))
        assert not is_lr_ordered(Poisson(Fraction(2)), Poisson(Fraction(1)))

    def test_identical(self):
        assert is_lr_ordered(HYP_SMALL, HYP_SMALL)

    def test_equal_n_binomials(self):
        assert is_lr_ordered(Binomial(2, Fraction(1, 4)), Binomial(2, half))

    def test_two_point_requires_finite_support(self):
        with pytest.raises(InfiniteSupport):
            lr_two_point_check(Poisson(Fraction(1)), Poisson(Fraction(2)))

    def test_two_point_examples(self):
        assert lr_two_point_check(Binomial(2, Fraction(1, 4)), Binomial(2, half))
        assert not lr_two_point_check(Binomial(1, half), Binomial(2, Fraction(3, 10)))
        assert lr_two_point_check(HYP_SMALL, HYP_SMALL)

    def test_two_point_agrees_with_scan_on_grid(self):
        specs = [Binomial(n, Fraction(t, 10)) for n in (1, 2, 3, 4) for t in (2, 5, 8)]
        specs += [Hypergeometric(B, W, n) for B in (2, 4) for W in (1, 3) for n in (1, 2, 3)]
        for P in specs:
            for Q in specs:
                assert lr_two_point_check(P, Q) == is_lr_ordered(P, Q), (P, Q)

    def test_shape_never_not_half_monotone_for_certified_pairs(self):
        pairs = [
            (Binomial(3, Fraction(2, 10)), Binomial(6, Fraction(7, 10))),
            (NegBinomial(Fraction(3), Fraction(4, 10)), NegBinomial(Fraction(1), Fraction(6, 10))),
            (Hypergeometric(6, 3, 5), Binomial(7, Fraction(2, 5))),
            (Binomial(5, Fraction(1, 3)), Poisson(Fraction(3, 2))),
            (Poisson(Fraction(2)), NegBinomial(Fraction(3), Fraction(1, 4))),
        ]
        for P, Q in pairs:
            assert likelihood_profile(P, Q).shape is not Shape.NOT_HALF_MONOTONE

    def test_hypergeometric_shape_under_lemma_hypotheses(self):
        # size condition or index-overlap condition keeps profiles half-monotone
        hyps = [Hypergeometric(B, W, n) for B in range(0, 6) for W in range(0, 6) for n in range(1, B + W + 1)]
        for P in hyps:
            for Q in hyps:
                overlap = {P.n, P.B, Q.n - Q.W - 1} & {Q.n, Q.B, P.n - P.W - 1}
                size_ok = Q.B + Q.W >= P.B + P.W
                right = pmf(P, max(min(P.n, P.B), min(Q.n, Q.B))) <= pmf(
                    Q, max(min(P.n, P.B), min(Q.n, Q.B))
                )
                if overlap or (size_ok and right):
                    assert likelihood_profile(P, Q).shape is not Shape.NOT_HALF_MONOTONE, (P, Q)


# every family with boundary parameters; any pair with a finite joint
# support or a closed-form consecutive ratio reaches the HMLR stage
_probs = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=60)
_edge_probs = st.sampled_from([Fraction(0), Fraction(1)]) | _probs
_specs = st.one_of(
    st.builds(Binomial, st.integers(1, 20), _edge_probs),
    st.tuples(st.integers(0, 15), st.integers(0, 15))
    .filter(lambda bw: sum(bw) > 0)
    .flatmap(lambda bw: st.builds(Hypergeometric, st.just(bw[0]), st.just(bw[1]), st.integers(1, sum(bw)))),
    st.lists(_edge_probs, min_size=1, max_size=6).map(lambda ps: PoissonBinomial(tuple(sorted(ps, reverse=True)))),
    st.builds(
        NegBinomial,
        st.integers(1, 5).map(Fraction) | st.just(Fraction(5, 2)),
        st.sampled_from([Fraction(1)]) | st.fractions(min_value=Fraction(1, 4), max_value=Fraction(19, 20), max_denominator=40),
    ),
    st.builds(Poisson, st.fractions(min_value=Fraction(1, 4), max_value=Fraction(6), max_denominator=8)),
)


@settings(max_examples=300, deadline=None)
@given(_specs, _specs)
def test_hmlr_membership_needs_both_tail_conditions(P, Q):
    # decide checks the tail conditions first and scans only when both hold
    if not (joint_support(P, Q).finite or has_closed_ratio(P, Q)):
        return
    try:
        decision = hmlr_criterion(P, Q)
    except (UnboundedProfile, UnsupportedPair):
        return
    if decision.member:
        tails = tail_conditions(P, Q)
        assert tails.left_holds and tails.right_holds
