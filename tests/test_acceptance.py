"""Acceptance criteria, one test per criterion.

Each test runs the matching verification suite (the same code behind
``stochord verify``) and asserts every sub-check, printing one line per
check (visible with ``pytest -s``).

Three sub-checks of criteria 1-3 assert the exact values, not the stated
figures, which exact arithmetic contradicts (see README, "Corrected
acceptance figures"):

- criterion 1: the stated cdf inequality direction is reversed; exactly,
  F_P > F_Q on 0..44, F_P < F_Q on 45..399 and both are 1 at 400;
- criterion 2: the mass difference at {0} is -2.5938779665e-6, which the
  stated -2.5e-6 truncates;
- criterion 3: lambda(17) is 1.3939191, which the stated 1.393 truncates.

``test_corrected_figures_match_scipy`` derives these values from
``math.comb`` alone and cross-checks them against ``scipy.stats``.
"""

from fractions import Fraction
from math import comb

import pytest

from stochord import suites


def _report(results):
    failures = []
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        line = f"[{status}] {check.name}"
        if check.detail:
            line += f": {check.detail}"
        print(line)
        if not check.passed:
            failures.append(check)
    assert not failures, "; ".join(f"{c.name} ({c.detail})" for c in failures)


@pytest.fixture(scope="module")
def counterexample_results():
    return suites.counterexamples_suite()


def _slice(results, prefix):
    return [c for c in results if c.name.startswith(prefix)]


def test_criterion_01_counterexample_crossover(counterexample_results):
    _report(_slice(counterexample_results, "criterion-1"))


def test_criterion_02_likelihood_values(counterexample_results):
    _report(_slice(counterexample_results, "criterion-2"))


def test_criterion_03_second_profile(counterexample_results):
    _report(_slice(counterexample_results, "criterion-3"))


def _hyp_pmf(B, W, n, k):
    return Fraction(comb(B, k) * comb(W, n - k), comb(B + W, n))


def _bin_pmf(n, p, k):
    return comb(n, k) * p**k * (1 - p) ** (n - k)


def test_corrected_figures_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    rel = 1e-12

    # criterion 1: hyp(400,509,500) vs hyp(310,710,700); scipy's hypergeom
    # takes (total, black, draws)
    big, wide = stats.hypergeom(909, 400, 500), stats.hypergeom(1020, 310, 700)
    fa = fb = Fraction(0)
    for k in range(46):
        fa += _hyp_pmf(400, 509, 500, k)
        fb += _hyp_pmf(310, 710, 700, k)
        assert big.cdf(k) == pytest.approx(float(fa), rel=rel)
        assert wide.cdf(k) == pytest.approx(float(fb), rel=rel)
        assert (fa > fb) == (k <= 44)
        assert (big.cdf(k) > wide.cdf(k)) == (k <= 44)

    # criterion 2: hyp(21,23,22)({0}) - bin(18,0.5106)({0})
    d0 = _hyp_pmf(21, 23, 22, 0) - _bin_pmf(18, Fraction(5106, 10000), 0)
    d0_scipy = stats.hypergeom(44, 21, 22).pmf(0) - stats.binom(18, 0.5106).pmf(0)
    assert d0_scipy == pytest.approx(float(d0), rel=rel)
    assert abs(float(d0) - suites.MASS_DIFF_0) <= suites.MASS_DIFF_0_TOL
    assert abs(d0_scipy - suites.MASS_DIFF_0) <= suites.MASS_DIFF_0_TOL

    # criterion 3: hyp(21,23,22)({17}) / bin(18,1/2)({17})
    lam = _hyp_pmf(21, 23, 22, 17) / _bin_pmf(18, Fraction(1, 2), 17)
    lam_scipy = stats.hypergeom(44, 21, 22).pmf(17) / stats.binom(18, 0.5).pmf(17)
    assert lam_scipy == pytest.approx(float(lam), rel=rel)
    assert abs(float(lam) - suites.LAMBDA_HALF_17) <= suites.LAMBDA_HALF_17_TOL
    assert abs(lam_scipy - suites.LAMBDA_HALF_17) <= suites.LAMBDA_HALF_17_TOL


GRID_PAIRS_CHECKED = {
    "criterion-4 binomial pairs": 5184,
    "criterion-4 hypergeometric pairs": 997480,
    "criterion-4 hypergeometric-vs-binomial pairs": 87120,
    "criterion-4 binomial-vs-hypergeometric pairs": 7632,
    "criterion-4 negbinomial pairs": 2025,
    "criterion-4 binomial-vs-poisson pairs": 1080,
    "criterion-4 poisson-vs-negbinomial pairs": 675,
}


def test_criterion_04_closed_form_grid_equivalence():
    results = suites.closed_form_grid_suite()
    _report(results)
    assert {c.name: c.detail for c in results} == {
        name: f"{count} applicable pairs agree with the oracle" for name, count in GRID_PAIRS_CHECKED.items()
    }


def test_criterion_05_coupling_domination():
    _report(suites.couplings_suite(100_000))


def test_criterion_06_box_pair_joint_exactness():
    _report(suites.box_joint_suite())


def test_criterion_07_occupancy_chain():
    results = suites.occupancy_suite()
    _report(results)
    assert [c.detail for c in results] == [
        "exact survival domination for all m < n <= 8, t <= 30",
        "max abs deviation = 2.78e-14",
    ]


def test_criterion_08_derivative_identities():
    _report(suites.derivatives_suite())


def test_criterion_09_jump_measure_layer():
    results = suites.levy_suite()
    _report(results)
    assert [c.detail for c in results] == [
        "max abs deviation = 0",
        "max abs deviation = 3.55e-15",
        "2025 pairs agree",
    ]


def test_criterion_10_implication_chain():
    _report(suites.implication_chain_suite())
