"""Named verification suites: each returns one CheckResult per criterion.

The suites are the machine-checkable acceptance surface; the CLI `verify`
command and tests/test_acceptance.py both run them. Grid suites pin their
parameter ranges here so reruns are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import couplings as cpl
from . import derivatives as der
from . import distributions as dist
from . import likelihood as lik
from . import ordering as ordn
from .distributions import Binomial, Hypergeometric, NegBinomial, Poisson, PoissonBinomial
from .oracle import Relation, dominance_exact, dominance_truncated


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def _within(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


# --- counterexample suite (criteria 1-3) -----------------------------------------


_HYP_BIG = Hypergeometric(400, 509, 500)
_HYP_WIDE = Hypergeometric(310, 710, 700)
_HYP_SMALL = Hypergeometric(21, 23, 22)
_BIN_DECIMAL = Binomial(18, Fraction(5106, 10000))
_BIN_HALF = Binomial(18, Fraction(1, 2))

# Exact values, each to half a unit in its last digit: hyp(21,23,22)({0}) -
# bin(18,0.5106)({0}), and hyp(21,23,22)({17}) / bin(18,1/2)({17}).
MASS_DIFF_0, MASS_DIFF_0_TOL = -2.5938779665e-6, 5e-17
LAMBDA_HALF_17, LAMBDA_HALF_17_TOL = 1.3939191, 5e-8


def _criterion_crossover() -> CheckResult:
    # Q lives on 0..310, so F_Q(k) = 1 > F_P(k) on 310 <= k <= 399: the stated
    # direction (F_P < F_Q up to 44, F_P > F_Q from 45) cannot hold.
    fa, fb = Fraction(0), Fraction(0)
    first_bad = None
    for k in range(0, 401):
        fa += dist.pmf(_HYP_BIG, k)
        fb += dist.pmf(_HYP_WIDE, k)
        if k <= 44:
            good = fa > fb
        elif k <= 399:
            good = fa < fb
        else:
            good = fa == fb == 1
        if not good and first_bad is None:
            first_bad = (k, "<" if fa < fb else (">" if fa > fb else "="))
    detail = (
        "F_P > F_Q on 0..44, F_P < F_Q on 45..399, F_P(400) = F_Q(400) = 1 "
        "(the stated direction was reversed)"
    )
    if first_bad is None:
        return _result("criterion-1 crossover direction", True, detail)
    k, op = first_bad
    return _result(
        "criterion-1 crossover direction",
        False,
        f"first failure at k={k}: cdf comparison is '{op}' there; expected {detail}",
    )


def _criterion_first_profile() -> list:
    bands = {0: (4.2e-6, 0.05e-6), 13: (2.05, 0.005), 17: (0.997, 0.0005), 18: (1.006, 0.0005)}
    lam = {k: dist.pmf(_HYP_SMALL, k) / dist.pmf(_BIN_DECIMAL, k) for k in bands}
    out = [
        _result(f"criterion-2 lambda({k})", _within(float(lam[k]), *band), f"lambda({k}) = {float(lam[k]):.6g}")
        for k, band in bands.items()
    ]
    d0 = float(dist.pmf(_HYP_SMALL, 0) - dist.pmf(_BIN_DECIMAL, 0))
    out.append(
        _result(
            "criterion-2 mass difference at {0}",
            _within(d0, MASS_DIFF_0, MASS_DIFF_0_TOL),
            f"difference = {d0:.11g} (the stated -2.5e-6 truncates the exact value)",
        )
    )
    d16 = float(dist.cdf(_HYP_SMALL, 16) - dist.cdf(_BIN_DECIMAL, 16))
    out.append(
        _result(
            "criterion-2 mass difference at {0..16}",
            _within(d16, 8.4e-8, 0.05e-8),
            f"difference = {d16:.6g}",
        )
    )
    return out


def _criterion_second_profile() -> list:
    values = [dist.pmf(_HYP_SMALL, k) / dist.pmf(_BIN_HALF, k) for k in range(0, 19)]
    increasing = all(values[i] < values[i + 1] for i in range(13))
    return [
        _result(
            "criterion-3 lambda(17)",
            _within(float(values[17]), LAMBDA_HALF_17, LAMBDA_HALF_17_TOL),
            f"lambda(17) = {float(values[17]):.8g} (the stated 1.393 truncates the exact value)",
        ),
        _result(
            "criterion-3 lambda(18)",
            _within(float(values[18]), 1.467, 0.0005),
            f"lambda(18) = {float(values[18]):.7g}",
        ),
        _result(
            "criterion-3 increasing through k=13",
            increasing,
            "strict exact increase on {0..13}",
        ),
    ]


def counterexamples_suite() -> list:
    return [_criterion_crossover()] + _criterion_first_profile() + _criterion_second_profile()


# --- closed-form grid suite (criterion 4) -----------------------------------------


def _binomial_grid():
    return [Binomial(n, Fraction(t, 10)) for n in range(1, 9) for t in range(1, 10)]


def _hypergeometric_grid(max_bw: int = 10):
    return [
        Hypergeometric(B, W, n)
        for B in range(0, max_bw + 1)
        for W in range(0, max_bw + 1)
        for n in range(1, B + W + 1)
    ]


def _negbinomial_grid():
    return [NegBinomial(Fraction(r), Fraction(t, 10)) for r in range(1, 6) for t in range(1, 10)]


def _poisson_grid():
    return [Poisson(Fraction(t, 5)) for t in range(1, 16)]  # 0.2 .. 3.0


def _cdf_view(spec):
    bounds = dist.support(spec)
    return bounds.k_min, bounds.k_max, dist._finite_cdf_table(spec)


def _exact_relation(view_a, view_b) -> Relation:
    amin, amax, ta = view_a
    bmin, bmax, tb = view_b
    saw_above = saw_below = False
    one = Fraction(1)
    for k in range(min(amin, bmin), max(amax, bmax) + 1):
        fa = 0 if k < amin else (ta[-1] if k >= amax else ta[k - amin])
        fb = 0 if k < bmin else (tb[-1] if k >= bmax else tb[k - bmin])
        if fa > fb:
            saw_above = True
            if saw_below:
                return Relation.INCOMPARABLE
        elif fa < fb:
            saw_below = True
            if saw_above:
                return Relation.INCOMPARABLE
    if saw_above:
        return Relation.LE_ST
    if saw_below:
        return Relation.GE_ST
    return Relation.EQUAL


def _grid_agreement(pairs, name, oracle_fn) -> CheckResult:
    checked = 0
    for P, Q, view_p, view_q in pairs:
        outcome = ordn.decide_closed_form(P, Q)
        if outcome is None:
            continue
        checked += 1
        relation = oracle_fn(P, Q, view_p, view_q)
        oracle_le = relation in (Relation.LE_ST, Relation.EQUAL)
        if outcome.holds != oracle_le:
            return _result(
                name,
                False,
                f"mismatch for {P} vs {Q}: closed form says {outcome.holds}, oracle {relation.value}",
            )
    return _result(name, True, f"{checked} applicable pairs agree with the oracle")


def closed_form_grid_suite() -> list:
    bins = [(s, _cdf_view(s)) for s in _binomial_grid()]
    hyps = [(s, _cdf_view(s)) for s in _hypergeometric_grid()]
    negbins, poissons = _negbinomial_grid(), _poisson_grid()

    def finite_oracle(P, Q, vp, vq):
        return _exact_relation(vp, vq)

    def truncated_oracle(P, Q, vp, vq):
        return dominance_truncated(P, Q, epsilon=1e-12).relation

    def finite(left, right):
        return ((P, Q, vp, vq) for P, vp in left for Q, vq in right)

    def unbounded(left, right):
        return ((P, Q, None, None) for P in left for Q in right)

    same_n = ((B, H, vb, vh) for B, vb in bins for H, vh in hyps if B.n == H.n)
    return [
        _grid_agreement(finite(bins, bins), "criterion-4 binomial pairs", finite_oracle),
        _grid_agreement(finite(hyps, hyps), "criterion-4 hypergeometric pairs", finite_oracle),
        _grid_agreement(
            finite(hyps, bins), "criterion-4 hypergeometric-vs-binomial pairs", finite_oracle
        ),
        _grid_agreement(same_n, "criterion-4 binomial-vs-hypergeometric pairs", finite_oracle),
        _grid_agreement(unbounded(negbins, negbins), "criterion-4 negbinomial pairs", truncated_oracle),
        _grid_agreement(
            unbounded([s for s, _ in bins], poissons),
            "criterion-4 binomial-vs-poisson pairs",
            truncated_oracle,
        ),
        _grid_agreement(
            unbounded(poissons, negbins), "criterion-4 poisson-vs-negbinomial pairs", truncated_oracle
        ),
    ]


# --- coupling suite (criterion 5) --------------------------------------------------


_COUPLING_SEED = 20260810


def _coupling_case(name, samples_fn, spec1, spec2, n_samples) -> list:
    try:
        samples = samples_fn(n_samples)
    except Exception as exc:  # a raised DominationError is a hard failure
        return [_result(name, False, f"sampler raised {type(exc).__name__}: {exc}")]
    report = cpl.run_harness(samples, spec1, spec2)
    return [
        _result(f"{name} domination", report.violations == 0, f"violations = {report.violations}"),
        _result(
            f"{name} marginals",
            report.p_value_x1 > 1e-3 and report.p_value_x2 > 1e-3,
            f"chi-square p-values: x1 = {report.p_value_x1:.4g}, x2 = {report.p_value_x2:.4g}",
        ),
    ]


def couplings_suite(n_samples: int = 100_000) -> list:
    # method, seed offset, sampler, its settings, and the two laws of a setting
    methods = [
        (
            "explicit",
            0,
            cpl.binomial_explicit_coupling,
            [(2, 0.5, 4, 1 - (0.5) ** 0.5), (3, 0.3, 5, 0.35), (2, 0.3, 6, 0.2)],
            lambda n1, p1, n2, p2: (Binomial(n1, p1), Binomial(n2, p2)),
        ),
        (
            "levy",
            10,
            cpl.levy_coupling,
            [
                (1, Fraction(3, 5), 1, Fraction(1, 2)),
                (2, Fraction(7, 10), 1, Fraction(2, 5)),
                (2, Fraction(4, 5), 1, Fraction(1, 2)),
            ],
            lambda r1, p1, r2, p2: (NegBinomial(Fraction(r1), p1), NegBinomial(Fraction(r2), p2)),
        ),
        (
            "poissonize",
            20,
            cpl.binom_poisson_coupling,
            [(3, 0.2, 1.0), (1, 0.5, 0.7), (5, 0.1, 0.6)],
            lambda n, p, lam: (Binomial(n, p), Poisson(lam)),
        ),
        (
            "quantile",
            30,
            cpl.quantile_coupling,
            [
                (_BIN_HALF, _HYP_SMALL),
                (Binomial(2, Fraction(1, 4)), Binomial(3, Fraction(2, 5))),
                (Hypergeometric(100, 100, 18), _HYP_SMALL),
            ],
            lambda P, Q: (P, Q),
        ),
    ]
    out = []
    for method, offset, sampler, settings, laws in methods:
        for idx, args in enumerate(settings):
            seed = _COUPLING_SEED + offset + idx
            out.extend(
                _coupling_case(
                    f"criterion-5 {method}[{idx}]",
                    lambda n: sampler(*args, seed=seed, count=n),
                    *laws(*args),
                    n_samples,
                )
            )
    return out


# --- box-pair joint table suite (criterion 6) --------------------------------------


def box_joint_suite() -> list:
    bad = None
    checked = 0
    for n2 in range(1, 7):
        for n1 in range(1, n2 + 1):
            for a1 in range(0, n1 + 1):
                for a2 in range(0, n2 + 1):
                    if a1 >= a2 and a2 == n2:
                        continue  # outside the table's precondition
                    joint = cpl.box_choice_joint(a1, a2, n1, n2)
                    matrix = joint.as_matrix()
                    checked += 1
                    total = sum(sum(row) for row in matrix)
                    rows_ok = all(sum(row) == Fraction(1, n1) for row in matrix)
                    cols = [
                        sum(matrix[i][j] for i in range(n1)) for j in range(n2)
                    ]
                    cols_ok = all(c == Fraction(1, n2) for c in cols)
                    nonneg = all(w >= 0 for row in matrix for w in row)
                    if not (total == 1 and rows_ok and cols_ok and nonneg):
                        bad = f"(a1={a1}, a2={a2}, n1={n1}, n2={n2})"
                        break
    return [
        _result(
            "criterion-6 box-pair joint exactness",
            bad is None,
            bad or f"{checked} tables have uniform marginals, mass 1, nonnegative entries",
        )
    ]


# --- occupancy suite (criterion 7) ---------------------------------------------------


def occupancy_suite() -> list:
    results = []
    push = {}
    for n in range(1, 9):
        push[(n, 0)] = cpl.occupancy_pushforward(n, 0)
        for t in range(1, 31):
            push[(n, t)] = cpl.occupancy_step(push[(n, t - 1)], n)
    bad = None
    for t in range(0, 31):
        for n in range(2, 9):
            for m in range(1, n):
                vm, vn = push[(m, t)], push[(n, t)]
                for l in range(0, n + 1):
                    sm = sum(vm[l:]) if l <= m else Fraction(0)
                    sn = sum(vn[l:])
                    if sm > sn:
                        bad = f"m={m}, n={n}, t={t}, level={l}"
                        break
    results.append(
        _result(
            "criterion-7 occupancy monotone in box count",
            bad is None,
            bad or "exact survival domination for all m < n <= 8, t <= 30",
        )
    )
    worst = 0.0
    for n in range(1, 9):
        for t10 in range(1, 10):
            p = t10 / 10
            mix = cpl.occupancy_mixture(n, p)
            target = [float(dist.pmf(Binomial(n, Fraction(t10, 10)), k)) for k in range(n + 1)]
            worst = max(worst, max(abs(a - b) for a, b in zip(mix, target)))
    results.append(
        _result(
            "criterion-7 poissonized mixture matches binomial",
            worst < 1e-10,
            f"max abs deviation = {worst:.3g}",
        )
    )
    return results


# --- derivative-identity suite (criterion 8) -----------------------------------------


def derivatives_suite() -> list:
    results = []
    worst = 0.0
    for n in range(1, 11):
        for t in range(1, 10):
            for k in range(0, n + 1):
                check = der.binom_cdf_derivative_check(n, t / 10, k)
                worst = max(worst, check.abs_error)
    results.append(
        _result(
            "criterion-8 binomial derivative identity",
            worst < 1e-6,
            f"max |analytic - finite difference| = {worst:.3g}",
        )
    )
    worst = 0.0
    for r in (0.5, 1, 2.5, 4):
        for t in range(1, 10):
            for k in range(1, 9):
                check = der.negbinom_cdf_derivative_check(r, t / 10, k)
                worst = max(worst, check.abs_error)
    results.append(
        _result(
            "criterion-8 negbinomial derivative identity",
            worst < 1e-6,
            f"max |analytic - finite difference| = {worst:.3g}",
        )
    )
    gap_fail = None
    sign_fail = None
    for n1, n2 in ((2, 3), (2, 4), (3, 5)):
        for k in range(1, n1):
            values = [der.binomial_cdf_gap(n1, n2, k, i / 1000) for i in range(1, 1000)]
            if min(values) < 0:
                gap_fail = f"(n1={n1}, n2={n2}, k={k}): min = {min(values):.3g}"
            if der.binomial_gap_sign_changes(n1, n2, k) > 1:
                sign_fail = f"(n1={n1}, n2={n2}, k={k})"
    results.append(
        _result("criterion-8 binomial gap nonnegative", gap_fail is None, gap_fail or "")
    )
    results.append(
        _result(
            "criterion-8 gap derivative sign changes <= 1", sign_fail is None, sign_fail or ""
        )
    )
    neg_fail = None
    for r1, r2 in ((2, 1), (3, 2), (4, 1)):
        for k in (1, 2, 3):
            values = [der.negbinomial_cdf_gap(r1, r2, k, i / 1000) for i in range(1, 1001)]
            if k == 1:
                # the coupled parameters equalize the mass at 0, so the
                # k=1 gap is identically zero (up to float rounding)
                ok = max(abs(v) for v in values) <= 1e-12
            else:
                ok = min(values[:-1]) > 0 and abs(values[-1]) <= 1e-12
            if not ok:
                neg_fail = f"(r1={r1}, r2={r2}, k={k})"
    results.append(
        _result(
            "criterion-8 negbinomial gap nonnegative, zero at the edges",
            neg_fail is None,
            neg_fail or "",
        )
    )
    return results


# --- jump-measure suite (criterion 9) -------------------------------------------------


def levy_suite() -> list:
    results = []
    worst_phi = 0.0
    for r1, p1, r2, p2 in ((1, 0.5, 2, 0.4), (2, 0.7, 1, 0.4), (3, 0.9, 5, 0.8)):
        summed = cpl.levy_tail_ratio(r1, p1, r2, p2, 1)
        closed = (r1 * math.log(p1)) / (r2 * math.log(p2))
        worst_phi = max(worst_phi, abs(summed - closed))
    results.append(
        _result(
            "criterion-9 tail ratio at 1 matches closed form",
            worst_phi < 1e-10,
            f"max abs deviation = {worst_phi:.3g}",
        )
    )
    worst_mass = 0.0
    for r in range(1, 6):
        for t in range(1, 10):
            chars = cpl.levy_characteristics(NegBinomial(Fraction(r), Fraction(t, 10)))
            worst_mass = max(worst_mass, abs(chars.total_mass - (-r * math.log(t / 10))))
    results.append(
        _result(
            "criterion-9 jump measure total mass",
            worst_mass < 1e-12,
            f"max abs deviation = {worst_mass:.3g}",
        )
    )
    negbins = _negbinomial_grid()
    mismatch = None
    for P in negbins:
        for Q in negbins:
            via_tails = cpl.levy_tails_dominated(P.r, P.p, Q.r, Q.p)
            closed = ordn.decide_closed_form(P, Q).holds
            if via_tails != closed:
                mismatch = f"{P} vs {Q}: tails {via_tails}, closed form {closed}"
                break
        if mismatch:
            break
    results.append(
        _result(
            "criterion-9 jump-tail verdicts match the closed form",
            mismatch is None,
            mismatch or f"{len(negbins) ** 2} pairs agree",
        )
    )
    return results


# --- implication-chain suite (criterion 10) --------------------------------------------


def _chain_grid():
    import random

    bins = _binomial_grid()
    hyps = _hypergeometric_grid(max_bw=6)
    rng = random.Random(987654321)
    pbins = []
    for _ in range(12):
        length = rng.randint(1, 5)
        vec = sorted((Fraction(rng.randint(0, 10), 10) for _ in range(length)), reverse=True)
        pbins.append(PoissonBinomial(tuple(vec)))
    pairs = []
    pairs.extend((P, Q) for P in bins for Q in bins)
    pairs.extend((P, Q) for P in hyps for Q in hyps)
    pairs.extend((P, Q) for P in bins for Q in hyps)
    pairs.extend((P, Q) for P in hyps for Q in bins)
    pairs.extend((P, Q) for P in pbins for Q in pbins)
    pairs.extend((P, Q) for P in pbins for Q in bins[:24])
    return pairs


def implication_chain_suite() -> list:
    lr_vs_two_point = None
    chain_break = None
    checked = 0
    for P, Q in _chain_grid():
        checked += 1
        lr = lik.is_lr_ordered(P, Q)
        two_point = lik.lr_two_point_check(P, Q)
        if lr != two_point:
            lr_vs_two_point = f"{P} vs {Q}: scan {lr}, two-point {two_point}"
            break
        member = lik.hmlr_criterion(P, Q).member
        if lr and not member:
            chain_break = f"{P} vs {Q}: likelihood-ratio ordered but criterion not satisfied"
            break
        if member:
            relation = dominance_exact(P, Q).relation
            if relation not in (Relation.LE_ST, Relation.EQUAL):
                chain_break = f"{P} vs {Q}: criterion member but oracle says {relation.value}"
                break
    results = [
        _result(
            "criterion-10 two-point check equals ratio scan",
            lr_vs_two_point is None,
            lr_vs_two_point or f"{checked} pairs",
        ),
        _result(
            "criterion-10 implication chain",
            chain_break is None,
            chain_break or f"{checked} pairs with zero violations",
        ),
    ]
    return results


SUITES = {
    "counterexamples": counterexamples_suite,
    "closed-form-grid": closed_form_grid_suite,
    "couplings": couplings_suite,
    "box-joint": box_joint_suite,
    "occupancy": occupancy_suite,
    "derivatives": derivatives_suite,
    "levy": levy_suite,
    "implication-chain": implication_chain_suite,
}


def available_suites() -> list:
    return sorted(SUITES) + ["acceptance"]


def run_suite(tag: str) -> list:
    if tag == "acceptance":
        return [check for suite in SUITES.values() for check in suite()]
    if tag not in SUITES:
        raise KeyError(tag)
    return SUITES[tag]()
