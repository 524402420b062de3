"""Likelihood-ratio profiles, half-monotone shape, and tail conditions.

The pointwise ratio lambda(k) = P({k})/Q({k}) on the joint support drives
a sufficiency test for stochastic ordering: if lambda is monotone on each
side of a single turning point (half-monotone) and lambda(k_min) >= 1 and
lambda(k_max) <= 1 (the tail conditions), then P is stochastically below Q.

For six family pairs the ratio of consecutive lambda values has a closed
form that is monotone in k, which certifies the shape independently of any
truncation cap; those pairs (and their reverses) never need a cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import distributions as dist
from .distributions import (
    Binomial,
    DistributionSpec,
    Hypergeometric,
    NegBinomial,
    Poisson,
    SupportBounds,
    float_pmf,
    joint_support,
    mass_table,
    pmf,
    support,
)
from .errors import InconsistentStages, InfiniteSupport, UnboundedProfile, UnsupportedPair
from .exact import INF, Scalar, cross_sign


class Shape(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    INCREASING_THEN_DECREASING = "increasing_then_decreasing"
    DECREASING_THEN_INCREASING = "decreasing_then_increasing"
    NOT_HALF_MONOTONE = "not_half_monotone"


HALF_MONOTONE_SHAPES = frozenset(
    {
        Shape.INCREASING,
        Shape.DECREASING,
        Shape.INCREASING_THEN_DECREASING,
        Shape.DECREASING_THEN_INCREASING,
    }
)


@dataclass(frozen=True)
class LikelihoodProfile:
    k_range: SupportBounds
    values: dict  # k -> Scalar or math.inf, on the joint support up to the cap
    shape: Shape
    turning_index: Optional[int]
    capped: bool


@dataclass(frozen=True)
class TailConditions:
    left_value: Scalar  # lambda at the joint support minimum (may be inf)
    right_value: Scalar  # lambda at the maximum, or its limit when unbounded
    extreme_tail_ratio: Optional[Scalar]  # limsup of survival ratios, when known
    left_holds: bool
    right_holds: bool


@dataclass(frozen=True)
class HmlrCertificate:
    shape: Shape
    turning_index: Optional[int]
    left_value: Scalar
    right_value: Scalar


@dataclass(frozen=True)
class HmlrDecision:
    member: bool
    certificate: HmlrCertificate


def point_ratio(P, Q, k) -> Scalar:
    pk, qk = pmf(P, k), pmf(Q, k)
    if qk == 0:
        return INF if pk > 0 else pk / 1  # typed zero never happens on the joint support
    try:
        return pk / qk
    except ZeroDivisionError:  # an exact qk > 0 whose float underflows
        return _exact_quotient(pk, qk)


def _exact_quotient(pk, qk) -> float:
    """pk / qk formed exactly, then rounded; inf beyond the float range."""
    try:
        return float(Fraction(pk) / qk)
    except OverflowError:
        return INF


# --- closed-form consecutive ratios -----------------------------------------


def _require_interior(p, name):
    if not 0 < p < 1:
        raise UnsupportedPair(f"{name} must lie strictly in (0,1) for the closed-form ratio")


def _ratio_binomial_binomial(P: Binomial, Q: Binomial, k: int) -> Scalar:
    _require_interior(P.p, "p1")
    _require_interior(Q.p, "p2")
    if not 0 <= k < min(P.n, Q.n):
        raise UnsupportedPair(f"k={k} outside the finite part of the joint support")
    return Fraction(P.n - k, Q.n - k) * (P.p * (1 - Q.p)) / ((1 - P.p) * Q.p)


def _ratio_negbinomial_negbinomial(P: NegBinomial, Q: NegBinomial, k: int) -> Scalar:
    _require_interior(P.p, "p1")
    _require_interior(Q.p, "p2")
    if k < 0:
        raise UnsupportedPair(f"k={k} outside the joint support")
    return (P.r + k) / (Q.r + k) * (1 - P.p) / (1 - Q.p)


def _ratio_hypergeometric_hypergeometric(P: Hypergeometric, Q: Hypergeometric, k: int) -> Scalar:
    num = (P.B - k) * (P.n - k) * (Q.W - Q.n + 1 + k)
    den = (Q.B - k) * (Q.n - k) * (P.W - P.n + 1 + k)
    if den == 0:
        raise UnsupportedPair(f"k={k} outside the finite part of the joint support")
    return Fraction(num, den)


def _ratio_hypergeometric_binomial(P: Hypergeometric, Q: Binomial, k: int) -> Scalar:
    _require_interior(Q.p, "p")
    num = (P.B - k) * (P.n - k)
    den = (P.W - P.n + 1 + k) * (Q.n - k)
    if den == 0:
        raise UnsupportedPair(f"k={k} outside the finite part of the joint support")
    return Fraction(num, den) * (1 - Q.p) / Q.p


def _ratio_binomial_poisson(P: Binomial, Q: Poisson, k: int) -> Scalar:
    _require_interior(P.p, "p")
    if not 0 <= k <= P.n:
        raise UnsupportedPair(f"k={k} outside the finite part of the joint support")
    return P.p * (P.n - k) / ((1 - P.p) * Q.lam)


def _ratio_poisson_negbinomial(P: Poisson, Q: NegBinomial, k: int) -> Scalar:
    _require_interior(Q.p, "p")
    if k < 0:
        raise UnsupportedPair(f"k={k} outside the joint support")
    return P.lam / ((1 - Q.p) * (Q.r + k))


def _ratio_poisson_poisson(P: Poisson, Q: Poisson, k: int) -> Scalar:
    return P.lam / Q.lam


_RATIO_FORMS = {
    (Binomial, Binomial): _ratio_binomial_binomial,
    (NegBinomial, NegBinomial): _ratio_negbinomial_negbinomial,
    (Hypergeometric, Hypergeometric): _ratio_hypergeometric_hypergeometric,
    (Hypergeometric, Binomial): _ratio_hypergeometric_binomial,
    (Binomial, Poisson): _ratio_binomial_poisson,
    (Poisson, NegBinomial): _ratio_poisson_negbinomial,
    (Poisson, Poisson): _ratio_poisson_poisson,
}


def has_closed_ratio(P: DistributionSpec, Q: DistributionSpec) -> bool:
    return (type(P), type(Q)) in _RATIO_FORMS or (type(Q), type(P)) in _RATIO_FORMS


def consecutive_ratio(P: DistributionSpec, Q: DistributionSpec, k: int) -> Scalar:
    """lambda(k+1)/lambda(k) by closed form; agrees with the pmf quotient."""
    form = _RATIO_FORMS.get((type(P), type(Q)))
    if form is not None:
        return form(P, Q, k)
    reverse = _RATIO_FORMS.get((type(Q), type(P)))
    if reverse is not None:
        value = reverse(Q, P, k)
        if value == 0:
            return INF  # the forward ratio jumps out of Q's support here
        return 1 / value
    raise UnsupportedPair(f"no closed-form consecutive ratio for {type(P).__name__}/{type(Q).__name__}")


# --- profile construction and shape classification ---------------------------


def _compare(a, b) -> int:
    """Sign of a - b where math.inf compares above every finite value."""
    if a == b:
        return 0
    return 1 if a > b else -1


def _lambda_scan(P, Q, lo, hi, values_hi=None, until_rise=False):
    """Points of lo..hi inside either support, and the sign of each move of
    lambda between neighbouring points (lambda = inf where Q's mass is 0).

    Two exact mass tables compare p_k q_j against p_j q_k in integers;
    otherwise the masses take part as floats, divided as pmf values would
    be. Also returns lambda itself on the points up to values_hi.
    """
    tp, tq = mass_table(P), mass_table(Q)
    ks, signs, values = [], [], {}
    prev = None
    if tp is not None and tq is not None:
        for k, p, q in zip(range(lo, hi + 1), tp.row(lo, hi), tq.row(lo, hi)):
            # lambda(k) = p * tq.den / (q * tp.den) once each table's growth
            # in its denominator is folded into the other side
            if not p and not q:
                continue
            if tq.step != 1:
                p *= tq.step ** (k - tq.k_min)
            if tp.step != 1:
                q *= tp.step ** (k - tp.k_min)
            if prev is not None:
                signs.append(cross_sign(p, q, *prev))
            prev = (p, q)
            if values_hi is not None and k <= values_hi:
                values[k] = INF if not q else Fraction(p * tq.den, q * tp.den)
            ks.append(k)
            if until_rise and signs and signs[-1] > 0:
                break
        return ks, signs, values
    masses = zip(range(lo, hi + 1), _float_masses(P, tp, lo, hi), _float_masses(Q, tq, lo, hi))
    for k, (p_zero, p), (q_zero, q) in masses:
        if p_zero and q_zero:
            continue
        if q_zero:
            value = INF
        elif q == 0:  # an exact mass of Q whose float underflows
            value = _exact_quotient(p, tq.fraction(k))
        else:
            value = p / q
        if prev is not None:
            signs.append(_compare(value, prev))
        prev = value
        if values_hi is not None and k <= values_hi:
            values[k] = value
        ks.append(k)
        if until_rise and signs and signs[-1] > 0:
            break
    return ks, signs, values


def _float_masses(spec, table, lo, hi):
    """(P({k}) == 0, P({k}) as it enters float arithmetic) for k = lo..hi.

    lo is at most the support minimum, as the joint minimum always is.
    """
    if table is None:
        for k in range(lo, hi + 1):
            mass = float_pmf(spec, k)
            yield mass == 0, mass
        return
    den = table.den
    for k, num in zip(range(lo, hi + 1), table.row(lo, hi)):
        yield not num, num / den if num else 0.0
        if table.step != 1 and k >= table.k_min:
            den *= table.step


def _classify(ks, signs):
    moves = [(s, i) for i, s in enumerate(signs) if s]  # (sign, left index); ties dropped
    if not moves:
        return Shape.INCREASING, None  # constant profiles count as monotone
    first = moves[0][0]
    flip_at = next((j for j, (s, _) in enumerate(moves) if s != first), None)
    if flip_at is None:
        return (Shape.INCREASING if first > 0 else Shape.DECREASING), None
    if any(s == first for s, _ in moves[flip_at:]):
        return Shape.NOT_HALF_MONOTONE, None
    turning = ks[moves[flip_at][1]]
    shape = Shape.INCREASING_THEN_DECREASING if first > 0 else Shape.DECREASING_THEN_INCREASING
    return shape, turning


def _phase_change_floor(P: DistributionSpec, Q: DistributionSpec, k_min: int) -> int:
    """A scan horizon past every phase change of a closed-ratio profile.

    Covers the end (+1) of any finite marginal support, and for pairs whose
    joint support is unbounded the k where the consecutive ratio crosses 1.
    """
    floor = k_min + 2
    both_infinite = True
    for S in (P, Q):
        b = support(S)
        if b.finite:
            floor = max(floor, b.k_max + 2)
            both_infinite = False
    if not both_infinite:
        return floor
    first, second = (P, Q) if (type(P), type(Q)) in _RATIO_FORMS else (Q, P)
    crossing = None
    if isinstance(first, NegBinomial) and isinstance(second, NegBinomial):
        c = (1 - float(first.p)) / (1 - float(second.p))
        if c != 1.0:
            crossing = (float(second.r) - c * float(first.r)) / (c - 1.0)
    elif isinstance(first, Poisson) and isinstance(second, NegBinomial):
        crossing = float(first.lam) / (1 - float(second.p)) - float(second.r)
    # Poisson/Poisson has a constant ratio: no crossing to cover.
    if crossing is not None and crossing > 0 and math.isfinite(crossing):
        floor = max(floor, math.ceil(crossing) + 3)
    return floor


def likelihood_profile(
    P: DistributionSpec,
    Q: DistributionSpec,
    k_cap: Optional[int] = None,
    *,
    with_values: bool = True,
) -> LikelihoodProfile:
    """lambda(k) on the joint support with a half-monotonicity classification.

    ``k_cap`` bounds the reported values. It is required when the joint
    support is unbounded unless the pair has a closed-form consecutive
    ratio, in which case the scan is extended past every analytically
    known phase change so the classification does not depend on the cap.
    With ``with_values=False`` only the shape is computed and ``values``
    is empty.
    """
    js = joint_support(P, Q)
    certified = has_closed_ratio(P, Q)
    if js.finite:
        values_hi = js.k_max if k_cap is None else min(js.k_max, k_cap)
        scan_hi = js.k_max if certified else values_hi
        capped = values_hi < js.k_max
    else:
        if k_cap is None:
            if not certified:
                raise UnboundedProfile(
                    "joint support is unbounded and the pair has no closed-form "
                    "consecutive ratio; pass k_cap"
                )
            values_hi = dist.tail_cap(P, Q)
        else:
            values_hi = k_cap
        scan_hi = max(values_hi, _phase_change_floor(P, Q, js.k_min)) if certified else values_hi
        capped = True

    ks, signs, values = _lambda_scan(P, Q, js.k_min, scan_hi, values_hi if with_values else None)
    shape, turning = _classify(ks, signs)
    return LikelihoodProfile(js, values, shape, turning, capped)


# --- tail conditions ----------------------------------------------------------


def _limit_ratio(P: DistributionSpec, Q: DistributionSpec):
    """(right tail value, extreme tail ratio) for an unbounded joint support."""
    bp, bq = support(P), support(Q)
    if bp.finite and not bq.finite:
        return 0.0, 0.0  # lambda vanishes beyond P's support
    if bq.finite and not bp.finite:
        return INF, INF
    if isinstance(P, NegBinomial) and isinstance(Q, NegBinomial):
        value = (1 - P.p) / (1 - Q.p)  # limit of lambda(k)**(1/k)
        if P.p > Q.p:
            rho = 0.0
        elif P.p < Q.p:
            rho = INF
        else:
            rho = 0.0 if P.r < Q.r else (INF if P.r > Q.r else 1)
        return value, rho
    if isinstance(P, Poisson) and isinstance(Q, Poisson):
        if P.lam < Q.lam:
            return 0.0, 0.0
        if P.lam > Q.lam:
            return INF, INF
        return 1, 1
    if isinstance(P, Poisson) and isinstance(Q, NegBinomial):
        return 0.0, 0.0  # factorial decay beats geometric
    if isinstance(P, NegBinomial) and isinstance(Q, Poisson):
        return INF, INF
    raise UnsupportedPair(
        f"no right-tail closed form for {type(P).__name__}/{type(Q).__name__}"
    )


def tail_conditions(P: DistributionSpec, Q: DistributionSpec) -> TailConditions:
    """lambda at both extremes of the joint support, with the two inequalities.

    The left value is always the exact point ratio at the support minimum.
    For finite joint supports the right value is the point ratio at the
    maximum (which is also the extreme tail ratio); otherwise it is the
    family-specific limit.
    """
    js = joint_support(P, Q)
    left = point_ratio(P, Q, js.k_min)
    if js.finite:
        right = point_ratio(P, Q, js.k_max)
        rho = right
    else:
        right, rho = _limit_ratio(P, Q)
    return TailConditions(left, right, rho, left >= 1, right <= 1)


def hmlr_criterion(
    P: DistributionSpec, Q: DistributionSpec, k_cap: Optional[int] = None
) -> HmlrDecision:
    """Half-monotone profile plus both tail conditions.

    Membership is sufficient for P to be stochastically below Q.
    """
    profile = likelihood_profile(P, Q, k_cap, with_values=False)
    tails = tail_conditions(P, Q)
    member = (
        profile.shape in HALF_MONOTONE_SHAPES and tails.left_holds and tails.right_holds
    )
    certificate = HmlrCertificate(
        profile.shape, profile.turning_index, tails.left_value, tails.right_value
    )
    return HmlrDecision(member, certificate)


# --- likelihood-ratio order ----------------------------------------------------


def _binomial_lr_closed_form(P: Binomial, Q: Binomial) -> bool:
    if P.p == 0:
        return True
    odds_p = INF if P.p == 1 else P.n * P.p / (1 - P.p)
    odds_q = INF if Q.p == 1 else Q.n * Q.p / (1 - Q.p)
    return P.n <= Q.n and odds_p <= odds_q


def is_lr_ordered(P: DistributionSpec, Q: DistributionSpec, k_cap: Optional[int] = None) -> bool:
    """True iff lambda is nonincreasing across the (scanned) joint support."""
    js = joint_support(P, Q)
    certified = has_closed_ratio(P, Q)
    if js.finite:
        scan_hi = js.k_max
    elif k_cap is not None:
        scan_hi = max(k_cap, _phase_change_floor(P, Q, js.k_min)) if certified else k_cap
    elif certified:
        scan_hi = _phase_change_floor(P, Q, js.k_min)
    else:
        raise UnboundedProfile("unbounded joint support needs k_cap for a scan")
    _, signs, _ = _lambda_scan(P, Q, js.k_min, scan_hi, until_rise=True)
    nonincreasing = all(s <= 0 for s in signs)
    if isinstance(P, Binomial) and isinstance(Q, Binomial):
        if _binomial_lr_closed_form(P, Q) != nonincreasing:
            raise InconsistentStages(
                f"closed-form and scanned likelihood-ratio order disagree for {P} vs {Q}"
            )
    return nonincreasing


def lr_two_point_check(P: DistributionSpec, Q: DistributionSpec) -> bool:
    """Conditional stochastic dominance on every two-point set.

    Equivalent to is_lr_ordered on finite supports; used as an independent
    test device. Cross-multiplied, the condition on B = {i, j} with i < j is
    P({j})Q({i}) <= P({i})Q({j}).
    """
    js = joint_support(P, Q)
    if not js.finite:
        raise InfiniteSupport("two-point enumeration needs a finite joint support")
    tp, tq = mass_table(P), mass_table(Q)
    if tp is not None and tq is not None:  # finite tables: one denominator each
        pairs = zip(tp.row(js.k_min, js.k_max), tq.row(js.k_min, js.k_max))
    else:
        pairs = ((pmf(P, k), pmf(Q, k)) for k in range(js.k_min, js.k_max + 1))
    masses = [(pk, qk) for pk, qk in pairs if pk != 0 or qk != 0]
    for i in range(len(masses)):
        p_i, q_i = masses[i]
        for j in range(i + 1, len(masses)):
            p_j, q_j = masses[j]
            if p_j * q_i > p_i * q_j:
                return False
    return True
