"""Ground-truth dominance checking via survival-function comparison.

P is stochastically below Q exactly when F_P(k) >= F_Q(k) for every k
(equivalently S_P <= S_Q pointwise). One scan compares the two cdfs by
their correctly rounded floats, falling back to the exact integer ratios
where the floats tie, and yields the relation, the crossings and both
witnesses together. On finite supports it is exact; on
unbounded supports it runs to a cap and the remaining tail is either
bounded by epsilon, or certified analytically when the pair's likelihood
ratio has a closed-form monotone tail phase.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from . import likelihood
from .distributions import DistributionSpec, joint_support, mass_iter, mass_table, tail_cap
from .errors import InfiniteSupport, UnboundedProfile, UnsupportedPair
from .exact import INF, cross_sign


class Relation(enum.Enum):
    LE_ST = "le_st"
    GE_ST = "ge_st"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class Truncated:
    k_cap: int
    tail_bound: float
    certified: bool = False


Mode = Union[Exact, Truncated]


@dataclass(frozen=True)
class DominanceReport:
    relation: Relation
    crossings: tuple  # first k of each new strict sign of F_P - F_Q
    mode: Mode
    # (k_minus, k_plus) as survival_witnesses gives them, for incomparable pairs
    witnesses: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OraclePolicy:
    k_cap: Optional[int] = None
    epsilon: float = 1e-12
    hard_cap: int = 10**6


def _cdf_ratios(spec, lo, hi):
    """(f, a, b) with F(k) = a/b exactly and f = F(k) correctly rounded, for
    k = lo..hi (lo at most the support minimum).

    An exact spec sums its integer mass table over the table's denominator;
    int / int true division rounds correctly, so f = a / b. A float spec
    sums its float masses in mass_iter order; that sum is its cdf, so a and
    b are None (f.as_integer_ratio() when needed) and float cdfs round as
    they always did.
    """
    table = mass_table(spec)
    if table is None:
        it = mass_iter(spec)
        head = next(it, None)
        acc = 0.0
        for k in range(lo, hi + 1):
            if head is not None and head[0] == k:
                acc += head[1]
                head = next(it, None)
            yield acc, None, None
        return
    k_min, den, step = table.k_min, table.den, table.step
    ratio = (0.0, 0, den)
    for _ in range(lo, min(k_min, hi + 1)):
        yield ratio
    acc, k = 0, k_min - 1
    for k, num in zip(range(k_min, hi + 1), table.numerators()):
        if step != 1 and k > k_min:
            acc, den = acc * step, den * step
        acc += num
        ratio = (acc / den, acc, den)
        yield ratio
    yield from itertools.repeat(ratio, hi - k)  # past a finite support


def _paired_cdf_scan(P, Q, hi):
    """Yield (k, F_P(k), F_Q(k)) for k from the joint minimum up to hi, as _cdf_ratios triples."""
    lo = joint_support(P, Q).k_min
    yield from zip(range(lo, hi + 1), _cdf_ratios(P, lo, hi), _cdf_ratios(Q, lo, hi))


@dataclass(frozen=True)
class _Scan:
    crossings: tuple  # first k of each new strict sign of F_P - F_Q
    first_above: Optional[int]  # first k with F_P(k) > F_Q(k)
    first_below: Optional[int]  # first k with F_P(k) < F_Q(k)
    end: int  # last k compared
    tail_bound: float  # (1 - F_P) + (1 - F_Q) at the last k read, in floats


def _survival_scan(P, Q, hi, *, saturate=False, until_witnesses=False) -> _Scan:
    """One pass of F_P - F_Q over the joint minimum..hi.

    Correct rounding is monotone, so two floats that differ order the exact
    cdfs the same way; only equal floats fall back to cross-multiplying the
    exact ratios. With saturate, the pass stops where a float cdf leaves
    both cdfs within 1e-15 of 1 (deeper differences are rounding noise).
    With until_witnesses, it stops once both strict signs have been seen.
    """
    floats = saturate and (mass_table(P) is None or mass_table(Q) is None)
    crossings = []
    prev = 0
    above = below = None
    end = joint_support(P, Q).k_min - 1
    fp = fq = 0.0
    for k, (fp, a, b), (fq, c, d) in _paired_cdf_scan(P, Q, hi):
        if floats and (1.0 - fp) + (1.0 - fq) < 1e-15:
            break
        end = k
        sign = (fp > fq) - (fp < fq)
        if not sign:
            if a is None:
                a, b = fp.as_integer_ratio()
            if c is None:
                c, d = fq.as_integer_ratio()
            sign = cross_sign(a, b, c, d)
        if sign:
            if prev and sign != prev:
                crossings.append(k)
            prev = sign
            if sign > 0 and above is None:
                above = k
            elif sign < 0 and below is None:
                below = k
            if until_witnesses and above is not None and below is not None:
                break
    tail_bound = max(0.0, 1.0 - fp) + max(0.0, 1.0 - fq)
    return _Scan(tuple(crossings), above, below, end, tail_bound)


def _relation_from_signs(saw_above: bool, saw_below: bool) -> Relation:
    if saw_above and saw_below:
        return Relation.INCOMPARABLE
    if saw_above:
        return Relation.LE_ST  # F_P >= F_Q pointwise
    if saw_below:
        return Relation.GE_ST
    return Relation.EQUAL


def _witness_pair(scan: _Scan, hi: int) -> Optional[tuple]:
    """(k_minus, k_plus) from the first strict signs at or below hi, else None."""
    if scan.first_above is None or scan.first_below is None:
        return None
    if max(scan.first_above, scan.first_below) > hi:
        return None
    return scan.first_above + 1, scan.first_below + 1


def dominance_exact(P: DistributionSpec, Q: DistributionSpec) -> DominanceReport:
    """Exact survival comparison; both supports must be finite."""
    js = joint_support(P, Q)
    if not js.finite:
        raise InfiniteSupport("exact dominance needs finite supports; use dominance_truncated")
    scan = _survival_scan(P, Q, js.k_max)
    relation = _relation_from_signs(scan.first_above is not None, scan.first_below is not None)
    witnesses = _witness_pair(scan, js.k_max) if relation == Relation.INCOMPARABLE else None
    return DominanceReport(relation, scan.crossings, Exact(), witnesses)


def _tail_certifies(P, Q, k_cap) -> bool:
    """True when lambda(k) <= 1 for every k > k_cap, by closed-form shape.

    Combined with F_P >= F_Q on [0, k_cap] this pins S_P <= S_Q everywhere:
    a final decreasing phase needs lambda(k_cap + 1) <= 1; a final
    increasing phase needs the limit of the survival ratio to stay <= 1.
    """
    if not likelihood.has_closed_ratio(P, Q):
        return False
    try:
        profile = likelihood.likelihood_profile(P, Q, with_values=False)
    except (UnboundedProfile, UnsupportedPair):
        return False
    if profile.turning_index is not None and profile.turning_index > k_cap:
        return False
    if profile.shape in (
        likelihood.Shape.DECREASING,
        likelihood.Shape.INCREASING_THEN_DECREASING,
    ):
        return likelihood.point_ratio(P, Q, k_cap + 1) <= 1
    rho = _survival_ratio_limit(P, Q)
    return rho is not None and rho <= 1


def _survival_ratio_limit(P, Q):
    """limsup of S_P(k)/S_Q(k), when the pair has a closed form (else None)."""
    if not likelihood.has_closed_ratio(P, Q):
        return None
    try:
        return likelihood.tail_conditions(P, Q).extreme_tail_ratio
    except (UnboundedProfile, UnsupportedPair):
        return None


def _mass_flip_bound(P, Q, rho, hard_cap: int) -> Optional[int]:
    """A k beyond which the mass ratio stays on one side of 1, by closed form.

    For rho = inf: smallest k with lambda(j) > 1 for all j >= k (so the
    survival functions must have crossed at or before k). Mirrored for
    rho = 0. Walks log(lambda) via the consecutive ratio; None if the walk
    hits the hard cap or the pair has no closed ratio.
    """
    js = joint_support(P, Q)
    if js.finite:
        return None
    lam0 = likelihood.point_ratio(P, Q, js.k_min)
    if lam0 == INF or lam0 == 0:
        return None
    log_lam = math.log(float(lam0))
    want_above = rho == INF
    k = js.k_min
    while k < hard_cap:
        try:
            q = float(likelihood.consecutive_ratio(P, Q, k))
        except (UnsupportedPair, ValueError):
            return None
        if q == 0:
            # the mass ratio drops to zero and one support has ended
            return k + 1 if not want_above else None
        if q < 0:
            return None
        settled = (log_lam > 0 and q >= 1) if want_above else (log_lam < 0 and q <= 1)
        if settled:
            return k
        log_lam += math.log(q)
        k += 1
    return None


def dominance_truncated(
    P: DistributionSpec,
    Q: DistributionSpec,
    k_cap: Optional[int] = None,
    epsilon: float = 1e-12,
    hard_cap: int = 10**6,
) -> DominanceReport:
    """Survival comparison on k <= k_cap with an epsilon bound on the rest.

    Incomparability found inside the scan window is definite. A one-sided
    pattern is reported as a relation only when the remaining joint tail
    mass is below epsilon, or when a closed-form half-monotone profile
    certifies the tail analytically (certified=True in the mode). When the
    closed form says the survival ratio diverges against the scanned
    pattern, the window is extended to expose the far crossing (exact
    arithmetic) or the verdict flips to a certified incomparability.
    """
    rho = _survival_ratio_limit(P, Q)
    witness_hi = k_cap
    if k_cap is None:
        k_cap = tail_cap(P, Q, epsilon, hard_cap)
        if (epsilon, hard_cap) == (1e-12, 10**6):
            witness_hi = k_cap  # the default window of survival_witnesses
        if rho == INF or rho == 0:
            # a far-tail flip may hide below epsilon; cover the analytic bound
            bound = _mass_flip_bound(P, Q, rho, hard_cap)
            if bound is not None:
                k_cap = min(max(k_cap, bound + 2), hard_cap)
    # a saturated float cdf ends the window: deeper differences are rounding
    # noise, and any analytic far-tail facts are handled below
    scan = _survival_scan(P, Q, k_cap, saturate=True)
    relation = _relation_from_signs(scan.first_above is not None, scan.first_below is not None)

    certified = False
    if relation == Relation.LE_ST:
        certified = _tail_certifies(P, Q, k_cap)
        if not certified and rho is not None and rho > 1:
            # analytically, S_P > S_Q far out; the window already has the
            # other strict sign, so the pair is certainly incomparable
            relation = Relation.INCOMPARABLE
            certified = True
    elif relation == Relation.GE_ST:
        certified = _tail_certifies(Q, P, k_cap)
        if not certified and rho is not None and rho < 1:
            relation = Relation.INCOMPARABLE
            certified = True
    if relation not in (Relation.INCOMPARABLE,) and not certified and scan.tail_bound > epsilon:
        relation = Relation.UNKNOWN
    witnesses = None
    if relation == Relation.INCOMPARABLE:
        if witness_hi is None:
            witness_hi = tail_cap(P, Q)
        if scan.end >= witness_hi or (scan.first_above is not None and scan.first_below is not None):
            witnesses = _witness_pair(scan, witness_hi)
        else:  # the window stopped short of the witness window
            witnesses = survival_witnesses(P, Q, witness_hi)
    return DominanceReport(
        relation, scan.crossings, Truncated(k_cap, scan.tail_bound, certified), witnesses
    )


def dominance(P: DistributionSpec, Q: DistributionSpec, policy: OraclePolicy = OraclePolicy()) -> DominanceReport:
    """Exact on finite supports, truncated otherwise."""
    if joint_support(P, Q).finite:
        return dominance_exact(P, Q)
    return dominance_truncated(P, Q, policy.k_cap, policy.epsilon, policy.hard_cap)


def crossing_points(P: DistributionSpec, Q: DistributionSpec, k_cap: Optional[int] = None) -> list:
    """The k values where the cdf difference changes strict sign."""
    if joint_support(P, Q).finite and k_cap is None:
        return list(dominance_exact(P, Q).crossings)
    return list(dominance_truncated(P, Q, k_cap).crossings)


def survival_witnesses(P: DistributionSpec, Q: DistributionSpec, k_cap: Optional[int] = None):
    """(k_minus, k_plus) with S_P(k_minus) < S_Q(k_minus) and S_P(k_plus) > S_Q(k_plus).

    Each witness is the earliest k where that side of the domination fails
    (a cdf difference F_P(k) - F_Q(k) > 0 means S_P(k+1) < S_Q(k+1) and
    vice versa). Returns None when no witness pair exists in the scan.
    """
    js = joint_support(P, Q)
    if js.finite:
        hi = js.k_max
    else:
        hi = k_cap if k_cap is not None else tail_cap(P, Q)
    return _witness_pair(_survival_scan(P, Q, hi, until_witnesses=True), hi)
