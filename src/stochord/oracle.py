"""Ground-truth dominance checking via survival-function comparison.

P is stochastically below Q exactly when F_P(k) >= F_Q(k) for every k
(equivalently S_P <= S_Q pointwise). One scan yields the relation, the
crossings and both witnesses together. Both cdfs are nondecreasing, so it
settles whole blocks of k from their ends, and it compares two cdf values
by their correctly rounded floats, falling back to the exact integer
ratios where the floats tie. On finite supports it is exact; on
unbounded supports it runs to a cap and the remaining tail is either
bounded by epsilon, or certified analytically when the pair's likelihood
ratio has a closed-form monotone tail phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from . import likelihood
from .distributions import DistributionSpec, float_cdfs, joint_support, mass_table, tail_cap
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


def _cdf_reader(spec):
    """k -> (f, a, b) with F(k) = a/b exactly and f = F(k) correctly rounded.

    An exact spec reads its table's cdf_reader. A float spec keeps its
    float running sums (float_cdfs, in mass_iter order); that sum is its
    cdf, so a and b are None (f.as_integer_ratio() when needed) and float
    cdfs round as they always did. What a reader holds lives as long as
    one scan.
    """
    table = mass_table(spec)
    if table is not None:
        return table.cdf_reader()
    k_min = spec.support().k_min
    sums, cdfs = [], float_cdfs(spec, k_min)

    def read(k):
        if k < k_min:
            return 0.0, None, None
        while len(sums) <= k - k_min:
            sums.append(next(cdfs))
        return sums[k - k_min], None, None

    return read


def _paired_cdf_scan(cdf_p, cdf_q, ks):
    """Yield (k, F_P(k), F_Q(k)) for each k of ks, as _cdf_reader triples."""
    for k in ks:
        yield k, cdf_p(k), cdf_q(k)


def _order(x, y) -> int:
    """The sign of X - Y for two cdf values given as (f, a, b) triples.

    Correct rounding is monotone, so two floats that differ order the exact
    values the same way; only equal floats cross-multiply the exact ratios.
    """
    (f, a, b), (g, c, d) = x, y
    if f != g:
        return 1 if f > g else -1
    if a is None:
        a, b = f.as_integer_ratio()
    if c is None:
        c, d = g.as_integer_ratio()
    return cross_sign(a, b, c, d)


def _block_sign(before, last, single) -> Optional[int]:
    """The sign F_P - F_Q takes on all of a block k..j, from the (F_P, F_Q)
    pairs at k - 1 and at j, or None when they do not settle it.

    Both cdfs are nondecreasing, so F_P(k-1) > F_Q(j) makes the sign + on
    the whole block and F_P(j) < F_Q(k-1) makes it -. When neither holds,
    F_P(j) = F_Q(k-1) and F_Q(j) = F_P(k-1) pin both cdfs to one value on
    k-1..j, and the sign is 0. A single k compares its own pair.
    """
    (p0, q0), (p1, q1) = before, last
    if single:
        return _order(p1, q1)
    low = _order(p0, q1)
    if low > 0:
        return 1
    high = _order(p1, q0)
    if high < 0:
        return -1
    return 0 if low == high == 0 else None


@dataclass(frozen=True)
class _Scan:
    crossings: tuple  # first k of each new strict sign of F_P - F_Q
    first_above: Optional[int]  # first k with F_P(k) > F_Q(k)
    first_below: Optional[int]  # first k with F_P(k) < F_Q(k)
    end: int  # last k compared
    tail_bound: float  # (1 - F_P) + (1 - F_Q) at the last k read, in floats


def _survival_scan(P, Q, hi, *, saturate=False, until_witnesses=False) -> _Scan:
    """The signs of F_P - F_Q over the joint minimum..hi, block by block.

    The scan gallops: a block whose ends settle its sign (_block_sign) is
    passed whole and the next block may be twice as long; one that does not
    is halved, down to a single k. It reads the cdfs only at block ends,
    through _paired_cdf_scan, so the crossings, first signs and witnesses
    are those of a pass over every k. With saturate, the window ends before
    the first k where a float cdf leaves both cdfs within 1e-15 of 1
    (deeper differences are rounding noise); that test is monotone in k, so
    a gallop and a bisection find it. With until_witnesses, the scan stops
    at the first k of the second strict sign.
    """
    lo = joint_support(P, Q).k_min
    cdf_p, cdf_q = _cdf_reader(P), _cdf_reader(Q)
    points = {}

    def at(k):
        point = points.get(k)
        if point is None:
            _, fp, fq = next(_paired_cdf_scan(cdf_p, cdf_q, (k,)))
            point = points[k] = (fp, fq)
        return point

    def saturated(k):
        (fp, _, _), (fq, _, _) = at(k)
        return (1.0 - fp) + (1.0 - fq) < 1e-15

    stop = hi + 1  # the first k not compared
    if saturate and (mass_table(P) is None or mass_table(Q) is None):
        # gallop to a saturated k, then bisect back to the first one
        first, probe = lo, lo
        while probe <= hi and not saturated(probe):
            first, probe = probe + 1, min(2 * probe - lo + 1, hi) if probe < hi else hi + 1
        stop = probe
        while first < stop:
            mid = (first + stop) // 2
            if saturated(mid):
                stop = mid
            else:
                first = mid + 1
    crossings = []
    prev = 0
    above = below = None
    end = max(stop, lo) - 1
    last = min(stop, hi)  # the last k read: the saturated k, hi, or the witness stop
    points[lo - 1] = ((0.0, 0, 1), (0.0, 0, 1))  # both cdfs are 0 below the joint minimum
    # A block twice the size of the last is a trial. A failed trial doubles
    # the patience, the number of blocks kept at the smaller size before the
    # next trial, so where no block of 2 settles the trials thin out; a
    # trial that settles resets it.
    k, length, trial, wait, patience = lo, 1, False, 0, 1
    while k < stop:
        j = min(k + length, stop) - 1
        sign = _block_sign(points[k - 1], at(j), j == k)
        if sign is None:
            if trial:
                patience *= 2
                wait = patience
            length, trial = (j - k + 1) // 2, False
            continue
        if sign:
            if prev and sign != prev:
                crossings.append(k)
            prev = sign
            if sign > 0 and above is None:
                above = k
            elif sign < 0 and below is None:
                below = k
            if until_witnesses and above is not None and below is not None:
                end = last = k
                break
        if trial:
            patience = 1
        trial = not wait
        wait = max(wait - 1, 0)
        length = (j - k + 1) * (2 if trial else 1)
        k = j + 1
    tail_bound = 2.0  # nothing read: (1 - 0) + (1 - 0)
    if last >= lo:
        (fp, _, _), (fq, _, _) = at(last)
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


def _tail_certifies(P, Q, k_cap, pair_cap) -> bool:
    """True when lambda(k) <= 1 for every k > k_cap, by closed-form shape.

    Combined with F_P >= F_Q on [0, k_cap] this pins S_P <= S_Q everywhere:
    a final decreasing phase needs lambda(k_cap + 1) <= 1; a final
    increasing phase needs the limit of the survival ratio to stay <= 1.
    pair_cap is tail_cap(P, Q) when the caller has it, else None; the shape
    does not depend on it.
    """
    if not likelihood.has_closed_ratio(P, Q):
        return False
    try:
        profile = likelihood.likelihood_profile(P, Q, pair_cap, with_values=False)
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
    pair_cap = None  # tail_cap(P, Q), computed once for every stage below that reads it
    if k_cap is None:
        k_cap = tail_cap(P, Q, epsilon, hard_cap)
        if (epsilon, hard_cap) == (1e-12, 10**6):
            witness_hi = pair_cap = k_cap  # also the default window of survival_witnesses
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
        certified = _tail_certifies(P, Q, k_cap, pair_cap)
        if not certified and rho is not None and rho > 1:
            # analytically, S_P > S_Q far out; the window already has the
            # other strict sign, so the pair is certainly incomparable
            relation = Relation.INCOMPARABLE
            certified = True
    elif relation == Relation.GE_ST:
        certified = _tail_certifies(Q, P, k_cap, pair_cap)  # tail_cap is symmetric
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
