"""Explicit coupling constructions with pathwise domination.

Every sampler here produces pairs (x1, x2) with the correct marginal laws
and, when its preconditions hold, x1 <= x2 in every sample as a structural
guarantee (violations raise DominationError rather than being counted).
The verification harness tests the marginals with a pooled-bin chi-square.

Sample i is drawn from substream(seed, i), so output is reproducible and
independent of generation order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from scipy.stats import chi2

from .distributions import DistributionSpec, NegBinomial, Poisson, pmf, support
from .errors import (
    ConditionsViolated,
    DominationError,
    InvalidOccupancy,
    UnsupportedFamily,
)
from .exact import parse_scalar
from .streams import DEFAULT_SEED, Stream, substream


@dataclass(frozen=True, slots=True)
class CouplingSample:
    x1: int
    x2: int
    trace: Optional[dict] = None


# --- the box-pair joint table --------------------------------------------------


@dataclass(frozen=True)
class BoxChoiceJoint:
    """Joint law of one box index per chain with uniform marginals.

    Cells are constant on the four regions cut out by the occupied sets
    A1 (a1 boxes of n1) and A2 (a2 of n2). When a1 >= a2 the region
    A1^c x A2 has weight zero, which is what forces a fresh box for chain 2
    whenever chain 1 opens one.
    """

    a1: int
    a2: int
    n1: int
    n2: int

    def cell_weight(self, in_a1: bool, in_a2: bool) -> Fraction:
        a1, a2, n1, n2 = self.a1, self.a2, self.n1, self.n2
        if a1 < a2:
            return Fraction(1, n1 * n2)
        region_sizes = {
            (True, True): a1 * a2,
            (True, False): a1 * (n2 - a2),
            (False, True): (n1 - a1) * a2,
            (False, False): (n1 - a1) * (n2 - a2),
        }
        if region_sizes[(in_a1, in_a2)] == 0:
            return Fraction(0)
        if in_a1 and in_a2:
            return Fraction(1, a1 * n2)
        if in_a1 and not in_a2:
            return Fraction(a1 * n2 - a2 * n1, a1 * n1 * n2 * (n2 - a2))
        if not in_a1 and not in_a2:
            return Fraction(1, (n2 - a2) * n1)
        return Fraction(0)

    def as_matrix(self) -> list:
        """Full table over {1..n1} x {1..n2} with A_i = {1..a_i}."""
        return [
            [self.cell_weight(r1 <= self.a1, r2 <= self.a2) for r2 in range(1, self.n2 + 1)]
            for r1 in range(1, self.n1 + 1)
        ]


def box_choice_joint(a1: int, a2: int, n1: int, n2: int) -> BoxChoiceJoint:
    if not (0 <= a1 <= n1 <= n2 and 0 <= a2 <= n2):
        raise InvalidOccupancy(f"need 0 <= a1 <= n1 <= n2 and 0 <= a2 <= n2, got {a1},{a2},{n1},{n2}")
    if a1 >= a2 and a2 == n2:
        raise InvalidOccupancy("a2 = n2 with a1 >= a2 leaves chain 2 no fresh box")
    return BoxChoiceJoint(a1, a2, n1, n2)


class _OccupiedSets:
    """The two growing occupied sets, with O(1) uniform draws per region."""

    __slots__ = ("n1", "n2", "members1", "members2", "fresh1", "fresh2", "is_in1", "is_in2")

    def __init__(self, n1: int, n2: int):
        self.n1, self.n2 = n1, n2
        self.members1: list = []
        self.members2: list = []
        self.fresh1 = list(range(1, n1 + 1))
        self.fresh2 = list(range(1, n2 + 1))
        self.is_in1 = [False] * (n1 + 1)
        self.is_in2 = [False] * (n2 + 1)

    def draw_pair(self, rng: Stream):
        a1, a2, n1, n2 = len(self.members1), len(self.members2), self.n1, self.n2
        if a1 < a2:
            r1 = rng.randrange(n1) + 1
            r2 = rng.randrange(n2) + 1
        else:
            # region masses are a2*n1, a1*n2 - a2*n1, (n1-a1)*n2 over n1*n2;
            # choosing by integer thresholds keeps empty regions unreachable
            v = rng.randrange(n1 * n2)
            if v < a2 * n1:
                r1 = rng.choice(self.members1)
                r2 = rng.choice(self.members2)
            elif v < a1 * n2:
                r1 = rng.choice(self.members1)
                r2 = rng.choice(self.fresh2)
            else:
                r1 = rng.choice(self.fresh1)
                r2 = rng.choice(self.fresh2)
        self._add(r1, r2)
        return r1, r2

    def _add(self, r1: int, r2: int):
        if not self.is_in1[r1]:
            self.is_in1[r1] = True
            self.members1.append(r1)
            self.fresh1[self.fresh1.index(r1)] = self.fresh1[-1]
            self.fresh1.pop()
        if not self.is_in2[r2]:
            self.is_in2[r2] = True
            self.members2.append(r2)
            self.fresh2[self.fresh2.index(r2)] = self.fresh2[-1]
            self.fresh2.pop()

    @property
    def counts(self):
        return len(self.members1), len(self.members2)


def _require(condition: bool, message: str):
    if not condition:
        raise ConditionsViolated(message)


def _boundary_reduction(n1: int, p1: float, n2: int, p2: float):
    """lambda and the boundary-case p2 with the leftover lift probability."""
    lam = -n1 * math.log1p(-p1)
    p2_boundary = -math.expm1(n1 * math.log1p(-p1) / n2)  # 1 - (1-p1)^(n1/n2)
    lift = (p2 - p2_boundary) / (1.0 - p2_boundary) if p2_boundary < 1 else 0.0
    return lam, p2_boundary, min(max(lift, 0.0), 1.0)


def binomial_explicit_coupling(
    n1: int, p1, n2: int, p2, seed: int = DEFAULT_SEED, count: int = 1, record_trace: bool = False
) -> list:
    """Coupled binomial pair via synchronized occupied-box growth.

    Reduces to the boundary case where both void probabilities match, runs
    the Poissonized box-filling construction with the box-pair joint table,
    then lifts x2 to the requested p2 with a conditional binomial.
    """
    p1, p2 = float(p1), float(p2)
    _require(1 <= n1 <= n2, f"need n1 <= n2, got {n1} > {n2}")
    _require(0 <= p1 <= 1 and 0 <= p2 <= 1, "probabilities must lie in [0,1]")
    _require(
        (1 - p1) ** n1 >= (1 - p2) ** n2 or math.isclose((1 - p1) ** n1, (1 - p2) ** n2),
        f"void-probability condition fails: (1-p1)^n1 = {(1-p1)**n1:.6g} < (1-p2)^n2 = {(1-p2)**n2:.6g}",
    )
    samples = []
    if p1 == 1.0:  # forces p2 = 1 via the void condition
        return [CouplingSample(n1, n2, {"T": None} if record_trace else None) for _ in range(count)]
    lam, _, lift = _boundary_reduction(n1, p1, n2, p2)
    for i in range(count):
        rng = substream(seed, i)
        T = rng.poisson(lam)
        sets = _OccupiedSets(n1, n2)
        choices = [] if record_trace else None
        for _ in range(T):
            r1, r2 = sets.draw_pair(rng)
            a1, a2 = sets.counts
            if a1 > a2:
                raise DominationError(
                    "occupied-set invariant a1 <= a2 broken", a1, a2, {"T": T, "choices": choices}
                )
            if choices is not None:
                choices.append((r1, r2))
        x1, x2_boundary = sets.counts
        x2 = x2_boundary + rng.binomial(n2 - x2_boundary, lift)
        if x1 > x2:
            raise DominationError("pathwise domination broken", x1, x2, {"T": T, "choices": choices})
        trace = {"T": T, "choices": choices, "x2_boundary": x2_boundary} if record_trace else None
        samples.append(CouplingSample(x1, x2, trace))
    return samples


# --- occupancy chain ------------------------------------------------------------


def occupancy_transition_matrix(n: int) -> list:
    """Kernel of the nonempty-box count: stay with k/n, step with 1 - k/n."""
    matrix = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        matrix[k][k] = Fraction(k, n)
        if k < n:
            matrix[k][k + 1] = Fraction(n - k, n)
    return matrix


def occupancy_step(state, n: int) -> list:
    """The law of the nonempty-box count after one more uniform throw into n boxes."""
    nxt = [Fraction(0)] * (n + 1)
    for k, mass in enumerate(state):
        if mass:
            nxt[k] += mass * Fraction(k, n)
            if k < n:
                nxt[k + 1] += mass * Fraction(n - k, n)
    return nxt


def occupancy_pushforward(n: int, t: int) -> tuple:
    """Exact law of the nonempty-box count after t uniform throws into n boxes."""
    if n < 1 or t < 0:
        raise InvalidOccupancy(f"need n >= 1 and t >= 0, got n={n}, t={t}")
    state = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(t):
        state = occupancy_step(state, n)
    return tuple(state)


def occupancy_mixture(n: int, p, t_cap: Optional[int] = None) -> list:
    """Poisson mixture of throw counts; equals the binomial law within 1e-10."""
    p = float(p)
    if not 0 < p < 1:
        raise InvalidOccupancy(f"need p in (0,1), got {p}")
    lam = -n * math.log1p(-p)
    if t_cap is None:
        t_cap = 1
        tail = 1.0 - math.exp(-lam)
        weight = math.exp(-lam)
        while tail >= 1e-13:
            weight *= lam / t_cap
            tail -= weight
            t_cap += 1
    mixture = [0.0] * (n + 1)
    state = [Fraction(1)] + [Fraction(0)] * n
    weight = math.exp(-lam)
    for t in range(t_cap + 1):
        if t > 0:
            weight *= lam / t
            state = occupancy_step(state, n)
        for k in range(n + 1):
            if state[k]:
                mixture[k] += weight * float(state[k])
    return mixture


def occupancy_coupling(
    n1: int, p1, n2: int, p2, seed: int = DEFAULT_SEED, count: int = 1, record_trace: bool = False
) -> list:
    """Coupled chains of nonempty-box counts driven by common uniforms.

    The step-up probability 1 - k/n is nondecreasing in n and nonincreasing
    in k, so with a shared uniform per throw the chain with more boxes never
    falls behind. Same boundary reduction and lift as the explicit method.
    """
    p1, p2 = float(p1), float(p2)
    _require(1 <= n1 <= n2, f"need n1 <= n2, got {n1} > {n2}")
    _require(
        (1 - p1) ** n1 >= (1 - p2) ** n2 or math.isclose((1 - p1) ** n1, (1 - p2) ** n2),
        "void-probability condition fails",
    )
    if p1 == 1.0:
        return [CouplingSample(n1, n2) for _ in range(count)]
    lam, _, lift = _boundary_reduction(n1, p1, n2, p2)
    samples = []
    for i in range(count):
        rng = substream(seed, i)
        T = rng.poisson(lam)
        k1 = k2 = 0
        for _ in range(T):
            u = rng.random()
            if u < 1.0 - k1 / n1:
                k1 += 1
            if u < 1.0 - k2 / n2:
                k2 += 1
            if k1 > k2:
                raise DominationError("chain invariant broken", k1, k2, {"T": T})
        x2 = k2 + rng.binomial(n2 - k2, lift)
        if k1 > x2:
            raise DominationError("pathwise domination broken", k1, x2, {"T": T})
        samples.append(CouplingSample(k1, x2, {"T": T} if record_trace else None))
    return samples


# --- the jump-measure layer ----------------------------------------------------


@dataclass(frozen=True)
class LevyCharacteristics:
    """Deterministic part and jump weights of a compound-Poisson law on N."""

    alpha: float
    weights: tuple  # nu({k}) for k = 1, 2, ...
    tails: tuple  # G(k) = nu([k, inf)) for k = 1, 2, ...

    def weight(self, k: int) -> float:
        return self.weights[k - 1] if 1 <= k <= len(self.weights) else 0.0

    def tail(self, x) -> float:
        if x <= 0:
            raise ValueError("the jump measure lives on (0, inf)")
        k = math.ceil(x)
        return self.tails[k - 1] if k <= len(self.tails) else 0.0

    @property
    def total_mass(self) -> float:
        return self.tails[0] if self.tails else 0.0


def _suffix_sums(weights):
    tails = [0.0] * len(weights)
    acc = 0.0
    for i in reversed(range(len(weights))):
        acc += weights[i]
        tails[i] = acc
    return tuple(tails)


def levy_characteristics(spec: DistributionSpec) -> LevyCharacteristics:
    """Jump measure of an infinitely divisible law (negbinomial or poisson)."""
    if isinstance(spec, Poisson):
        lam = float(spec.lam)
        return LevyCharacteristics(0.0, (lam,), (lam,))
    if isinstance(spec, NegBinomial):
        r, p = float(spec.r), float(spec.p)
        if p == 1.0:
            return LevyCharacteristics(0.0, (), ())  # point mass at 0: no jumps
        q = 1.0 - p
        weights = []
        term = q  # (1-p)^k / k at k=1 times k... start with q^1/1
        k = 1
        while True:
            w = r * term / k
            if w == 0.0:
                break
            weights.append(w)
            term *= q
            k += 1
        return LevyCharacteristics(0.0, tuple(weights), _suffix_sums(weights))
    raise UnsupportedFamily(f"{type(spec).__name__} is not handled by the jump-measure layer")


def levy_tail_ratio(r1, p1, r2, p2, k: int) -> float:
    """G1(k)/G2(k) for two negbinomial jump measures, by converged sums."""
    g1 = levy_characteristics(NegBinomial(parse_scalar(r1), parse_scalar(p1))).tail(k)
    g2 = levy_characteristics(NegBinomial(parse_scalar(r2), parse_scalar(p2))).tail(k)
    return g1 / g2


def levy_tails_dominated(r1, p1, r2, p2) -> bool:
    """Numeric check of G1(k) <= G2(k) for all k (jump-measure domination)."""
    t1 = levy_characteristics(NegBinomial(parse_scalar(r1), parse_scalar(p1))).tails
    t2 = levy_characteristics(NegBinomial(parse_scalar(r2), parse_scalar(p2))).tails
    if any(x > 0.0 for x in t1[len(t2):]):
        return False
    return all(a <= b for a, b in zip(t1, t2))


def _step_inverse(tails, y: float) -> int:
    """Largest m with G(m) > y (0 when y >= G(1)); G is the step tail."""
    lo, hi = 0, len(tails)  # first index with tails[i] <= y
    while lo < hi:
        mid = (lo + hi) // 2
        if tails[mid] <= y:
            hi = mid
        else:
            lo = mid + 1
    return lo


def levy_coupling(
    r1, p1, r2, p2, seed: int = DEFAULT_SEED, count: int = 1, record_trace: bool = False
) -> list:
    """Coupled negbinomial pair from one unit-rate Poisson point process.

    Both variables integrate the inverse tail functions of their jump
    measures against the same points on (0, G2(1)); pointwise ordered tails
    give pathwise domination.
    """
    rr1, pp1, rr2, pp2 = float(r1), float(p1), float(r2), float(p2)
    _require(pp1 >= pp2, f"jump-ratio monotonicity needs p1 >= p2, got {pp1} < {pp2}")
    if pp2 == 1.0:  # both point masses at 0
        return [CouplingSample(0, 0) for _ in range(count)]
    phi1 = (rr1 * math.log(pp1)) / (rr2 * math.log(pp2)) if pp1 < 1 else 0.0
    _require(
        phi1 <= 1.0 or math.isclose(phi1, 1.0),
        f"total-mass condition fails: G1(1)/G2(1) = {phi1:.6g} > 1",
    )
    g1 = levy_characteristics(NegBinomial(parse_scalar(r1), parse_scalar(p1)))
    g2 = levy_characteristics(NegBinomial(parse_scalar(r2), parse_scalar(p2)))
    # the true tails are ordered; clamp out any float rounding at the far end
    tails2 = g2.tails
    tails1 = tuple(
        min(t1, tails2[i] if i < len(tails2) else 0.0) for i, t1 in enumerate(g1.tails)
    )
    total = tails2[0] if tails2 else 0.0
    samples = []
    for i in range(count):
        rng = substream(seed, i)
        m = rng.poisson(total)
        x1 = x2 = 0
        points = [] if record_trace else None
        for _ in range(m):
            y = rng.random() * total
            j1 = _step_inverse(tails1, y)
            j2 = _step_inverse(tails2, y)
            x1 += j1
            x2 += j2
            if points is not None:
                points.append((y, j1, j2))
        if x1 > x2:
            raise DominationError("pathwise domination broken", x1, x2, {"points": points})
        samples.append(CouplingSample(x1, x2, {"points": points} if record_trace else None))
    return samples


def binom_poisson_coupling(
    n: int, p, lam, seed: int = DEFAULT_SEED, count: int = 1, record_trace: bool = False
) -> list:
    """x1 = thinned indicator sum, x2 = full Poisson sum over the same draws."""
    p, lam = float(p), float(lam)
    _require(0 <= p <= 1, f"p must lie in [0,1], got {p}")
    _require(
        p < 1 and n * math.log1p(-p) >= -lam,
        f"void-probability condition fails: (1-p)^n = {((1 - p) ** n):.6g} "
        f"< e^-lambda = {math.exp(-lam):.6g}",
    )
    lam_hat = -math.log1p(-p)
    lam_rest = max(lam - n * lam_hat, 0.0)
    samples = []
    for i in range(count):
        rng = substream(seed, i)
        parts = [rng.poisson(lam_hat) for _ in range(n)]
        x0 = rng.poisson(lam_rest)
        x1 = sum(1 for x in parts if x >= 1)
        x2 = x0 + sum(parts)
        if x1 > x2:
            raise DominationError("pathwise domination broken", x1, x2, {"parts": parts})
        samples.append(
            CouplingSample(x1, x2, {"parts": parts, "x0": x0} if record_trace else None)
        )
    return samples


# --- generic quantile coupling ---------------------------------------------------


class _QuantileTable:
    """Lazily extended cdf table with exact inverse lookups.

    Comparisons between a uniform float and exact rational cdf values are
    exact (the float converts to a Fraction), so the left-continuous
    inverse is computed without rounding.
    """

    __slots__ = ("spec", "bounds", "cum")

    def __init__(self, spec: DistributionSpec):
        self.spec = spec
        self.bounds = support(spec)
        self.cum = [pmf(spec, self.bounds.k_min)]

    def invert(self, u) -> int:
        while self.cum[-1] < u:
            k = self.bounds.k_min + len(self.cum)
            if self.bounds.finite and k > self.bounds.k_max:
                break
            new = self.cum[-1] + pmf(self.spec, k)
            if new == self.cum[-1] and not self.bounds.finite and float(new) > 1 - 1e-9:
                break  # float cdf saturated below u; clamp to the last point
            self.cum.append(new)
        return self.bounds.k_min + bisect_left(self.cum, u)


def quantile_coupling(
    P: DistributionSpec, Q: DistributionSpec, seed: int = DEFAULT_SEED, count: int = 1,
    record_trace: bool = False,
) -> list:
    """Common-uniform inverse-cdf pairs.

    Domination is guaranteed only when P is stochastically below Q; this
    sampler never raises for violations (the harness counts them), because
    the construction is meaningful for unordered pairs too.
    """
    t1, t2 = _QuantileTable(P), _QuantileTable(Q)
    samples = []
    for i in range(count):
        rng = substream(seed, i)
        u = rng.random()
        x1 = t1.invert(u)
        x2 = t2.invert(u)
        samples.append(CouplingSample(x1, x2, {"u": u} if record_trace else None))
    return samples


# --- marginal verification harness ----------------------------------------------


@dataclass(frozen=True)
class CouplingReport:
    n_samples: int
    violations: int
    p_value_x1: float
    p_value_x2: float


def chi_square_pvalue(values, spec: DistributionSpec, min_expected: float = 5.0) -> float:
    """Pooled-bin chi-square goodness of fit of integer draws against spec.

    Bins are consecutive runs of support points pooled until each expected
    count reaches min_expected; the last bin is open-ended and absorbs the
    truncated tail mass. Returns 1.0 when fewer than two bins survive.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return 1.0
    counts = Counter(values)
    bounds = support(spec)
    hi_obs = max(counts)
    edges = []  # bin j covers (edges[j-1], edges[j]]; None marks the open tail
    expected = []
    acc = 0.0
    covered = 0.0
    k = bounds.k_min
    while True:
        mass = float(pmf(spec, k))
        acc += mass * n
        covered += mass
        remaining = max(0.0, 1.0 - covered) * n
        at_end = (bounds.finite and k >= bounds.k_max) or (
            not bounds.finite and k >= hi_obs and remaining < min_expected
        )
        if at_end:
            acc += remaining
            if expected and acc < min_expected:
                acc += expected.pop()
                edges.pop()
            edges.append(None)
            expected.append(acc)
            break
        if acc >= min_expected:
            edges.append(k)
            expected.append(acc)
            acc = 0.0
        k += 1
    if len(expected) < 2:
        return 1.0
    obs = [0] * len(expected)
    for value, cnt in counts.items():
        j = 0
        while edges[j] is not None and value > edges[j]:
            j += 1
        obs[j] += cnt
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, expected))
    return float(chi2.sf(stat, len(expected) - 1))


def run_harness(samples, P: DistributionSpec, Q: DistributionSpec) -> CouplingReport:
    """Count domination violations and test both marginals."""
    violations = sum(1 for s in samples if s.x1 > s.x2)
    p1 = chi_square_pvalue((s.x1 for s in samples), P)
    p2 = chi_square_pvalue((s.x2 for s in samples), Q)
    return CouplingReport(len(samples), violations, p1, p2)
