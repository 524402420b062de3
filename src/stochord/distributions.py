"""The five supported discrete families: exact pmf/cdf/survival/support.

Exactness routing: a mass is an exact Fraction whenever the closed form is
rational in rational inputs (binomial with rational p, hypergeometric
always, negative binomial with integer r and rational p, Poisson-binomial
with rational entries); otherwise it is a float (Poisson always, any float
parameter, non-integer r). All integer combinatorics use arbitrary
precision, so C(919,500)-scale coefficients are exact.

Each exact spec has one MassTable: integer numerators over one common
denominator, built once by the family's multiplicative recurrence and
shared by pmf, cdf, mass_iter and every exact stage of a decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import InvalidSpec
from .exact import INF, Scalar, is_exact, parse_scalar, scalar_to_json


@dataclass(frozen=True)
class Binomial:
    """Number of successes in n independent trials with success chance p."""

    n: int
    p: Scalar

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec(f"binomial n must be a positive integer, got {self.n!r}")
        if not 0 <= self.p <= 1:
            raise InvalidSpec(f"binomial p must lie in [0,1], got {self.p}")


@dataclass(frozen=True)
class NegBinomial:
    """Number of failures before the r-th success (Pascal distribution)."""

    r: Scalar
    p: Scalar

    def __post_init__(self):
        if not self.r > 0:
            raise InvalidSpec(f"negbinomial r must be positive, got {self.r}")
        if not 0 < self.p <= 1:
            raise InvalidSpec(f"negbinomial p must lie in (0,1], got {self.p}")

    @property
    def integer_r(self) -> bool:
        return isinstance(self.r, Fraction) and self.r.denominator == 1


@dataclass(frozen=True)
class Hypergeometric:
    """Black balls drawn when sampling n without replacement from B+W."""

    B: int
    W: int
    n: int

    def __post_init__(self):
        if self.B < 0 or self.W < 0:
            raise InvalidSpec("hypergeometric B and W must be nonnegative integers")
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec(f"hypergeometric n must be a positive integer, got {self.n!r}")
        if self.n > self.B + self.W:
            raise InvalidSpec(f"hypergeometric needs n <= B+W, got n={self.n}, B+W={self.B + self.W}")


@dataclass(frozen=True)
class Poisson:
    lam: Scalar

    def __post_init__(self):
        if not self.lam > 0:
            raise InvalidSpec(f"poisson lambda must be positive, got {self.lam}")


@dataclass(frozen=True)
class PoissonBinomial:
    """Sum of independent Bernoulli(p_i) with p_vec sorted nonincreasing."""

    p_vec: tuple

    def __post_init__(self):
        if not self.p_vec:
            raise InvalidSpec("poisson_binomial needs at least one entry")
        for p in self.p_vec:
            if not 0 <= p <= 1:
                raise InvalidSpec(f"poisson_binomial entries must lie in [0,1], got {p}")
        if any(a < b for a, b in zip(self.p_vec, self.p_vec[1:])):
            raise InvalidSpec("poisson_binomial p_vec must be sorted nonincreasing")


DistributionSpec = Union[Binomial, NegBinomial, Hypergeometric, Poisson, PoissonBinomial]


@dataclass(frozen=True)
class SupportBounds:
    k_min: int
    k_max: Union[int, float]  # math.inf for unbounded support

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise InvalidSpec(f"empty support [{self.k_min}, {self.k_max}]")

    @property
    def finite(self) -> bool:
        return self.k_max != INF


def support(spec: DistributionSpec) -> SupportBounds:
    """Minimal and maximal k with positive mass (inf when unbounded)."""
    if isinstance(spec, Binomial):
        if spec.p == 0:
            return SupportBounds(0, 0)
        if spec.p == 1:
            return SupportBounds(spec.n, spec.n)
        return SupportBounds(0, spec.n)
    if isinstance(spec, NegBinomial):
        if spec.p == 1:
            return SupportBounds(0, 0)
        return SupportBounds(0, INF)
    if isinstance(spec, Hypergeometric):
        return SupportBounds(max(0, spec.n - spec.W), min(spec.B, spec.n))
    if isinstance(spec, Poisson):
        return SupportBounds(0, INF)
    if isinstance(spec, PoissonBinomial):
        ones = sum(1 for p in spec.p_vec if p == 1)
        positive = sum(1 for p in spec.p_vec if p > 0)
        return SupportBounds(ones, positive)
    raise InvalidSpec(f"unknown spec {spec!r}")


def joint_support(P: DistributionSpec, Q: DistributionSpec) -> SupportBounds:
    """Bounds of {k : P({k}) + Q({k}) > 0}."""
    sp, sq = support(P), support(Q)
    return SupportBounds(min(sp.k_min, sq.k_min), max(sp.k_max, sq.k_max))


def _binomial_pmf(n: int, p: float, k: int) -> float:
    """Float binomial mass, in log space to stay finite for large n."""
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def _negbinomial_coefficient(r: Scalar, k: int) -> Scalar:
    """C(r+k-1, k) as a rising-factorial product, exact for rational r."""
    if isinstance(r, Fraction):
        out = Fraction(1)
        for l in range(1, k + 1):
            out *= Fraction(r + l - 1, l)
        return out
    return math.exp(math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1))


def _negbinomial_pmf(spec: NegBinomial, k: int) -> Scalar:
    """Float mass of a negative binomial with a float p or a non-integer r."""
    r, p = spec.r, spec.p
    if k < 0:
        return 0.0
    if p == 1:
        return 1.0 if k == 0 else 0.0
    coef = _negbinomial_coefficient(r, k)
    return float(coef) * float(p) ** float(r) * float(1 - p) ** k


def _poisson_pmf(lam: Scalar, k: int) -> float:
    if k < 0:
        return 0.0
    lam = float(lam)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _exactness_tag(spec: DistributionSpec) -> tuple:
    """Scalar-field exactness, part of every cache key.

    A float parameter can compare equal to a Fraction (0.5 == 1/2), so two
    specs that hash alike may still demand different arithmetic; caching by
    spec alone would hand a float table to an exact caller.
    """
    if isinstance(spec, Binomial):
        return (is_exact(spec.p),)
    if isinstance(spec, NegBinomial):
        return (is_exact(spec.r), is_exact(spec.p))
    if isinstance(spec, Poisson):
        return (is_exact(spec.lam),)
    if isinstance(spec, PoissonBinomial):
        return tuple(is_exact(p) for p in spec.p_vec)
    return ()


# --- exact mass tables ----------------------------------------------------------


class MassTable:
    """Exact masses P({k}) = nums[k - k_min] / (den * step**(k - k_min)).

    A finite support has step 1: every mass shares one denominator, so sums
    and comparisons of masses are integer operations. The integer-r
    negative binomial with p = a/b has den = b**r and step = b. The
    numerators grow on demand by the family's multiplicative recurrence,
    so a scan that stops early builds only the prefix it read.

    A finite table whose numerators all fit _KEEP_BITS keeps every
    numerator it grows. Any other table keeps only what sequential reads
    add while it fits that bound, and scans walk the recurrence past what
    it holds, so a long scan holds one numerator at a time.
    """

    __slots__ = ("k_min", "k_max", "nums", "den", "step", "keep", "_next")

    def __init__(self, k_min, k_max, nums, den, step=1, next_mass=None):
        self.k_min, self.k_max, self.nums, self.den, self.step = k_min, k_max, nums, den, step
        self.keep = k_max != INF and (k_max - k_min + 1) * den.bit_length() <= _KEEP_BITS
        self._next = next_mass  # (k, numerator at k) -> numerator at k + 1

    def numerators(self):
        """Yield the numerators from k_min upward."""
        nums, keep = self.nums, self.keep
        i, num = 0, self.nums[0]
        while self.k_min + i <= self.k_max:
            if i < len(nums):
                num = nums[i]
            else:
                num = self._next(self.k_min + i - 1, num)
                if keep:
                    nums.append(num)
            yield num
            i += 1

    def row(self, lo: int, hi: int):
        """Yield the numerator of each k = lo..hi, 0 outside the support (lo <= k_min)."""
        masses = self.numerators()
        for k in range(lo, hi + 1):
            yield next(masses) if self.k_min <= k <= self.k_max else 0

    def num(self, k: int) -> int:
        if k < self.k_min or k > self.k_max:
            return 0
        nums, i = self.nums, k - self.k_min
        if self.keep or (i == len(nums) and self.bits() <= _KEEP_BITS):
            while len(nums) <= i:
                nums.append(self._next(self.k_min + len(nums) - 1, nums[-1]))
        if i < len(nums):
            return nums[i]
        return next(itertools.islice(self.numerators(), i, None))

    def den_at(self, k: int) -> int:
        return self.den if self.step == 1 else self.den * self.step ** (k - self.k_min)

    def fraction(self, k: int) -> Fraction:
        num = self.num(k)
        return Fraction(num, self.den_at(k)) if num else Fraction(0)

    def bits(self) -> int:
        """An upper bound on the bits held by the numerators."""
        count = len(self.nums)
        growth = 0 if self.step == 1 else (count - 1) * self.step.bit_length()
        return count * (self.den.bit_length() + growth)


def _build_table(spec: DistributionSpec) -> Optional[MassTable]:
    if isinstance(spec, Binomial):
        if not is_exact(spec.p):
            return None
        n, a, b = spec.n, spec.p.numerator, spec.p.denominator
        c = b - a
        if a == 0 or c == 0:
            return MassTable(0 if a == 0 else n, 0 if a == 0 else n, [1], 1)
        # C(n, k) a^k c^(n-k) over b^n
        return MassTable(0, n, [c**n], b**n, 1, lambda k, m: m * (n - k) * a // ((k + 1) * c))
    if isinstance(spec, Hypergeometric):
        B, W, n = spec.B, spec.W, spec.n
        lo, hi = max(0, n - W), min(B, n)
        # C(B, k) C(W, n-k) over C(B+W, n)
        return MassTable(
            lo,
            hi,
            [math.comb(B, lo) * math.comb(W, n - lo)],
            math.comb(B + W, n),
            1,
            lambda k, m: m * (B - k) * (n - k) // ((k + 1) * (W - n + k + 1)),
        )
    if isinstance(spec, NegBinomial):
        if not is_exact(spec.p):
            return None
        if spec.p == 1:
            return MassTable(0, 0, [1], 1)
        if not spec.integer_r:
            return None
        r, a, b = int(spec.r), spec.p.numerator, spec.p.denominator
        c = b - a  # C(r+k-1, k) a^r c^k over b^(r+k)
        return MassTable(0, INF, [a**r], b**r, b, lambda k, m: m * c * (r + k) // (k + 1))
    if isinstance(spec, PoissonBinomial):
        if not all(is_exact(p) for p in spec.p_vec):
            return None
        poly, den = [1], 1  # coefficients of prod (b_i - a_i + a_i x)
        for p in spec.p_vec:
            a, b = p.numerator, p.denominator
            c = b - a
            nxt = [poly[0] * c]
            for j in range(1, len(poly)):
                nxt.append(poly[j] * c + poly[j - 1] * a)
            nxt.append(poly[-1] * a)
            poly, den = nxt, den * b
        bounds = support(spec)
        return MassTable(bounds.k_min, bounds.k_max, poly[bounds.k_min : bounds.k_max + 1], den)
    if isinstance(spec, Poisson):
        return None
    raise InvalidSpec(f"unknown spec {spec!r}")


_TABLES: dict = {}
_MISSING = object()
_TABLE_SLOTS = 16
_TABLE_BITS = 1 << 22  # 512 KiB of numerators held by the cache
_KEEP_BITS = 1 << 24  # the most one table keeps


def mass_table(spec: DistributionSpec) -> Optional[MassTable]:
    """The exact mass table of a spec, or None when its masses are floats.

    Every exact stage reads this one table. A small cache, keyed by the
    spec and its exactness tag, keeps the newest tables within a slot and
    a bit budget (the two newest always stay).
    """
    key = (spec, _exactness_tag(spec))
    table = _TABLES.get(key, _MISSING)
    if table is not _MISSING:
        return table
    table = _TABLES[key] = _build_table(spec)
    held = sum(t.bits() for t in _TABLES.values() if t is not None)
    while len(_TABLES) > 2 and (len(_TABLES) > _TABLE_SLOTS or held > _TABLE_BITS):
        old = _TABLES.pop(next(iter(_TABLES)))
        held -= old.bits() if old is not None else 0
    return table


def poisson_binomial_pmf(p_vec) -> list:
    """Convolution of Bernoulli(p_i): vector of n+1 masses, exact for rational p_i.

    Accepts any sequence from Delta_n (entries in [0,1], nonincreasing).
    """
    spec = PoissonBinomial(tuple(parse_scalar(p) for p in p_vec))
    table = mass_table(spec)
    if table is None:
        return list(_float_poisson_binomial_table(spec, _exactness_tag(spec)))
    return [table.fraction(k) for k in range(len(spec.p_vec) + 1)]


@lru_cache(maxsize=512)
def _float_poisson_binomial_table(spec: PoissonBinomial, tag: tuple) -> tuple:
    table = [1.0]
    for p in spec.p_vec:
        p = float(p)
        q = 1 - p
        nxt = [table[0] * q]
        for j in range(1, len(table)):
            nxt.append(table[j] * q + table[j - 1] * p)
        nxt.append(table[-1] * p)
        table = nxt
    return tuple(table)


def pmf(spec: DistributionSpec, k: int) -> Scalar:
    """P({k}); exactly zero outside the support."""
    table = mass_table(spec)
    if table is not None:
        return table.fraction(k)
    return float_pmf(spec, k)


def float_pmf(spec: DistributionSpec, k: int) -> float:
    """P({k}) of a spec without an exact mass table."""
    if isinstance(spec, Binomial):
        return _binomial_pmf(spec.n, spec.p, k)
    if isinstance(spec, NegBinomial):
        return _negbinomial_pmf(spec, k)
    if isinstance(spec, Poisson):
        return _poisson_pmf(spec.lam, k)
    table = _float_poisson_binomial_table(spec, _exactness_tag(spec))
    return table[k] if 0 <= k < len(table) else 0.0


def _finite_cdf_table(spec: DistributionSpec) -> tuple:
    return _finite_cdf_table_cached(spec, _exactness_tag(spec))


@lru_cache(maxsize=4096)
def _finite_cdf_table_cached(spec: DistributionSpec, tag: tuple) -> tuple:
    """Cumulative masses F(k_min), ..., F(k_max) for a finite support."""
    table = mass_table(spec)
    if table is not None:
        return tuple(Fraction(c, table.den) for c in itertools.accumulate(table.numerators()))
    bounds = support(spec)
    acc = None
    out = []
    for k in range(bounds.k_min, bounds.k_max + 1):
        mass = pmf(spec, k)
        acc = mass if acc is None else acc + mass
        out.append(acc)
    return tuple(out)


def cdf(spec: DistributionSpec, k: int) -> Scalar:
    """P({0,...,k}); exactness inherited from pmf."""
    bounds = support(spec)
    zero_like = pmf(spec, bounds.k_min) * 0
    if k < bounds.k_min:
        return zero_like
    if bounds.finite:
        table = _finite_cdf_table(spec)
        if k >= bounds.k_max:
            return table[-1]
        return table[k - bounds.k_min]
    table = mass_table(spec)
    if table is not None:
        acc = 0
        for num in itertools.islice(table.numerators(), k - table.k_min + 1):
            acc = acc * table.step + num  # the running sum over den * step**k
        return Fraction(acc, table.den_at(k))
    return zero_like + sum(pmf(spec, j) for j in range(bounds.k_min, k + 1))


def survival(spec: DistributionSpec, k: int) -> Scalar:
    """P({k, k+1, ...}) = 1 - cdf(k-1)."""
    bounds = support(spec)
    zero_like = pmf(spec, bounds.k_min) * 0
    if k <= bounds.k_min:
        return zero_like + 1
    if bounds.finite and k > bounds.k_max:
        return zero_like
    value = 1 - cdf(spec, k - 1)
    if isinstance(value, float):
        return max(value, 0.0)
    return value


def mean(spec: DistributionSpec) -> Scalar:
    if isinstance(spec, Binomial):
        return spec.n * spec.p
    if isinstance(spec, NegBinomial):
        return spec.r * (1 - spec.p) / spec.p
    if isinstance(spec, Hypergeometric):
        return Fraction(spec.n * spec.B, spec.B + spec.W)
    if isinstance(spec, Poisson):
        return spec.lam
    if isinstance(spec, PoissonBinomial):
        total = Fraction(0)
        for p in spec.p_vec:
            total = total + p
        return total
    raise InvalidSpec(f"unknown spec {spec!r}")


def mass_iter(spec: DistributionSpec, *, prefer_exact: bool = True):
    """Yield (k, P({k})) from the support minimum upward.

    Exact specs read their mass table. With prefer_exact=False every mass
    is a float from a multiplicative recurrence (or the float pmf), which
    keeps big-rational growth out of tail searches.
    """
    bounds = support(spec)
    table = mass_table(spec)
    if table is not None and prefer_exact:
        for k, num in enumerate(table.numerators(), table.k_min):
            yield k, Fraction(num, table.den_at(k)) if num else Fraction(0)
        return
    if isinstance(spec, Binomial) and bounds.k_min == 0 and bounds.k_max == spec.n:
        for k in range(spec.n + 1):
            yield k, _binomial_pmf(spec.n, float(spec.p), k)
        return
    if isinstance(spec, NegBinomial) and spec.p != 1:
        rf, pf = float(spec.r), float(spec.p)
        mass = pf**rf
        k = 0
        exact = None  # once the float recurrence underflows, it stays at 0
        while True:
            if mass > 0:
                yield k, mass
            elif table is None:
                yield k, _negbinomial_pmf(spec, k)
            else:  # read the float of each exact mass from here on
                if exact is None:
                    exact, den = itertools.islice(table.numerators(), k, None), table.den_at(k)
                num = next(exact)
                yield k, num / den if num else 0.0
                den *= table.step
            mass = mass * (1 - pf) * (rf + k) / (k + 1)
            k += 1
    if isinstance(spec, Poisson):
        lam = float(spec.lam)
        mass = math.exp(-lam)
        k = 0
        while True:
            yield k, mass if mass > 0 else _poisson_pmf(lam, k)
            mass = mass * lam / (k + 1)
            k += 1
    # remaining cases have finite support; direct evaluation per k
    if table is not None:
        for k, num in enumerate(table.numerators(), table.k_min):
            yield k, num / table.den if num else 0.0
        return
    for k in range(bounds.k_min, bounds.k_max + 1):
        yield k, float_pmf(spec, k)


def tail_cap(P: DistributionSpec, Q: DistributionSpec, epsilon: float = 1e-12, hard_cap: int = 10**6) -> int:
    """Smallest k with S_P(k) + S_Q(k) < epsilon, capped at hard_cap."""
    js = joint_support(P, Q)
    if js.finite:
        return min(js.k_max, hard_cap)
    fp = fq = 0.0
    it_p = mass_iter(P, prefer_exact=False)
    it_q = mass_iter(Q, prefer_exact=False)
    head_p = next(it_p, None)
    head_q = next(it_q, None)
    for k in range(js.k_min, hard_cap):
        if head_p is not None and head_p[0] == k:
            fp += head_p[1]
            head_p = next(it_p, None)
        if head_q is not None and head_q[0] == k:
            fq += head_q[1]
            head_q = next(it_q, None)
        if (1.0 - fp) + (1.0 - fq) < epsilon:
            return k + 1
    return hard_cap


def spec_to_json(spec: DistributionSpec) -> dict:
    if isinstance(spec, Binomial):
        return {"family": "binomial", "n": spec.n, "p": scalar_to_json(spec.p)}
    if isinstance(spec, NegBinomial):
        return {"family": "negbinomial", "r": scalar_to_json(spec.r), "p": scalar_to_json(spec.p)}
    if isinstance(spec, Hypergeometric):
        return {"family": "hypergeometric", "B": spec.B, "W": spec.W, "n": spec.n}
    if isinstance(spec, Poisson):
        return {"family": "poisson", "lambda": scalar_to_json(spec.lam)}
    if isinstance(spec, PoissonBinomial):
        return {"family": "poisson_binomial", "p": [scalar_to_json(p) for p in spec.p_vec]}
    raise InvalidSpec(f"unknown spec {spec!r}")


def _require_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"field {key!r} must be an integer, got {value!r}")
    return value


def spec_from_json(obj: dict) -> DistributionSpec:
    """Decode {"family": ..., ...}; rational and decimal strings stay exact."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise InvalidSpec(f"not a distribution spec: {obj!r}")
    family = obj["family"]
    try:
        if family == "binomial":
            return Binomial(_require_int(obj, "n"), parse_scalar(obj["p"]))
        if family == "negbinomial":
            return NegBinomial(parse_scalar(obj["r"]), parse_scalar(obj["p"]))
        if family == "hypergeometric":
            return Hypergeometric(_require_int(obj, "B"), _require_int(obj, "W"), _require_int(obj, "n"))
        if family == "poisson":
            return Poisson(parse_scalar(obj["lambda"]))
        if family == "poisson_binomial":
            return PoissonBinomial(tuple(parse_scalar(p) for p in obj["p"]))
    except KeyError as exc:
        raise InvalidSpec(f"missing field {exc} for family {family!r}") from exc
    raise InvalidSpec(f"unknown family {family!r}")
