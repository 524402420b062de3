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

Each family class owns its behaviour (see Family); the module functions
below are the public surface and dispatch to it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import InvalidSpec
from .exact import INF, Scalar, is_exact, parse_scalar, scalar_to_json


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

    An unbounded table also has a closed form, so no read walks from k_min
    to a far k: closed(k) gives the numerators of the cdf and of the mass at
    k over den_at(k), and den_at(k), at about the cost of `reach` steps of
    the recurrence.
    """

    __slots__ = ("k_min", "k_max", "nums", "den", "step", "keep", "_next", "_closed", "_reach")

    def __init__(self, k_min, k_max, nums, den, step=1, next_mass=None, closed=None, reach=0):
        self.k_min, self.k_max, self.nums, self.den, self.step = k_min, k_max, nums, den, step
        self.keep = k_max != INF and (k_max - k_min + 1) * den.bit_length() <= _KEEP_BITS
        self._next = next_mass  # (k, numerator at k) -> numerator at k + 1
        self._closed, self._reach = closed, reach

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
        if self._closed is not None:
            return self._closed(k)[1]
        return next(itertools.islice(self.numerators(), i, None))

    def cdf_reader(self):
        """A function k -> (f, a, b) with F(k) = a/b exactly, for any k, and
        f = a / b, which int / int true division rounds correctly.

        A finite table keeps its running numerator sums up to the furthest
        k read; from k_max on F is den/den, as every finite table sums to
        its denominator. An unbounded table walks its recurrence from the
        nearest k read below when that is at most `reach` steps back, and
        evaluates its closed form otherwise. What the reader holds lives as
        long as the reader.
        """
        k_min, k_max, den = self.k_min, self.k_max, self.den
        zero, one = (0.0, 0, den), (1.0, den, den)
        if k_max != INF:
            sums, cums = [], itertools.accumulate(self.numerators())

            def read(k):
                if k < k_min:
                    return zero
                if k >= k_max:
                    return one
                while len(sums) <= k - k_min:
                    sums.append(next(cums))
                a = sums[k - k_min]
                return a / den, a, den

            return read
        step, reach, read_ks, states = self.step, self._reach, [], {}  # k -> (cdf, mass, den)

        def read(k):
            if k < k_min:
                return zero
            state = states.get(k)
            if state is None:
                i = bisect.bisect_left(read_ks, k)
                if i and k - read_ks[i - 1] <= reach:
                    j = read_ks[i - 1]
                    acc, num, d = states[j]
                    for j in range(j, k):
                        num = self._next(j, num)
                        acc, d = acc * step + num, d * step
                    state = acc, num, d
                else:
                    state = self._closed(k)
                states[k] = state
                bisect.insort(read_ks, k)
            a, _, b = state
            return a / b, a, b

        return read

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


# --- the families -----------------------------------------------------------------


def _spec_class(cls):
    """A frozen dataclass whose hash is computed once per spec.

    Every mass_table lookup hashes the spec, and a Poisson-binomial hashes
    each of its up to 60 Fraction entries. The value is the dataclass's own.
    """
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = field_hash(self)
        return cached

    cls.__hash__ = __hash__
    return cls


class Family:
    """A family spec: its JSON name ``family``, ``support()``, ``mean()``,
    ``to_json()`` and ``from_json(obj)``, plus ``float_pmf(k)`` where its
    masses can be floats and ``build_table()`` where they can be exact.
    """

    family = ""

    def exactness(self) -> tuple:
        """Scalar-field exactness, part of every cache key.

        A float parameter can compare equal to a Fraction (0.5 == 1/2), so
        two specs that hash alike may still demand different arithmetic;
        caching by spec alone would hand a float table to an exact caller.
        """
        return ()

    def build_table(self) -> Optional[MassTable]:
        """The exact mass table, or None when the masses are floats."""
        return None

    def float_pmfs(self, lo: int):
        """Yield float_pmf(k) for k = lo, lo + 1, ..."""
        return map(self.float_pmf, itertools.count(lo))

    def float_masses(self, table: Optional[MassTable]):
        """Yield (k, float P({k})) from the support minimum upward."""
        if table is not None:
            for k, num in enumerate(table.numerators(), table.k_min):
                yield k, num / table.den if num else 0.0
            return
        bounds = self.support()
        for k in range(bounds.k_min, bounds.k_max + 1):
            yield k, self.float_pmf(k)


@_spec_class
class Binomial(Family):
    """Number of successes in n independent trials with success chance p."""

    n: int
    p: Scalar
    family = "binomial"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec(f"binomial n must be a positive integer, got {self.n!r}")
        if not 0 <= self.p <= 1:
            raise InvalidSpec(f"binomial p must lie in [0,1], got {self.p}")

    def support(self) -> SupportBounds:
        if self.p == 0:
            return SupportBounds(0, 0)
        if self.p == 1:
            return SupportBounds(self.n, self.n)
        return SupportBounds(0, self.n)

    def exactness(self) -> tuple:
        return (is_exact(self.p),)

    def build_table(self) -> Optional[MassTable]:
        if not is_exact(self.p):
            return None
        n, a, b = self.n, self.p.numerator, self.p.denominator
        c = b - a
        if a == 0 or c == 0:
            return MassTable(0 if a == 0 else n, 0 if a == 0 else n, [1], 1)
        # C(n, k) a^k c^(n-k) over b^n
        return MassTable(0, n, [c**n], b**n, 1, lambda k, m: m * (n - k) * a // ((k + 1) * c))

    def float_pmf(self, k: int) -> float:
        """Float mass, in log space to stay finite for large n."""
        n, p = self.n, float(self.p)
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

    def float_masses(self, table: Optional[MassTable]):
        return super().float_masses(None)  # log-space floats, also where an exact table exists

    def mean(self) -> Scalar:
        return self.n * self.p

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "p": scalar_to_json(self.p)}

    @classmethod
    def from_json(cls, obj: dict) -> "Binomial":
        return cls(_require_int(obj, "n"), parse_scalar(obj["p"]))


@_spec_class
class NegBinomial(Family):
    """Number of failures before the r-th success (Pascal distribution)."""

    r: Scalar
    p: Scalar
    family = "negbinomial"

    def __post_init__(self):
        if not 0 < self.r < INF:
            raise InvalidSpec(f"negbinomial r must be positive and finite, got {self.r}")
        if not 0 < self.p <= 1:
            raise InvalidSpec(f"negbinomial p must lie in (0,1], got {self.p}")

    @property
    def integer_r(self) -> bool:
        return isinstance(self.r, Fraction) and self.r.denominator == 1

    def support(self) -> SupportBounds:
        return SupportBounds(0, 0) if self.p == 1 else SupportBounds(0, INF)

    def exactness(self) -> tuple:
        return (is_exact(self.r), is_exact(self.p))

    def build_table(self) -> Optional[MassTable]:
        if not is_exact(self.p):
            return None
        if self.p == 1:
            return MassTable(0, 0, [1], 1)
        if not self.integer_r:
            return None
        r, a, b = int(self.r), self.p.numerator, self.p.denominator
        c, a_r = b - a, a**r  # C(r+k-1, k) a^r c^k over b^(r+k)

        def closed(k):
            # F(k) = P(Bin(r+k, p) >= r) = 1 - sum_{j<r} C(r+k, j) a^j c^(r+k-j) / b^(r+k),
            # the sum in homogeneous Horner form: O(r) operations, not O(k)
            n = r + k
            acc, coef, a_j = 0, 1, 1
            for j in range(r):
                acc = acc * c + coef * a_j
                coef, a_j = coef * (n - j) // (j + 1), a_j * a
            c_k, b_n = c**k, b**n
            return b_n - acc * c_k * c, math.comb(n - 1, k) * a_r * c_k, b_n

        return MassTable(0, INF, [a_r], b**r, b, lambda k, m: m * c * (r + k) // (k + 1), closed, r + 16)

    def float_pmf(self, k: int) -> float:
        """Float mass, for a float p or a non-integer r."""
        return next(self.float_pmfs(k))

    def float_pmfs(self, lo: int):
        """float_pmf(k) for k = lo, lo + 1, ...; an exact r carries C(r+k-1, k)
        from k - 1 to k, so a run of masses costs one product per k."""
        r, p = self.r, self.p
        for k in range(lo, 0):
            yield 0.0
        if p == 1:
            yield from (1.0 if k == 0 else 0.0 for k in itertools.count(max(lo, 0)))
            return
        if not isinstance(r, Fraction):
            for k in itertools.count(max(lo, 0)):
                coef = math.exp(math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1))
                yield coef * float(p) ** float(r) * float(1 - p) ** k
            return
        coef = Fraction(1)  # C(r+k-1, k) as an exact rising-factorial product
        for k in itertools.count(1):
            if k > lo:
                yield float(coef) * float(p) ** float(r) * float(1 - p) ** (k - 1)
            coef *= Fraction(r + k - 1, k)

    def float_masses(self, table: Optional[MassTable]):
        if self.p == 1:
            yield from super().float_masses(table)
            return
        rf, pf = float(self.r), float(self.p)
        mass = pf**rf
        k = 0
        exact = None  # once the float recurrence underflows, it stays at 0
        while True:
            if mass > 0:
                yield k, mass
            elif table is None:  # float_pmf from here on, its coefficient carried
                if exact is None:
                    exact = self.float_pmfs(k)
                yield k, next(exact)
            else:  # read the float of each exact mass from here on
                if exact is None:
                    exact, den = itertools.islice(table.numerators(), k, None), table.den_at(k)
                num = next(exact)
                yield k, num / den if num else 0.0
                den *= table.step
            mass = mass * (1 - pf) * (rf + k) / (k + 1)
            k += 1

    def mean(self) -> Scalar:
        return self.r * (1 - self.p) / self.p

    def to_json(self) -> dict:
        return {"family": self.family, "r": scalar_to_json(self.r), "p": scalar_to_json(self.p)}

    @classmethod
    def from_json(cls, obj: dict) -> "NegBinomial":
        return cls(parse_scalar(obj["r"]), parse_scalar(obj["p"]))


@_spec_class
class Hypergeometric(Family):
    """Black balls drawn when sampling n without replacement from B+W."""

    B: int
    W: int
    n: int
    family = "hypergeometric"

    def __post_init__(self):
        if self.B < 0 or self.W < 0:
            raise InvalidSpec("hypergeometric B and W must be nonnegative integers")
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec(f"hypergeometric n must be a positive integer, got {self.n!r}")
        if self.n > self.B + self.W:
            raise InvalidSpec(f"hypergeometric needs n <= B+W, got n={self.n}, B+W={self.B + self.W}")

    def support(self) -> SupportBounds:
        return SupportBounds(max(0, self.n - self.W), min(self.B, self.n))

    def build_table(self) -> MassTable:
        B, W, n = self.B, self.W, self.n
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

    def mean(self) -> Scalar:
        return Fraction(self.n * self.B, self.B + self.W)

    def to_json(self) -> dict:
        return {"family": self.family, "B": self.B, "W": self.W, "n": self.n}

    @classmethod
    def from_json(cls, obj: dict) -> "Hypergeometric":
        return cls(_require_int(obj, "B"), _require_int(obj, "W"), _require_int(obj, "n"))


@_spec_class
class Poisson(Family):
    lam: Scalar
    family = "poisson"

    def __post_init__(self):
        if not 0 < self.lam < INF:
            raise InvalidSpec(f"poisson lambda must be positive and finite, got {self.lam}")

    def support(self) -> SupportBounds:
        return SupportBounds(0, INF)

    def exactness(self) -> tuple:
        return (is_exact(self.lam),)

    def float_pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        lam = float(self.lam)
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))

    def float_masses(self, table: Optional[MassTable]):
        lam = float(self.lam)
        mass = math.exp(-lam)
        k = 0
        while True:
            yield k, mass if mass > 0 else self.float_pmf(k)
            mass = mass * lam / (k + 1)
            k += 1

    def mean(self) -> Scalar:
        return self.lam

    def to_json(self) -> dict:
        return {"family": self.family, "lambda": scalar_to_json(self.lam)}

    @classmethod
    def from_json(cls, obj: dict) -> "Poisson":
        return cls(parse_scalar(obj["lambda"]))


@_spec_class
class PoissonBinomial(Family):
    """Sum of independent Bernoulli(p_i) with p_vec sorted nonincreasing."""

    p_vec: tuple
    family = "poisson_binomial"

    def __post_init__(self):
        if not self.p_vec:
            raise InvalidSpec("poisson_binomial needs at least one entry")
        for p in self.p_vec:
            if not 0 <= p <= 1:
                raise InvalidSpec(f"poisson_binomial entries must lie in [0,1], got {p}")
        if any(a < b for a, b in zip(self.p_vec, self.p_vec[1:])):
            raise InvalidSpec("poisson_binomial p_vec must be sorted nonincreasing")

    def support(self) -> SupportBounds:
        ones = sum(1 for p in self.p_vec if p == 1)
        positive = sum(1 for p in self.p_vec if p > 0)
        return SupportBounds(ones, positive)

    def exactness(self) -> tuple:
        return tuple(is_exact(p) for p in self.p_vec)

    def build_table(self) -> Optional[MassTable]:
        if not all(is_exact(p) for p in self.p_vec):
            return None
        poly, den = [1], 1  # coefficients of prod (b_i - a_i + a_i x)
        for p in self.p_vec:
            a, b = p.numerator, p.denominator
            c = b - a
            nxt = [poly[0] * c]
            for j in range(1, len(poly)):
                nxt.append(poly[j] * c + poly[j - 1] * a)
            nxt.append(poly[-1] * a)
            poly, den = nxt, den * b
        bounds = self.support()
        return MassTable(bounds.k_min, bounds.k_max, poly[bounds.k_min : bounds.k_max + 1], den)

    def float_pmf(self, k: int) -> float:
        table = _float_poisson_binomial_table(self, self.exactness())
        return table[k] if 0 <= k < len(table) else 0.0

    def mean(self) -> Scalar:
        return sum(self.p_vec, Fraction(0))

    def to_json(self) -> dict:
        return {"family": self.family, "p": [scalar_to_json(p) for p in self.p_vec]}

    @classmethod
    def from_json(cls, obj: dict) -> "PoissonBinomial":
        p_vec = obj["p"]
        if not isinstance(p_vec, list):
            raise InvalidSpec(f"poisson_binomial field 'p' must be a list, got {p_vec!r}")
        return cls(tuple(parse_scalar(p) for p in p_vec))


DistributionSpec = Union[Binomial, NegBinomial, Hypergeometric, Poisson, PoissonBinomial]

FAMILIES = {cls.family: cls for cls in (Binomial, NegBinomial, Hypergeometric, Poisson, PoissonBinomial)}


def support(spec: DistributionSpec) -> SupportBounds:
    """Minimal and maximal k with positive mass (inf when unbounded)."""
    return spec.support()


def joint_support(P: DistributionSpec, Q: DistributionSpec) -> SupportBounds:
    """Bounds of {k : P({k}) + Q({k}) > 0}."""
    sp, sq = P.support(), Q.support()
    return SupportBounds(min(sp.k_min, sq.k_min), max(sp.k_max, sq.k_max))


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
    key = (spec, spec.exactness())
    table = _TABLES.get(key, _MISSING)
    if table is not _MISSING:
        return table
    table = _TABLES[key] = spec.build_table()
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
        return list(_float_poisson_binomial_table(spec, spec.exactness()))
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
    return spec.float_pmf(k)


def _finite_cdf_table(spec: DistributionSpec) -> tuple:
    return _finite_cdf_table_cached(spec, spec.exactness())


@lru_cache(maxsize=4096)
def _finite_cdf_table_cached(spec: DistributionSpec, tag: tuple) -> tuple:
    """Cumulative masses F(k_min), ..., F(k_max) for a finite support."""
    table = mass_table(spec)
    if table is not None:
        return tuple(Fraction(c, table.den) for c in itertools.accumulate(table.numerators()))
    bounds = spec.support()
    acc = None
    out = []
    for k in range(bounds.k_min, bounds.k_max + 1):
        mass = pmf(spec, k)
        acc = mass if acc is None else acc + mass
        out.append(acc)
    return tuple(out)


def cdf(spec: DistributionSpec, k: int) -> Scalar:
    """P({0,...,k}); exactness inherited from pmf."""
    bounds = spec.support()
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
        _, a, b = table.cdf_reader()(k)
        return Fraction(a, b)
    return zero_like + sum(pmf(spec, j) for j in range(bounds.k_min, k + 1))


def survival(spec: DistributionSpec, k: int) -> Scalar:
    """P({k, k+1, ...}) = 1 - cdf(k-1)."""
    bounds = spec.support()
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
    return spec.mean()


def mass_iter(spec: DistributionSpec, *, prefer_exact: bool = True):
    """Yield (k, P({k})) from the support minimum upward.

    Exact specs read their mass table. With prefer_exact=False every mass
    is a float from a multiplicative recurrence (or the float pmf), which
    keeps big-rational growth out of tail searches.
    """
    table = mass_table(spec)
    if table is not None and prefer_exact:
        for k, num in enumerate(table.numerators(), table.k_min):
            yield k, Fraction(num, table.den_at(k)) if num else Fraction(0)
        return
    yield from spec.float_masses(table)


def float_cdfs(spec: DistributionSpec, lo: int):
    """Yield the running float sum of the spec's float masses (mass_iter with
    prefer_exact=False, in its order) at k = lo, lo + 1, ..., where lo is at
    most the support minimum; past a finite support the sum stays put."""
    masses = map(operator.itemgetter(1), spec.float_masses(mass_table(spec)))
    zeros = itertools.repeat(0.0, spec.support().k_min - lo)
    return itertools.accumulate(itertools.chain(zeros, masses, itertools.repeat(0.0)))


def tail_cap(P: DistributionSpec, Q: DistributionSpec, epsilon: float = 1e-12, hard_cap: int = 10**6) -> int:
    """Smallest k with S_P(k) + S_Q(k) < epsilon, capped at hard_cap."""
    js = joint_support(P, Q)
    if js.finite:
        return min(js.k_max, hard_cap)
    for k, fp, fq in zip(range(js.k_min, hard_cap), float_cdfs(P, js.k_min), float_cdfs(Q, js.k_min)):
        if (1.0 - fp) + (1.0 - fq) < epsilon:
            return k + 1
    return hard_cap


def spec_to_json(spec: DistributionSpec) -> dict:
    return spec.to_json()


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
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise InvalidSpec(f"unknown family {family!r}")
    try:
        return cls.from_json(obj)
    except KeyError as exc:
        raise InvalidSpec(f"missing field {exc} for family {family!r}") from exc
