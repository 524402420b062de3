"""Independent correctness gate for decide verdicts.

Stdlib only, and sharing no code with stochord. Each law is rebuilt from
its JSON spec in exact arithmetic: finite laws as integer mass numerators
over one common denominator, built from the closed-form consecutive ratios
(binomial, hypergeometric) or the defining convolution (Poisson-binomial).
Poisson cdfs carry e^-lambda as a rational enclosure from an 80-digit
decimal exp, so their comparisons are exact unless two cdfs agree to ~75
digits, which reports as unresolved.
"""

from __future__ import annotations

import decimal
import json
import math
from fractions import Fraction

EXP_DIGITS = 80


class FiniteLaw:
    """Cumulative mass numerators prefix[k - k_min] over the denominator den."""

    def __init__(self, k_min: int, nums: list, den: int):
        self.k_min = k_min
        self.k_max = k_min + len(nums) - 1
        self.den = den
        self.prefix = []
        acc = 0
        for num in nums:
            acc += num
            self.prefix.append(acc)
        if acc != den:
            raise ValueError("masses do not sum to one")

    def cdf_num(self, k: int) -> int:
        """den * F(k)."""
        if k < self.k_min:
            return 0
        return self.prefix[min(k, self.k_max) - self.k_min]

    def cdf(self, k: int):
        value = Fraction(self.cdf_num(k), self.den)
        return value, value


def binomial_law(n: int, p: Fraction) -> FiniteLaw:
    a, b = p.numerator, p.denominator
    if a == 0:
        return FiniteLaw(0, [1], 1)
    if a == b:
        return FiniteLaw(n, [1], 1)
    num = (b - a) ** n  # b^n P(0)
    nums = [num]
    for k in range(n):  # P(k+1)/P(k) = (n-k) p / ((k+1)(1-p))
        num = num * (n - k) * a // ((k + 1) * (b - a))
        nums.append(num)
    return FiniteLaw(0, nums, b**n)


def hypergeometric_law(B: int, W: int, n: int) -> FiniteLaw:
    k_min, k_max = max(0, n - W), min(B, n)
    num = math.comb(B, k_min) * math.comb(W, n - k_min)
    nums = [num]
    for k in range(k_min, k_max):  # P(k+1)/P(k) = (B-k)(n-k) / ((k+1)(W-n+k+1))
        num = num * (B - k) * (n - k) // ((k + 1) * (W - n + k + 1))
        nums.append(num)
    return FiniteLaw(k_min, nums, math.comb(B + W, n))


def poisson_binomial_law(probs: list) -> FiniteLaw:
    nums, den = [1], 1
    for p in probs:
        a, b = p.numerator, p.denominator
        nxt = [0] * (len(nums) + 1)
        for j, num in enumerate(nums):
            nxt[j] += num * (b - a)
            nxt[j + 1] += num * a
        nums, den = nxt, den * b
    k_min = next(k for k, num in enumerate(nums) if num)
    k_max = max(k for k, num in enumerate(nums) if num)
    return FiniteLaw(k_min, nums[k_min : k_max + 1], den)


class NegBinomialLaw:
    """Failures before the r-th success, r a positive integer, p rational."""

    k_min = 0
    k_max = math.inf

    def __init__(self, r: int, p: Fraction):
        self.r, self.p = r, p

    def cdf(self, k: int):
        if k < 0:
            return Fraction(0), Fraction(0)
        a, b, r = self.p.numerator, self.p.denominator, self.r
        # F(k) = a^r / b^(r+k) * sum_j C(r+j-1, j) (b-a)^j b^(k-j), summed by Horner
        term, acc = 1, 1
        for j in range(1, k + 1):
            term = term * (b - a) * (r + j - 1) // j
            acc = acc * b + term
        value = Fraction(a**r * acc, b ** (r + k))
        return value, value


class PoissonLaw:
    k_min = 0
    k_max = math.inf

    def __init__(self, lam: Fraction):
        self.lam = lam
        with decimal.localcontext() as ctx:
            ctx.prec = EXP_DIGITS
            lam_dec = decimal.Decimal(lam.numerator) / decimal.Decimal(lam.denominator)
            approx = (-lam_dec).exp()
        # exp rounds correctly; the argument's own rounding (one ulp) moves the
        # result by up to lam ulps, so widen by lam + 10 ulps
        slack = Fraction(math.ceil(lam) + 10, 10 ** (EXP_DIGITS - 1))
        self.exp_lo = Fraction(approx) * (1 - slack)
        self.exp_hi = Fraction(approx) * (1 + slack)

    def cdf(self, k: int):
        if k < 0:
            return Fraction(0), Fraction(0)
        a, b = self.lam.numerator, self.lam.denominator
        # sum_{j<=k} lam^j/j! by Horner, 1 + lam/j * (...), over the denominator b^k k!
        num, den = 1, 1
        for j in range(k, 0, -1):
            num, den = b * j * den + a * num, b * j * den
        series = Fraction(num, den)
        return self.exp_lo * series, self.exp_hi * series


def law(spec: dict):
    family = spec["family"]
    if family == "binomial":
        return binomial_law(spec["n"], Fraction(spec["p"]))
    if family == "hypergeometric":
        return hypergeometric_law(spec["B"], spec["W"], spec["n"])
    if family == "poisson_binomial":
        return poisson_binomial_law([Fraction(p) for p in spec["p"]])
    if family == "negbinomial":
        r = Fraction(spec["r"])
        if r.denominator != 1:
            raise ValueError("the checker needs an integer r")
        return NegBinomialLaw(int(r), Fraction(spec["p"]))
    if family == "poisson":
        return PoissonLaw(Fraction(spec["lambda"]))
    raise ValueError(f"unknown family {family!r}")


def compare_cdf(P, Q, k: int):
    """Sign of F_P(k) - F_Q(k), or None when the enclosures overlap."""
    p_lo, p_hi = P.cdf(k)
    q_lo, q_hi = Q.cdf(k)
    if p_lo > q_hi:
        return 1
    if p_hi < q_lo:
        return -1
    if p_lo == p_hi == q_lo == q_hi:
        return 0
    return None


def scan_finite(P: FiniteLaw, Q: FiniteLaw):
    """(relation, crossings) of two finite laws by an exact cdf scan.

    A crossing is the first k of each new strict sign of F_P - F_Q.
    """
    saw_above = saw_below = False
    prev, crossings = 0, []
    for k in range(min(P.k_min, Q.k_min), max(P.k_max, Q.k_max) + 1):
        lhs, rhs = P.cdf_num(k) * Q.den, Q.cdf_num(k) * P.den
        sign = (lhs > rhs) - (lhs < rhs)
        if sign:
            if prev and sign != prev:
                crossings.append(k)
            prev = sign
            saw_above |= sign > 0
            saw_below |= sign < 0
    if saw_above and saw_below:
        return "incomparable", tuple(crossings)
    if saw_above:
        return "le_st", ()
    if saw_below:
        return "ge_st", ()
    return "equal", ()


def cached_law(spec: dict, cache: dict):
    key = json.dumps(spec, sort_keys=True)
    if key not in cache:
        cache[key] = law(spec)
    return cache[key]


def check_verdict(P_spec: dict, Q_spec: dict, relation: str, witnesses, cache=None) -> list:
    """Reasons the verdict is wrong; empty when it passes.

    Finite pairs must match the exact scan. Every incomparable verdict needs
    witnesses (k_minus, k_plus) with S_P(k_minus) < S_Q(k_minus) and
    S_P(k_plus) > S_Q(k_plus), i.e. F_P > F_Q at k_minus - 1 and F_P < F_Q
    at k_plus - 1.
    """
    cache = {} if cache is None else cache
    P, Q = cached_law(P_spec, cache), cached_law(Q_spec, cache)
    reasons = []
    if isinstance(P, FiniteLaw) and isinstance(Q, FiniteLaw):
        expected, _ = scan_finite(P, Q)
        if relation != expected:
            reasons.append(f"relation {relation}, exact scan gives {expected}")
    if relation == "incomparable":
        if witnesses is None:
            reasons.append("incomparable verdict without witnesses")
        else:
            k_minus, k_plus = witnesses
            if compare_cdf(P, Q, k_minus - 1) != 1:
                reasons.append(f"k_minus={k_minus} does not verify")
            if compare_cdf(P, Q, k_plus - 1) != -1:
                reasons.append(f"k_plus={k_plus} does not verify")
    return reasons
