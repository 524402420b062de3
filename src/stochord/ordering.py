"""Stochastic-order decisions with machine-checkable certificates.

The decision pipeline tries, in order: exact equality, the closed-form
extreme-tail characterizations for the supported family pairs (necessary
and sufficient where they apply), the Bernoulli-convolution criteria, the
half-monotone-likelihood-ratio sufficiency engine, and finally the
survival-scan oracle. Every verdict carries the certificate of the stage
that produced it; incomparable verdicts carry exact witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import oracle as oracle_mod
from .distributions import (
    Binomial,
    DistributionSpec,
    Hypergeometric,
    NegBinomial,
    Poisson,
    PoissonBinomial,
    joint_support,
    mass_table,
    pmf,
    support,
)
from .errors import (
    InconsistentStages,
    InvalidSpec,
    LengthMismatch,
    UnboundedProfile,
    UnsupportedPair,
)
from .exact import format_scalar, parse_scalar, scalar_pow, scalar_to_json
from .likelihood import HmlrCertificate, has_closed_ratio, hmlr_criterion, tail_conditions
from .oracle import OraclePolicy, Relation


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    holds: bool
    detail: str


@dataclass(frozen=True)
class ClosedFormOutcome:
    """Result of the closed-form tail characterization for one direction."""

    pair: str
    holds: bool
    conditions: tuple


@dataclass(frozen=True)
class ClosedFormCertificate:
    pair: str
    conditions: tuple
    reversed: bool = False
    reverse_conditions: tuple = ()


@dataclass(frozen=True)
class OracleCertificate:
    kind: str  # "exact" or "truncated"
    crossings: tuple = ()
    k_cap: Optional[int] = None
    tail_bound: Optional[float] = None
    certified: bool = False
    detail: str = ""


@dataclass(frozen=True)
class BernoulliConvolutionCertificate:
    criterion: str
    reversed: bool = False


Certificate = Union[
    ClosedFormCertificate, HmlrCertificate, OracleCertificate, BernoulliConvolutionCertificate
]


@dataclass(frozen=True)
class Witnesses:
    k_minus: int  # S_P(k_minus) < S_Q(k_minus)
    k_plus: int  # S_P(k_plus) > S_Q(k_plus)


@dataclass(frozen=True)
class OrderingVerdict:
    relation: Relation
    certificate: Certificate
    witnesses: Optional[Witnesses] = None


# --- closed-form tail characterizations ---------------------------------------


def _check(name: str, holds, detail: str) -> ConditionCheck:
    return ConditionCheck(name, bool(holds), detail)


def _closed_form_binomial(P: Binomial, Q: Binomial) -> ClosedFormOutcome:
    n1, p1, n2, p2 = P.n, P.p, Q.n, Q.p
    pair = "binomial_binomial"
    if p1 == 0:
        return ClosedFormOutcome(pair, True, (_check("left_tail", True, "P is a point mass at 0"),))
    if p2 == 0:
        return ClosedFormOutcome(
            pair, False, (_check("left_tail", False, "Q is a point mass at 0 but P is not"),)
        )
    if p2 == 1:
        holds = support(P).k_max <= n2
        return ClosedFormOutcome(
            pair, holds, (_check("right_tail", holds, f"Q is a point mass at {n2}"),)
        )
    if p1 == 1:
        return ClosedFormOutcome(
            pair, False, (_check("right_tail", False, f"P is a point mass at {n1}, Q is not degenerate"),)
        )
    left_lhs = (1 - p1) ** n1
    left_rhs = (1 - p2) ** n2
    left = _check(
        "left_tail",
        left_lhs >= left_rhs,
        f"(1-p1)^n1 = {format_scalar(left_lhs)} vs (1-p2)^n2 = {format_scalar(left_rhs)}",
    )
    right = _check("right_tail", n1 <= n2, f"n1 = {n1} vs n2 = {n2}")
    return ClosedFormOutcome(pair, left.holds and right.holds, (left, right))


def _closed_form_negbinomial(P: NegBinomial, Q: NegBinomial) -> ClosedFormOutcome:
    left_lhs = scalar_pow(P.p, P.r)
    left_rhs = scalar_pow(Q.p, Q.r)
    left = _check(
        "left_tail",
        left_lhs >= left_rhs,
        f"p1^r1 = {format_scalar(left_lhs)} vs p2^r2 = {format_scalar(left_rhs)}",
    )
    right = _check(
        "right_tail",
        P.p >= Q.p,
        f"success probability dominates: p1 = {format_scalar(P.p)} vs p2 = {format_scalar(Q.p)}",
    )
    return ClosedFormOutcome("negbinomial_negbinomial", left.holds and right.holds, (left, right))


def _closed_form_hypergeometric(P: Hypergeometric, Q: Hypergeometric) -> Optional[ClosedFormOutcome]:
    size_ok = Q.B + Q.W >= P.B + P.W
    overlap = {P.n, P.B, Q.n - Q.W - 1} & {Q.n, Q.B, P.n - P.W - 1}
    if not size_ok and not overlap:
        return None  # characterization not applicable; fall through to the oracle
    k_lo = min(max(0, P.n - P.W), max(0, Q.n - Q.W))
    k_hi = max(min(P.n, P.B), min(Q.n, Q.B))
    p_lo, q_lo, p_hi, q_hi = pmf(P, k_lo), pmf(Q, k_lo), pmf(P, k_hi), pmf(Q, k_hi)
    left = _check(
        "left_tail",
        p_lo >= q_lo,
        f"mass at joint minimum {k_lo}: {format_scalar(p_lo)} vs {format_scalar(q_lo)}",
    )
    right = _check(
        "right_tail",
        p_hi <= q_hi,
        f"mass at joint maximum {k_hi}: {format_scalar(p_hi)} vs {format_scalar(q_hi)}",
    )
    return ClosedFormOutcome(
        "hypergeometric_hypergeometric", left.holds and right.holds, (left, right)
    )


def _closed_form_hyp_binomial(P: Hypergeometric, Q: Binomial) -> ClosedFormOutcome:
    left_lhs = Fraction(math.comb(P.W, P.n), math.comb(P.B + P.W, P.n))
    left_rhs = (1 - Q.p) ** Q.n
    left = _check(
        "left_tail",
        left_lhs >= left_rhs,
        f"mass at 0: {format_scalar(left_lhs)} vs {format_scalar(left_rhs)}",
    )
    right = _check(
        "right_tail",
        min(P.n, P.B) <= Q.n,
        f"support maxima: {min(P.n, P.B)} vs {Q.n}",
    )
    return ClosedFormOutcome("hypergeometric_binomial", left.holds and right.holds, (left, right))


def _closed_form_binomial_hyp(P: Binomial, Q: Hypergeometric) -> Optional[ClosedFormOutcome]:
    if P.n != Q.n:
        return None  # only keyed on an equal sample-size parameter
    m = P.n
    right_lhs = scalar_pow(P.p, Fraction(m))
    right_rhs = Fraction(math.comb(Q.B, m), math.comb(Q.B + Q.W, m))
    right = _check(
        "right_tail",
        right_lhs <= right_rhs,
        f"mass at {m}: {format_scalar(right_lhs)} vs {format_scalar(right_rhs)}",
    )
    conditions = (right, _check("left_tail", right.holds, "implied by the right tail condition"))
    return ClosedFormOutcome("binomial_hypergeometric", right.holds, conditions)


def _closed_form_binomial_poisson(P: Binomial, Q: Poisson) -> ClosedFormOutcome:
    lam = float(Q.lam)
    if P.p == 1:
        holds = False
        detail = "P is a point mass; the Poisson mass at 0 is positive"
    else:
        holds = P.n * math.log1p(-float(P.p)) >= -lam
        detail = f"(1-p)^n = {(1 - float(P.p)) ** P.n:.6g} vs e^-lambda = {math.exp(-lam):.6g}"
    conditions = (
        _check("left_tail", holds, detail),
        _check("right_tail", True, "always holds: the ratio vanishes beyond n"),
    )
    return ClosedFormOutcome("binomial_poisson", holds, conditions)


def _closed_form_poisson_negbinomial(P: Poisson, Q: NegBinomial) -> ClosedFormOutcome:
    lam = float(P.lam)
    holds = -lam >= float(Q.r) * math.log(float(Q.p))
    conditions = (
        _check(
            "left_tail",
            holds,
            f"e^-lambda = {math.exp(-lam):.6g} vs p^r = {float(Q.p) ** float(Q.r):.6g}",
        ),
        _check("right_tail", True, "always holds: factorial decay beats geometric"),
    )
    return ClosedFormOutcome("poisson_negbinomial", holds, conditions)


# P's family, Q's family -> the closed-form decision of P <= Q for that pair
_CLOSED_FORMS = {
    (Binomial, Binomial): _closed_form_binomial,
    (NegBinomial, NegBinomial): _closed_form_negbinomial,
    (Hypergeometric, Hypergeometric): _closed_form_hypergeometric,
    (Hypergeometric, Binomial): _closed_form_hyp_binomial,
    (Binomial, Hypergeometric): _closed_form_binomial_hyp,
    (Binomial, Poisson): _closed_form_binomial_poisson,
    (Poisson, NegBinomial): _closed_form_poisson_negbinomial,
}


def decide_closed_form(P: DistributionSpec, Q: DistributionSpec) -> Optional[ClosedFormOutcome]:
    """Closed-form decision of P <= Q (stochastic order) where characterized.

    Returns None when no closed-form case applies (including hypergeometric
    pairs that satisfy neither applicability side condition); the outcome is
    exact ("holds" false really does rule the direction out).
    """
    form = _CLOSED_FORMS.get((type(P), type(Q)))
    return None if form is None else form(P, Q)


# --- Bernoulli-convolution criteria -------------------------------------------


@dataclass(frozen=True)
class BcSufficiency:
    head_products_ok: bool  # prefix products of p dominated by those of q
    tail_products_ok: bool  # suffix products of (1-p) dominate those of (1-q)


def _parse_bc_vector(vec) -> tuple:
    parsed = tuple(parse_scalar(p) for p in vec)
    spec = PoissonBinomial(parsed)  # validates range and nonincreasing order
    return spec.p_vec


def _ratios(vec: tuple, length: int) -> list:
    """Each entry as (numerator, denominator), zero-padded to a common length."""
    return [x.as_integer_ratio() for x in vec] + [(0, 1)] * (length - len(vec))


def _prefix_products_le(a, b) -> bool:
    """True when every prefix product of a is at most that of b, for
    entries given as (numerator, denominator) pairs."""
    num_a = den_a = num_b = den_b = 1
    for (x, dx), (y, dy) in zip(a, b):
        num_a, den_a, num_b, den_b = num_a * x, den_a * dx, num_b * y, den_b * dy
        if num_a * den_b > num_b * den_a:
            return False
    return True


def bc_sufficient(p_vec, q_vec) -> BcSufficiency:
    """Product criteria sufficient for BC_p <= BC_q (stochastic order).

    Vectors of unequal length are zero-padded to a common length. Either
    outcome being true is sufficient; the two are not equivalent.
    """
    p = _parse_bc_vector(p_vec)
    q = _parse_bc_vector(q_vec)
    n = max(len(p), len(q))
    p, q = _ratios(p, n), _ratios(q, n)
    head = _prefix_products_le(p, q)
    tail = _prefix_products_le([(d - x, d) for x, d in reversed(q)], [(d - x, d) for x, d in reversed(p)])
    return BcSufficiency(head, tail)


def binomial_bc_criterion(q_vec, n: int, p, direction: str) -> bool:
    """Single extreme-mass characterization of ordering BC_q against a binomial.

    direction "bc_le_binomial" decides BC_q <= b_{n,p} via the mass at 0;
    "binomial_le_bc" decides b_{n,p} <= BC_q via the mass at n. Both are
    equivalences, not just sufficiency. With p = a/b and q_j = a_j/b_j the
    masses compare in integers: (1-p)^n <= prod(1-q_j) is
    (b-a)^n prod(b_j) <= prod(b_j-a_j) b^n, and p^n <= prod(q_j) is
    a^n prod(b_j) <= prod(a_j) b^n (zero padding makes the top mass 0).
    """
    q = _parse_bc_vector(q_vec)
    if len(q) > n:
        raise LengthMismatch(f"q_vec has {len(q)} entries but the binomial has n={n}")
    p = parse_scalar(p)
    if not 0 < p < 1:
        raise InvalidSpec(f"p must lie strictly in (0,1), got {p}")
    a, b = p.as_integer_ratio()
    q = _ratios(q, n)
    dens = math.prod(d for _, d in q)
    if direction == "bc_le_binomial":
        return (b - a) ** n * dens <= math.prod(d - x for x, d in q) * b**n
    if direction == "binomial_le_bc":
        return a**n * dens <= math.prod(x for x, _ in q) * b**n
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class BcCriteria:
    """The Bernoulli-convolution criteria of one pair, as (name, holds) pairs.

    Each direction lists its criteria in order of preference; any that holds
    proves that direction. With exact=True each direction has one criterion,
    which characterizes it, so two failures rule out both directions.
    """

    forward: tuple  # criteria for P <= Q
    backward: tuple  # criteria for Q <= P
    exact: bool


def _product_criteria(P: PoissonBinomial, Q: PoissonBinomial) -> BcCriteria:
    def named(s: BcSufficiency) -> tuple:
        return (("prefix_products", s.head_products_ok), ("suffix_products", s.tail_products_ok))

    return BcCriteria(named(bc_sufficient(P.p_vec, Q.p_vec)), named(bc_sufficient(Q.p_vec, P.p_vec)), False)


def _extreme_mass_criteria(bc: PoissonBinomial, binom: Binomial, bc_is_p: bool) -> Optional[BcCriteria]:
    """The mass at 0 decides BC <= binomial and the mass at n the converse."""
    if not 0 < binom.p < 1 or len(bc.p_vec) > binom.n:
        return None
    below = (("mass_at_zero", binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "bc_le_binomial")),)
    above = (("mass_at_top", binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "binomial_le_bc")),)
    return BcCriteria(below, above, True) if bc_is_p else BcCriteria(above, below, True)


_BC_RULES = {
    (PoissonBinomial, PoissonBinomial): _product_criteria,
    (PoissonBinomial, Binomial): lambda P, Q: _extreme_mass_criteria(P, Q, True),
    (Binomial, PoissonBinomial): lambda P, Q: _extreme_mass_criteria(Q, P, False),
}


def bc_criteria(P: DistributionSpec, Q: DistributionSpec) -> Optional[BcCriteria]:
    """The Bernoulli-convolution criteria that apply to (P, Q), or None."""
    rule = _BC_RULES.get((type(P), type(Q)))
    return None if rule is None else rule(P, Q)


# --- the decision pipeline ------------------------------------------------------


def _specs_equal(P: DistributionSpec, Q: DistributionSpec) -> bool:
    if P == Q:
        return True
    bp, bq = support(P), support(Q)
    if bp.finite != bq.finite:
        return False
    if not bp.finite:
        return False  # distinct unbounded specs of our families never coincide
    if (bp.k_min, bp.k_max) != (bq.k_min, bq.k_max):
        return False
    tp, tq = mass_table(P), mass_table(Q)
    if tp is not None and tq is not None:
        dp, dq = tp.den, tq.den
        rows = zip(tp.row(bp.k_min, bp.k_max), tq.row(bp.k_min, bp.k_max))
        return all(a * dq == b * dp for a, b in rows)
    return all(pmf(P, k) == pmf(Q, k) for k in range(bp.k_min, bp.k_max + 1))


def _witnesses(P, Q, policy: OraclePolicy) -> Optional[Witnesses]:
    pair = oracle_mod.survival_witnesses(P, Q, policy.k_cap)
    if pair is None:
        return None
    return Witnesses(*pair)


def _bc_stage(P, Q, policy):
    """Exact or sufficient Bernoulli-convolution verdicts, None if silent."""
    criteria = bc_criteria(P, Q)
    if criteria is None:
        return None
    directions = ((Relation.LE_ST, criteria.forward, False), (Relation.GE_ST, criteria.backward, True))
    for relation, named, reverse in directions:
        tag = next((name for name, holds in named if holds), None)
        if tag is not None:
            return OrderingVerdict(relation, BernoulliConvolutionCertificate(tag, reversed=reverse))
    if not criteria.exact:
        return None
    return OrderingVerdict(
        Relation.INCOMPARABLE,
        BernoulliConvolutionCertificate("both_directions_fail"),
        _witnesses(P, Q, policy),
    )


def decide(
    P: DistributionSpec, Q: DistributionSpec, policy: OraclePolicy = OraclePolicy()
) -> OrderingVerdict:
    """Compose the full verdict for the pair (P, Q)."""
    if _specs_equal(P, Q):
        return OrderingVerdict(Relation.EQUAL, OracleCertificate("exact", detail="identical mass functions"))

    fwd = decide_closed_form(P, Q)
    if fwd is not None and fwd.holds:
        return OrderingVerdict(Relation.LE_ST, ClosedFormCertificate(fwd.pair, fwd.conditions))
    bwd = decide_closed_form(Q, P)
    if bwd is not None and bwd.holds:
        return OrderingVerdict(
            Relation.GE_ST, ClosedFormCertificate(bwd.pair, bwd.conditions, reversed=True)
        )
    if fwd is not None and bwd is not None:
        # both directions definitively ruled out by the characterization
        cert = ClosedFormCertificate(fwd.pair, fwd.conditions, reverse_conditions=bwd.conditions)
        return OrderingVerdict(Relation.INCOMPARABLE, cert, _witnesses(P, Q, policy))

    verdict = _bc_stage(P, Q, policy)
    if verdict is not None:
        return verdict

    # the sufficiency stage needs the true profile shape: a finite support
    # (full scan) or a closed-form consecutive ratio (cap-independent
    # classification); truncated shapes of other pairs prove nothing
    shape_sound = joint_support(P, Q).finite or has_closed_ratio(P, Q)
    if shape_sound:
        for ruled, A, B, relation in ((fwd, P, Q, Relation.LE_ST), (bwd, Q, P, Relation.GE_ST)):
            if ruled is not None:
                continue  # the closed form ruled this direction out
            try:
                # membership needs both O(1) tail conditions; only then is
                # the profile scan worth its cost
                tails = tail_conditions(A, B)
                if not (tails.left_holds and tails.right_holds):
                    continue
                decision = hmlr_criterion(A, B)
            except (UnboundedProfile, UnsupportedPair):
                continue
            if decision.member:
                return OrderingVerdict(relation, decision.certificate)

    report = oracle_mod.dominance(P, Q, policy)
    mode = report.mode
    if isinstance(mode, oracle_mod.Exact):
        cert = OracleCertificate("exact", report.crossings)
    else:
        cert = OracleCertificate(
            "truncated",
            report.crossings,
            k_cap=mode.k_cap,
            tail_bound=mode.tail_bound,
            certified=mode.certified,
            detail="" if report.relation != Relation.UNKNOWN else (
                f"tail mass {mode.tail_bound:.3g} above epsilon at k_cap={mode.k_cap}; "
                "no analytic tail certificate"
            ),
        )
    if (fwd is not None and not fwd.holds and report.relation == Relation.LE_ST) or (
        bwd is not None and not bwd.holds and report.relation == Relation.GE_ST
    ):
        raise InconsistentStages(
            f"closed form ruled out a direction the oracle confirmed for {P} vs {Q}"
        )
    witnesses = Witnesses(*report.witnesses) if report.witnesses is not None else None
    return OrderingVerdict(report.relation, cert, witnesses)


# --- JSON rendering -------------------------------------------------------------


def _conditions_to_json(conditions: tuple) -> list:
    return [{"name": c.name, "holds": c.holds, "detail": c.detail} for c in conditions]


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, ClosedFormCertificate):
        out = {"kind": "closed_form", "pair": cert.pair, "conditions": _conditions_to_json(cert.conditions)}
        if cert.reversed:
            out["reversed"] = True
        if cert.reverse_conditions:
            out["reverse_conditions"] = _conditions_to_json(cert.reverse_conditions)
        return out
    if isinstance(cert, HmlrCertificate):
        return {
            "kind": "hmlr",
            "shape": cert.shape.value,
            "turning_index": cert.turning_index,
            "left_value": scalar_to_json(cert.left_value),
            "right_value": scalar_to_json(cert.right_value),
        }
    if isinstance(cert, OracleCertificate):
        out = {"kind": f"oracle_{cert.kind}", "crossings": list(cert.crossings)}
        if cert.kind == "truncated":
            out.update(
                {"k_cap": cert.k_cap, "tail_bound": cert.tail_bound, "certified": cert.certified}
            )
        if cert.detail:
            out["detail"] = cert.detail
        return out
    if isinstance(cert, BernoulliConvolutionCertificate):
        out = {"kind": "bernoulli_convolution", "criterion": cert.criterion}
        if cert.reversed:
            out["reversed"] = True
        return out
    raise TypeError(f"unknown certificate {cert!r}")


def verdict_to_json(verdict: OrderingVerdict) -> dict:
    witnesses = None
    if verdict.witnesses is not None:
        witnesses = {"k_minus": verdict.witnesses.k_minus, "k_plus": verdict.witnesses.k_plus}
    return {
        "relation": verdict.relation.value,
        "certificate": certificate_to_json(verdict.certificate),
        "witnesses": witnesses,
    }
