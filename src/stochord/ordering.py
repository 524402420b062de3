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
from .likelihood import HmlrCertificate, has_closed_ratio, hmlr_criterion
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
    left = _check(
        "left_tail",
        pmf(P, k_lo) >= pmf(Q, k_lo),
        f"mass at joint minimum {k_lo}: {format_scalar(pmf(P, k_lo))} vs {format_scalar(pmf(Q, k_lo))}",
    )
    right = _check(
        "right_tail",
        pmf(P, k_hi) <= pmf(Q, k_hi),
        f"mass at joint maximum {k_hi}: {format_scalar(pmf(P, k_hi))} vs {format_scalar(pmf(Q, k_hi))}",
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


def decide_closed_form(P: DistributionSpec, Q: DistributionSpec) -> Optional[ClosedFormOutcome]:
    """Closed-form decision of P <= Q (stochastic order) where characterized.

    Returns None when no closed-form case applies (including hypergeometric
    pairs that satisfy neither applicability side condition); the outcome is
    exact ("holds" false really does rule the direction out).
    """
    if isinstance(P, Binomial) and isinstance(Q, Binomial):
        return _closed_form_binomial(P, Q)
    if isinstance(P, NegBinomial) and isinstance(Q, NegBinomial):
        return _closed_form_negbinomial(P, Q)
    if isinstance(P, Hypergeometric) and isinstance(Q, Hypergeometric):
        return _closed_form_hypergeometric(P, Q)
    if isinstance(P, Hypergeometric) and isinstance(Q, Binomial):
        return _closed_form_hyp_binomial(P, Q)
    if isinstance(P, Binomial) and isinstance(Q, Hypergeometric):
        return _closed_form_binomial_hyp(P, Q)
    if isinstance(P, Binomial) and isinstance(Q, Poisson):
        return _closed_form_binomial_poisson(P, Q)
    if isinstance(P, Poisson) and isinstance(Q, NegBinomial):
        return _closed_form_poisson_negbinomial(P, Q)
    return None


# --- Bernoulli-convolution criteria -------------------------------------------


@dataclass(frozen=True)
class BcSufficiency:
    head_products_ok: bool  # prefix products of p dominated by those of q
    tail_products_ok: bool  # suffix products of (1-p) dominate those of (1-q)


def _parse_bc_vector(vec) -> tuple:
    parsed = tuple(parse_scalar(p) for p in vec)
    spec = PoissonBinomial(parsed)  # validates range and nonincreasing order
    return spec.p_vec


def _pad(vec: tuple, length: int) -> tuple:
    zero = Fraction(0)
    return vec + (zero,) * (length - len(vec))


def bc_sufficient(p_vec, q_vec) -> BcSufficiency:
    """Product criteria sufficient for BC_p <= BC_q (stochastic order).

    Vectors of unequal length are zero-padded to a common length. Either
    outcome being true is sufficient; the two are not equivalent.
    """
    p = _parse_bc_vector(p_vec)
    q = _parse_bc_vector(q_vec)
    n = max(len(p), len(q))
    p, q = _pad(p, n), _pad(q, n)
    head = True
    prod_p = prod_q = Fraction(1)
    for j in range(n):
        prod_p, prod_q = prod_p * p[j], prod_q * q[j]
        if prod_p > prod_q:
            head = False
            break
    tail = True
    prod_p = prod_q = Fraction(1)
    for j in reversed(range(n)):
        prod_p, prod_q = prod_p * (1 - p[j]), prod_q * (1 - q[j])
        if prod_p < prod_q:
            tail = False
            break
    return BcSufficiency(head, tail)


def binomial_bc_criterion(q_vec, n: int, p, direction: str) -> bool:
    """Single extreme-mass characterization of ordering BC_q against a binomial.

    direction "bc_le_binomial" decides BC_q <= b_{n,p} via the mass at 0;
    "binomial_le_bc" decides b_{n,p} <= BC_q via the mass at n. Both are
    equivalences, not just sufficiency.
    """
    q = _parse_bc_vector(q_vec)
    if len(q) < n:
        q = _pad(q, n)
    if len(q) != n:
        raise LengthMismatch(f"q_vec has {len(q)} entries but the binomial has n={n}")
    p = parse_scalar(p)
    if not 0 < p < 1:
        raise InvalidSpec(f"p must lie strictly in (0,1), got {p}")
    if direction == "bc_le_binomial":
        bc_mass_at_zero = math.prod((1 - qj) for qj in q)
        return (1 - p) ** n <= bc_mass_at_zero
    if direction == "binomial_le_bc":
        bc_mass_at_top = math.prod(q)
        return p**n <= bc_mass_at_top
    raise ValueError(f"unknown direction {direction!r}")


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
    if isinstance(P, PoissonBinomial) and isinstance(Q, PoissonBinomial):
        fwd = bc_sufficient(P.p_vec, Q.p_vec)
        if fwd.head_products_ok or fwd.tail_products_ok:
            tag = "prefix_products" if fwd.head_products_ok else "suffix_products"
            return OrderingVerdict(Relation.LE_ST, BernoulliConvolutionCertificate(tag))
        bwd = bc_sufficient(Q.p_vec, P.p_vec)
        if bwd.head_products_ok or bwd.tail_products_ok:
            tag = "prefix_products" if bwd.head_products_ok else "suffix_products"
            return OrderingVerdict(Relation.GE_ST, BernoulliConvolutionCertificate(tag, reversed=True))
        return None
    bc, binom, bc_is_p = None, None, True
    if isinstance(P, PoissonBinomial) and isinstance(Q, Binomial):
        bc, binom, bc_is_p = P, Q, True
    elif isinstance(P, Binomial) and isinstance(Q, PoissonBinomial):
        bc, binom, bc_is_p = Q, P, False
    if bc is None or not 0 < binom.p < 1 or len(bc.p_vec) > binom.n:
        return None
    bc_le_b = binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "bc_le_binomial")
    b_le_bc = binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "binomial_le_bc")
    p_le_q = bc_le_b if bc_is_p else b_le_bc
    q_le_p = b_le_bc if bc_is_p else bc_le_b
    if p_le_q:
        tag = "mass_at_zero" if bc_is_p else "mass_at_top"
        return OrderingVerdict(Relation.LE_ST, BernoulliConvolutionCertificate(tag))
    if q_le_p:
        tag = "mass_at_top" if bc_is_p else "mass_at_zero"
        return OrderingVerdict(Relation.GE_ST, BernoulliConvolutionCertificate(tag, reversed=True))
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
    if fwd is None and shape_sound:
        try:
            decision = hmlr_criterion(P, Q)
            if decision.member:
                return OrderingVerdict(Relation.LE_ST, decision.certificate)
        except (UnboundedProfile, UnsupportedPair):
            pass
    if bwd is None and shape_sound:
        try:
            decision = hmlr_criterion(Q, P)
            if decision.member:
                return OrderingVerdict(Relation.GE_ST, decision.certificate)
        except (UnboundedProfile, UnsupportedPair):
            pass

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


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, ClosedFormCertificate):
        out = {
            "kind": "closed_form",
            "pair": cert.pair,
            "conditions": [
                {"name": c.name, "holds": c.holds, "detail": c.detail} for c in cert.conditions
            ],
        }
        if cert.reversed:
            out["reversed"] = True
        if cert.reverse_conditions:
            out["reverse_conditions"] = [
                {"name": c.name, "holds": c.holds, "detail": c.detail}
                for c in cert.reverse_conditions
            ]
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
