"""Command-line front end.

Exit codes: 0 for a definite answer (or a clean run), 1 when a coupling
produced domination violations or a verify suite failed, 2 for malformed
input or violated preconditions, 3 when the decision is Unknown.

The default seed is 1729; the STOCHORD_SEED environment variable overrides
it and --seed overrides both. Identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import couplings as cpl
from . import suites as suites_mod
from .distributions import (
    Binomial,
    DistributionSpec,
    Hypergeometric,
    NegBinomial,
    Poisson,
    PoissonBinomial,
    joint_support,
    spec_from_json,
    spec_to_json,
)
from .errors import DominationError, InvalidSpec, StochordError
from .exact import format_scalar
from .likelihood import likelihood_profile, tail_conditions
from .oracle import Exact, OraclePolicy, Relation, crossing_points, dominance
from .ordering import (
    BernoulliConvolutionCertificate,
    ClosedFormCertificate,
    OracleCertificate,
    bc_sufficient,
    binomial_bc_criterion,
    decide,
    verdict_to_json,
)
from .streams import DEFAULT_SEED

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


def _parse_spec(text: str) -> DistributionSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"not valid JSON: {exc}") from exc
    return spec_from_json(payload)


def _default_seed() -> int:
    env = os.environ.get("STOCHORD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidSpec(f"STOCHORD_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _policy(args) -> OraclePolicy:
    return OraclePolicy(k_cap=args.k_cap, epsilon=args.epsilon)


def _emit(args, text: str):
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decide(args) -> int:
    P = _parse_spec(args.spec_p)
    Q = _parse_spec(args.spec_q)
    verdict = decide(P, Q, _policy(args))
    _emit(args, json.dumps(verdict_to_json(verdict), sort_keys=True) + "\n")
    return EXIT_UNKNOWN if verdict.relation == Relation.UNKNOWN else EXIT_OK


def _cmd_oracle(args) -> int:
    P = _parse_spec(args.spec_p)
    Q = _parse_spec(args.spec_q)
    report = dominance(P, Q, _policy(args))
    payload = {
        "relation": report.relation.value,
        "crossings": list(report.crossings),
        "mode": "exact"
        if isinstance(report.mode, Exact)
        else {
            "k_cap": report.mode.k_cap,
            "tail_bound": report.mode.tail_bound,
            "certified": report.mode.certified,
        },
    }
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_UNKNOWN if report.relation == Relation.UNKNOWN else EXIT_OK


def _describe_certificate(cert) -> list:
    lines = []
    if isinstance(cert, ClosedFormCertificate):
        direction = " (applied to the reversed pair)" if cert.reversed else ""
        lines.append(f"certificate: closed-form tail characterization [{cert.pair}]{direction}")
        for cond in cert.conditions:
            lines.append(f"  {cond.name}: {'holds' if cond.holds else 'fails'} - {cond.detail}")
        for cond in cert.reverse_conditions:
            lines.append(
                f"  reverse {cond.name}: {'holds' if cond.holds else 'fails'} - {cond.detail}"
            )
    elif isinstance(cert, OracleCertificate):
        lines.append(f"certificate: oracle ({cert.kind})")
        if cert.kind == "truncated":
            lines.append(
                f"  k_cap = {cert.k_cap}, tail bound = {cert.tail_bound:.3g}, "
                f"analytically certified tail: {cert.certified}"
            )
        if cert.crossings:
            lines.append(f"  cdf sign changes at {list(cert.crossings)}")
        if cert.detail:
            lines.append(f"  note: {cert.detail}")
    elif isinstance(cert, BernoulliConvolutionCertificate):
        direction = " (reversed pair)" if cert.reversed else ""
        lines.append(f"certificate: Bernoulli-convolution criterion [{cert.criterion}]{direction}")
    else:  # half-monotone certificate
        lines.append("certificate: half-monotone likelihood ratio with tail conditions")
        lines.append(
            f"  shape = {cert.shape.value}, turning index = {cert.turning_index}, "
            f"lambda at support minimum = {format_scalar(cert.left_value)}, "
            f"right tail value = {format_scalar(cert.right_value)}"
        )
    return lines


def _cmd_explain(args) -> int:
    P = _parse_spec(args.spec_p)
    Q = _parse_spec(args.spec_q)
    verdict = decide(P, Q, _policy(args))
    lines = [
        f"P: {json.dumps(spec_to_json(P))}",
        f"Q: {json.dumps(spec_to_json(Q))}",
        f"relation: {verdict.relation.value}",
    ]
    lines.extend(_describe_certificate(verdict.certificate))
    if verdict.witnesses is not None:
        lines.append(
            f"witnesses: survival of P below Q at k = {verdict.witnesses.k_minus}, "
            f"above at k = {verdict.witnesses.k_plus}"
        )
    try:
        tails = tail_conditions(P, Q)
        lines.append(
            "tail conditions: "
            f"left value {format_scalar(tails.left_value)} "
            f"({'holds' if tails.left_holds else 'fails'}), "
            f"right value {format_scalar(tails.right_value)} "
            f"({'holds' if tails.right_holds else 'fails'})"
        )
    except StochordError:
        pass
    try:
        profile = likelihood_profile(P, Q, args.k_cap)
        lines.append(
            f"likelihood profile: shape = {profile.shape.value}, "
            f"turning index = {profile.turning_index}"
            + (" (values truncated)" if profile.capped else "")
        )
        shown = 0
        for k in sorted(profile.values):
            if shown >= args.profile_rows:
                lines.append(f"  ... ({len(profile.values) - shown} more values)")
                break
            lines.append(f"  lambda({k}) = {format_scalar(profile.values[k])}")
            shown += 1
    except StochordError as exc:
        lines.append(f"likelihood profile: unavailable ({exc})")
    if joint_support(P, Q).finite:
        lines.append(f"cdf crossings: {crossing_points(P, Q)}")
    if isinstance(P, PoissonBinomial) and isinstance(Q, PoissonBinomial):
        fwd = bc_sufficient(P.p_vec, Q.p_vec)
        bwd = bc_sufficient(Q.p_vec, P.p_vec)
        lines.append(
            "Bernoulli-convolution products: "
            f"P<=Q prefix {fwd.head_products_ok}, suffix {fwd.tail_products_ok}; "
            f"Q<=P prefix {bwd.head_products_ok}, suffix {bwd.tail_products_ok}"
        )
    bc_pair = None
    if isinstance(P, PoissonBinomial) and isinstance(Q, Binomial):
        bc_pair = (P, Q, True)
    elif isinstance(P, Binomial) and isinstance(Q, PoissonBinomial):
        bc_pair = (Q, P, False)
    if bc_pair is not None:
        bc, binom, bc_first = bc_pair
        if 0 < binom.p < 1 and len(bc.p_vec) <= binom.n:
            le = binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "bc_le_binomial")
            ge = binomial_bc_criterion(bc.p_vec, binom.n, binom.p, "binomial_le_bc")
            lines.append(
                f"extreme-mass criteria: convolution <= binomial: {le}; "
                f"binomial <= convolution: {ge}"
            )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_UNKNOWN if verdict.relation == Relation.UNKNOWN else EXIT_OK


def _sampler_for(method: str, P, Q, seed: int, count: int, trace: bool):
    if method == "explicit":
        if not (isinstance(P, Binomial) and isinstance(Q, Binomial)):
            raise InvalidSpec("method 'explicit' needs two binomial specs")
        return cpl.binomial_explicit_coupling(P.n, P.p, Q.n, Q.p, seed, count, trace)
    if method == "occupancy":
        if not (isinstance(P, Binomial) and isinstance(Q, Binomial)):
            raise InvalidSpec("method 'occupancy' needs two binomial specs")
        return cpl.occupancy_coupling(P.n, P.p, Q.n, Q.p, seed, count, trace)
    if method == "levy":
        if not (isinstance(P, NegBinomial) and isinstance(Q, NegBinomial)):
            raise InvalidSpec("method 'levy' needs two negbinomial specs")
        return cpl.levy_coupling(P.r, P.p, Q.r, Q.p, seed, count, trace)
    if method == "poissonize":
        if not (isinstance(P, Binomial) and isinstance(Q, Poisson)):
            raise InvalidSpec("method 'poissonize' needs a binomial and a poisson spec")
        return cpl.binom_poisson_coupling(P.n, P.p, Q.lam, seed, count, trace)
    if method == "quantile":
        return cpl.quantile_coupling(P, Q, seed, count, trace)
    raise InvalidSpec(f"unknown method {method!r}")


def _cmd_couple(args) -> int:
    P = _parse_spec(args.spec_p)
    Q = _parse_spec(args.spec_q)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        samples = _sampler_for(args.method, P, Q, seed, args.samples, args.trace)
    except DominationError as exc:
        sys.stderr.write(f"domination violated: {exc} (x1={exc.x1}, x2={exc.x2}, trace={exc.trace})\n")
        return EXIT_VIOLATION
    report = cpl.run_harness(samples, P, Q)
    lines = []
    for i, sample in enumerate(samples):
        row = {"i": i, "x1": sample.x1, "x2": sample.x2}
        if args.trace and sample.trace is not None:
            row["trace"] = sample.trace
        lines.append(json.dumps(row))
    footer = {
        "violations": report.violations,
        "chi2_p_x1": report.p_value_x1,
        "chi2_p_x2": report.p_value_x2,
        "n": report.n_samples,
        "seed": seed,
        "method": args.method,
    }
    lines.append(json.dumps(footer, sort_keys=True))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = suites_mod.run_suite(args.suite)
    except KeyError:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; available: {', '.join(suites_mod.available_suites())}\n"
        )
        return EXIT_INPUT
    lines = []
    for check in results:
        lines.append(
            json.dumps(
                {"check": check.name, "pass": check.passed, "detail": check.detail},
                sort_keys=True,
            )
        )
    passed = sum(1 for c in results if c.passed)
    lines.append(json.dumps({"suite": args.suite, "passed": passed, "total": len(results)}))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if passed == len(results) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochord",
        description="Decide stochastic and likelihood-ratio ordering of classical "
        "discrete distributions, sample dominating couplings, and run verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("spec_p", help='JSON spec, e.g. {"family":"binomial","n":18,"p":"1/2"}')
        p.add_argument("spec_q", help='JSON spec, e.g. {"family":"hypergeometric","B":21,"W":23,"n":22}')
        p.add_argument("--k-cap", type=int, default=None, help="truncation cap for unbounded supports")
        p.add_argument("--epsilon", type=float, default=1e-12, help="tail mass bound for truncated verdicts")
        p.add_argument("--output", default="-", help="output path (default stdout)")

    p_decide = sub.add_parser("decide", help="print the ordering verdict as JSON")
    add_pair(p_decide)
    p_decide.set_defaults(func=_cmd_decide)

    p_explain = sub.add_parser("explain", help="human-readable report of the decision")
    add_pair(p_explain)
    p_explain.add_argument("--profile-rows", type=int, default=25, help="profile rows to print")
    p_explain.set_defaults(func=_cmd_explain)

    p_oracle = sub.add_parser("oracle", help="raw survival-comparison report")
    add_pair(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_couple = sub.add_parser("couple", help="draw coupled samples as JSON lines")
    p_couple.add_argument("spec_p")
    p_couple.add_argument("spec_q")
    p_couple.add_argument(
        "--method",
        required=True,
        choices=["explicit", "levy", "occupancy", "poissonize", "quantile"],
    )
    p_couple.add_argument("--samples", type=int, default=1000)
    p_couple.add_argument("--seed", type=int, default=None, help=f"default {DEFAULT_SEED} (or STOCHORD_SEED)")
    p_couple.add_argument("--trace", action="store_true", help="attach construction traces")
    p_couple.add_argument("--output", default="-")
    p_couple.set_defaults(func=_cmd_couple)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument(
        "--suite", required=True, help=f"one of: {', '.join(suites_mod.available_suites())}"
    )
    p_verify.add_argument("--output", default="-")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StochordError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
