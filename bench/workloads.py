"""Seeded input generation for the two benchmark workloads.

Stdlib only, and independent of stochord: every input is a JSON spec (the
form the CLI takes), so the program sees only the generated specs. Each
workload is a list of rounds. The shape of a round (families, size classes,
sampler methods) is a fixed schedule, and the seed draws every parameter
inside it, so two seeds exercise the same mix of stages at slightly
different parameters. That keeps the run-to-run spread of the medians small
while no two seeds share an input.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

FAMILIES = ("binomial", "negbinomial", "hypergeometric", "poisson", "poisson_binomial")
WORKLOADS = ("decide-scale", "couple")
METHODS = ("explicit", "occupancy", "levy", "poissonize", "quantile")

# couple: samples drawn per sampler call.
COUPLE_SAMPLES = 1500

PAPER_X1 = (
    {"family": "hypergeometric", "B": 400, "W": 509, "n": 500},
    {"family": "hypergeometric", "B": 310, "W": 710, "n": 700},
)
PAPER_X3 = (
    {"family": "hypergeometric", "B": 1200, "W": 1527, "n": 1500},
    {"family": "hypergeometric", "B": 930, "W": 2130, "n": 2100},
)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """A generator private to one round; string seeds hash stably (sha512)."""
    return random.Random(f"{workload}:{seed}:{index}")


# --- parameter helpers -----------------------------------------------------------


def decimal4(x: float) -> str:
    """A probability rounded to a 4-digit decimal string inside (0, 1)."""
    return f"{min(max(x, 0.0001), 0.9999):.4f}"


# --- decide-scale ----------------------------------------------------------------


def scale_spec(family: str, size: int, mean: float, rng: random.Random) -> dict:
    """A spec of about `size` support points (effective, if unbounded) and mean `mean`.

    Probabilities and rates are 4-digit decimals, kept exact by the parser.
    """
    if family == "binomial":
        n = size - 1
        return {"family": family, "n": n, "p": decimal4(mean / n)}
    if family == "hypergeometric":
        n = size - 1
        total = int(n * rng.uniform(1.9, 2.3))
        black = min(max(round(total * mean / n), 1), total - 1)
        return {"family": family, "B": black, "W": total - black, "n": n}
    if family == "poisson":
        return {"family": family, "lambda": f"{mean:.4f}"}
    if family == "negbinomial":
        # var = mean + mean^2/r; pick r so that mean + 6 sd stays near `size`
        sd = max((size - mean) / 6, 1.0)
        r = min(max(math.ceil(mean**2 / max(sd**2 - mean, mean)), 1), 400)
        r = max(1, r + rng.randint(-1, 1))
        return {"family": family, "r": r, "p": decimal4(r / (r + mean))}
    count = min(60, size - 1)
    avg = mean / count
    probs = sorted(
        (float(decimal4(avg * rng.uniform(0.5, 1.5))) for _ in range(count)), reverse=True
    )
    return {"family": family, "p": [f"{p:.4f}" for p in probs]}


# Every ordered family pair runs at every size in each round, so the pooled
# log-log slope measures growth within families rather than the cost gap
# between them, and the odd number of sizes keeps the median inside a size.
SCALE_SIZES = (100, 165, 275, 450, 700)
# The mean of a pair with a Poisson-binomial side, per size class: a <= 60-entry
# convolution must reach it. Each size class and family pair keeps a narrow
# parameter range, so a pair's stage and cost vary little from seed to seed,
# and the medians of two runs compare the same mix of work.
PB_MEANS = (10, 16, 22, 28, 34)


# Binomial vs Poisson at ~700 points (lambda ~ 180-200) raises ZeroDivisionError
# on every seed: a float division underflows in likelihood_profile (ROADMAP,
# open item 3). A benchmark workload must have no failing operation, so these
# pairs are not in the timed rounds. worker.py decides round 0's pairs of this
# kind after the timed loop, and run.py prints their outcome as a note, so the
# defect stays in view and a fix shows.
KNOWN_DEFECT = {("binomial", "poisson", 700), ("poisson", "binomial", 700)}


def scale_round(seed: int, index: int, known_defect: bool = False) -> list:
    """(P, Q, size, tag) for one round: the paper pairs, then the mean-matched pairs.

    With `known_defect`, only the KNOWN_DEFECT pairs the round would have held.
    Every pair draws its parameters either way, so the rest of the round is the
    same as if those pairs were in it.
    """
    rng = round_rng("decide-scale", seed, index)
    out = [] if known_defect else [(*PAPER_X1, 500, "paper_x1"), (*PAPER_X3, 1500, "paper_x3")]
    for base, pb_mean in zip(SCALE_SIZES, PB_MEANS):
        for fam_p in FAMILIES:
            for fam_q in FAMILIES:
                size = int(base * rng.uniform(0.98, 1.02))
                if "poisson_binomial" in (fam_p, fam_q):
                    mean = pb_mean * rng.uniform(0.95, 1.05)
                else:
                    mean = size * rng.uniform(0.26, 0.29)
                P = scale_spec(fam_p, size, mean, rng)
                Q = scale_spec(fam_q, size, mean * rng.uniform(0.97, 1.03), rng)
                if ((fam_p, fam_q, base) in KNOWN_DEFECT) == known_defect:
                    out.append((P, Q, max(nominal_size(P), nominal_size(Q)), f"{fam_p}/{fam_q}"))
    return out


# --- couple ------------------------------------------------------------------------


COUPLE_BOXES = (8, 15, 24, 34, 46)  # box-count class of each case in a round


def couple_case(method: str, k: int, rng: random.Random) -> dict:
    """Sampler parameters that meet the method's preconditions by construction.

    All parameters are exact rationals; the dominance conditions hold with a
    margin, so the samplers' float re-checks pass too. Class k fixes the box
    count (or its analogue) near COUPLE_BOXES[k], and the seed moves every
    parameter a little, so each round has the same mix of sampler costs.
    """
    boxes = COUPLE_BOXES[k] + rng.randint(-1, 1)
    if method in ("explicit", "occupancy"):
        n2 = boxes
        n1 = n2 - rng.randint(0, 2)
        p1 = Fraction(rng.randint(29, 31), 100)
        # (1-p1)^n1 >= (1-p2)^n2 holds with margin once p2 exceeds its boundary value
        boundary = 1 - float(1 - p1) ** (n1 / n2)
        p2 = Fraction(min(99, math.ceil(100 * boundary) + rng.randint(1, 3)), 100)
        P = {"family": "binomial", "n": n1, "p": str(p1)}
        Q = {"family": "binomial", "n": n2, "p": str(p2)}
    elif method == "levy":
        # p1 >= p2 and r1 <= r2 give p1^r1 >= p2^r2, the total-mass condition
        r2 = (1, 2, 3, 5, 7)[k] + rng.randint(0, 1)
        r1 = max(1, r2 - rng.randint(0, 1))
        p2 = Fraction(rng.randint(34, 36), 100)
        p1 = p2 + Fraction(rng.randint(0, 5), 100)
        P = {"family": "negbinomial", "r": r1, "p": str(p1)}
        Q = {"family": "negbinomial", "r": r2, "p": str(p2)}
    elif method == "poissonize":
        p = Fraction(rng.randint(19, 21), 100)
        lam = -boxes * math.log1p(-float(p)) * rng.uniform(1.05, 1.1)
        P = {"family": "binomial", "n": boxes, "p": str(p)}
        Q = {"family": "poisson", "lambda": f"{lam:.4f}"}
    else:
        P, Q = ordered_pair(k, boxes, rng)
    return {"method": method, "P": P, "Q": Q, "size": boxes}


def ordered_pair(k: int, boxes: int, rng: random.Random):
    """A pair with P stochastically below Q, ordered by a textbook monotonicity."""
    if k in (0, 3):  # binomial is increasing in n and in p
        n1 = boxes - rng.randint(0, 2)
        p1 = Fraction(rng.randint(38, 42), 100)
        p2 = p1 + Fraction(rng.randint(0, 5), 100)
        return {"family": "binomial", "n": n1, "p": str(p1)}, {"family": "binomial", "n": boxes, "p": str(p2)}
    if k == 1:  # hypergeometric is increasing in the black-ball count
        W = boxes + rng.randint(0, 4)
        B1 = boxes // 2 + rng.randint(3, 6)
        B2 = B1 + rng.randint(0, 4)
        return (
            {"family": "hypergeometric", "B": B1, "W": W, "n": boxes},
            {"family": "hypergeometric", "B": B2, "W": W, "n": boxes},
        )
    lam1 = Fraction(2 * boxes + rng.randint(-2, 2), 4)  # poisson is increasing in lambda
    lam2 = lam1 + Fraction(rng.randint(0, 4), 4)
    return {"family": "poisson", "lambda": str(lam1)}, {"family": "poisson", "lambda": str(lam2)}


def couple_round(seed: int, index: int) -> list:
    """Each method once per box-count class, in a fixed order."""
    rng = round_rng("couple", seed, index)
    cases = [couple_case(m, k, rng) for k in range(len(COUPLE_BOXES)) for m in METHODS]
    for case in cases:
        case["seed"] = rng.getrandbits(32)  # the sampler's own stream seed
    return cases


# --- shared -----------------------------------------------------------------------


def nominal_size(spec: dict) -> int:
    """Support points of a spec; for unbounded laws, points below mean + 6 sd."""
    family = spec["family"]
    if family == "binomial":
        return spec["n"] + 1
    if family == "hypergeometric":
        B, W, n = spec["B"], spec["W"], spec["n"]
        return min(B, n) - max(0, n - W) + 1
    if family == "poisson_binomial":
        return len(spec["p"]) + 1
    if family == "poisson":
        lam = float(Fraction(str(spec["lambda"])))
        return math.ceil(lam + 6 * math.sqrt(lam)) + 1
    r, p = float(spec["r"]), float(Fraction(str(spec["p"])))
    mean, var = r * (1 - p) / p, r * (1 - p) / p**2
    return math.ceil(mean + 6 * math.sqrt(var)) + 1


# Every run makes at least this many whole rounds: two scale rounds, eight
# couple rounds. Set-up generates them; later rounds are made on
# demand, outside the timed region. So every run makes at least MIN_OPS
# operations (250 and 200), and >= 20 samples lie beyond the 90th-percentile
# tail.
MIN_ROUNDS = {"decide-scale": 2, "couple": 8}
ROUND_OPS = {
    "decide-scale": 2 + len(FAMILIES) ** 2 * len(SCALE_SIZES) - len(KNOWN_DEFECT),
    "couple": len(METHODS) * len(COUPLE_BOXES),
}
MIN_OPS = {w: MIN_ROUNDS[w] * ROUND_OPS[w] for w in WORKLOADS}


def round_of(workload: str, seed: int, index: int) -> list:
    """Round `index` of a workload under `seed`; rounds are independent of each other."""
    make = {"decide-scale": scale_round, "couple": couple_round}[workload]
    return make(seed, index)


def rounds(workload: str, seed: int, count: int) -> list:
    """The first `count` rounds of a workload under `seed`."""
    return [round_of(workload, seed, i) for i in range(count)]
