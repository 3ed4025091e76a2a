"""Seeded inputs and output oracles for the toricctl benchmark workloads.

A workload is a list of distinct ``Command``s, one pass; the benchmark runs
the pass again and again, one command after the other.  Every command carries
its own oracle, which sees only the exit code and the standard output of
``toricctl.cli.main`` and never calls into ``toricctl``: the expected values
come from how the inputs were built (a stellar subdivision of a smooth fan is
smooth and complete), from closed forms (the cone of P(w) opposite ray i has
order w_i and is terminal by the terminal lemma) and from the literature
(Kasprzyk's seven terminal weighted projective 3-spaces).

The command mix of a pass is fixed and only the details come from the seed
(which cones get starred, which primes, which weights), so different seeds
give runs of the same shape and comparable timings.  A pass is kept short
(about a second here) and no command takes much over 0.2 s, so that a run
calls every command 15 times or more (see "Host noise" in NOTES.md).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Callable

WORKLOADS = ("fan-audit", "wps-scan", "large-order", "paper-suite")

# Kasprzyk, "Toric Fano 3-folds with terminal singularities" (Tohoku Math. J.
# 2006): the weighted projective 3-spaces with only terminal singularities.
KASPRZYK_SEVEN = frozenset(
    {
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 1, 2, 3),
        (1, 2, 3, 5),
        (1, 3, 4, 5),
        (2, 3, 5, 7),
        (3, 4, 5, 7),
    }
)
# The only solution of m = mu*n - 1, n = nu*m - 1 with n > m > 1.
CASE1_SOLUTIONS = ({"n": 3, "m": 2, "mu": 1, "nu": 2},)

# fan-audit: cone counts of the fans in one pass (each also gets a mutant).
FAN_CONE_COUNTS = (8, 12, 16, 20, 24, 28, 32)
# wps-scan: every well-formed sorted quadruple with weights <= this cap.
WPS_WEIGHT_CAP = 10
# large-order: decimal exponents of the group orders and of the bounds.
ORDER_EXPONENTS = (4.0, 4.25, 4.5, 4.75)
# paper-suite: (--generators, --sample-points) of the verify-sl2 calls in one
# pass, from the default-sized check up to about the cost of a reproduce-paper.
SL2_ARGS = ((1, 100), (2, 1_000), (3, 3_000), (4, 6_000), (5, 12_000), (6, 20_000))

Check = Callable[[object, str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle for its result."""

    argv: tuple[str, ...]
    check: Check
    env_seed: int | None = None  # value of TORICCTL_SEED, if the command uses it

    @property
    def key(self) -> tuple:
        return (self.argv, self.env_seed)


# ---------------------------------------------------------------------------
# Oracles.  Each returns None when the output is right, else a message.


def _json_payload(code, out: str, expected_code: int, command: str) -> dict:
    if code != expected_code:
        raise AssertionError(f"exit code {code!r}, expected {expected_code}")
    doc = json.loads(out)
    if doc.get("schema") != 1 or doc.get("command") != command:
        raise AssertionError(f"bad header: schema {doc.get('schema')!r}, command {doc.get('command')!r}")
    return doc


def _oracle(fn) -> Check:
    """Turn an asserting check into one that reports instead of raising."""

    def check(code, out: str):
        try:
            fn(code, out)
        except (AssertionError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def terminal_lemma(r: int, weights) -> bool:
    """1/r(a,b,c) is terminal iff some pair sums to 0 mod r and the third
    weight is coprime to r (for the cones of a well-formed P(w))."""
    a, b, c = (w % r for w in weights)
    return any(
        (x + y) % r == 0 and gcd(z, r) == 1 for x, y, z in ((a, b, c), (a, c, b), (b, c, a))
    )


def wps_check(weights: tuple[int, int, int, int], in_scan: bool) -> Check:
    def fn(code, out):
        doc = _json_payload(code, out, 0, "wps")
        report = doc["report"]
        assert doc["weights"] == list(weights), f"weights echoed as {doc['weights']}"
        assert report["valid"] and report["complete"], "fan not valid and complete"
        assert report["class_rank"] == 1, f"class rank {report['class_rank']}"
        mults = sorted(c["multiplicity"] for c in report["cones"])
        assert mults == sorted(weights), f"multiplicities {mults} != weights"
        for cone in report["cones"]:
            r = cone["multiplicity"]
            rest = list(weights)
            rest.remove(r)
            expected = terminal_lemma(r, rest)
            assert cone["terminal"] is expected, f"cone {cone['rays']} terminal {cone['terminal']}"
        all_terminal = all(cone["terminal"] for cone in report["cones"])
        assert report["all_terminal"] is all_terminal, "all_terminal disagrees with the cones"
        if in_scan:
            known = tuple(sorted(weights)) in KASPRZYK_SEVEN
            assert all_terminal is known, f"all_terminal {all_terminal}, Kasprzyk says {known}"

    return _oracle(fn)


def fan_check(ray_count: int, cone_count: int) -> Check:
    def fn(code, out):
        report = _json_payload(code, out, 0, "check-fan")["report"]
        assert report["valid"] and report["complete"], "generated fan not valid and complete"
        assert report["max_cones"] == cone_count, f"{report['max_cones']} cones"
        assert report["class_rank"] == ray_count - 3, f"class rank {report['class_rank']}"
        assert all(
            c["multiplicity"] == 1 and c["terminal"] is True for c in report["cones"]
        ), "a stellar subdivision of a smooth fan must stay smooth"

    return _oracle(fn)


def mutant_check(code, out):
    report = _json_payload(code, out, 1, "check-fan")["report"]
    assert report["valid"] is False, "overlapping cone not detected"
    assert report["violations"], "no violation reported"


def classify_check(bound: int) -> Check:
    def fn(code, out):
        doc = _json_payload(code, out, 0, "classify-case1")
        assert doc["bound"] == bound, f"bound echoed as {doc['bound']}"
        assert doc["solutions"] == list(CASE1_SOLUTIONS), f"solutions {doc['solutions']}"

    return _oracle(fn)


def reproduce_check(seed: int) -> Check:
    def fn(code, out):
        report = _json_payload(code, out, 0, "reproduce-paper")["report"]
        assert report["all_passed"] is True, "a reference check failed"
        assert report["seed"] == seed, f"seed {report['seed']}"

    return _oracle(fn)


def sl2_check(seed: int, generators: int, samples: int) -> Check:
    def fn(code, out):
        doc = _json_payload(code, out, 0, "verify-sl2")
        verification = doc["verification"]
        assert doc["all_ok"] is True, "verify-sl2 reported a failure"
        assert verification["seed"] == seed, f"seed {verification['seed']}"
        assert verification["samples"] == samples, f"samples {verification['samples']}"
        assert len(verification["generators"]) == generators, "wrong generator count"

    return _oracle(fn)


# ---------------------------------------------------------------------------
# Input generators.


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def stellar_fan(rng: random.Random, cone_count: int):
    """A smooth complete fan: P^3's fan with random cones starred at their ray sum.

    Each star replaces one cone by three, so ``cone_count`` must be even.  The
    starred cone is drawn from the cones starred least often so far; drawing
    from all cones lets one seed star a corner again and again, and the cost
    of a fan of one size then varied far more between seeds.
    """
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [list(c) for c in combinations(range(4), 3)]
    depth = [0] * len(cones)
    while len(cones) < cone_count:
        shallowest = min(depth)
        k = rng.choice([i for i, d in enumerate(depth) if d == shallowest])
        a, b, c = cones.pop(k)
        d = depth.pop(k) + 1
        rays.append(_primitive([x + y + z for x, y, z in zip(rays[a], rays[b], rays[c])]))
        n = len(rays) - 1
        cones += [[a, b, n], [a, n, c], [n, b, c]]
        depth += [d, d, d]
    return rays, cones


def overlapping_mutant(rng: random.Random, rays, cones):
    """Add one cone made of two rays of an existing cone and a point inside it."""
    a, b, c = cones[rng.randrange(len(cones))]
    x, y, z = (rng.randint(1, 3) for _ in range(3))
    inside = _primitive([x * p + y * q + z * s for p, q, s in zip(rays[a], rays[b], rays[c])])
    return rays + [inside], cones + [[a, b, len(rays)]]


def _write_fan(path: str, name: str, rays, cones) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"name": name, "dim": 3, "rays": [list(r) for r in rays], "cones": cones}, handle)


def fan_audit_pass(seed: int, workdir: str) -> list[Command]:
    rng = random.Random(f"fan-audit/{seed}")
    commands = []
    for cone_count in FAN_CONE_COUNTS:
        rays, cones = stellar_fan(rng, cone_count)
        bad_rays, bad_cones = overlapping_mutant(rng, rays, cones)
        for tag, (rs, cs), check in (
            ("fan", (rays, cones), fan_check(len(rays), len(cones))),
            ("mutant", (bad_rays, bad_cones), _oracle(mutant_check)),
        ):
            path = os.path.join(workdir, f"{tag}-{cone_count}.json")
            _write_fan(path, f"{tag} {cone_count}", rs, cs)
            commands.append(Command(("check-fan", path, "--format", "json"), check))
    return commands


def well_formed(weights) -> bool:
    return all(gcd(*triple) == 1 for triple in combinations(weights, 3))


def wps_scan_pass(seed: int, workdir: str) -> list[Command]:
    quadruples = [
        q
        for q in combinations_with_replacement(range(1, WPS_WEIGHT_CAP + 1), 4)
        if well_formed(q)
    ]
    random.Random(f"wps-scan/{seed}").shuffle(quadruples)
    return [_wps_command(q, in_scan=True) for q in quadruples]


def _wps_command(weights, in_scan: bool) -> Command:
    argv = ("wps", ",".join(map(str, weights)), "--format", "json")
    return Command(argv, wps_check(tuple(weights), in_scan))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _near(rng: random.Random, exponent: float) -> int:
    """A seeded start point at most 1 % above 10**exponent."""
    base = round(10**exponent)
    return base + rng.randrange(base // 100)


def large_order_pass(seed: int, workdir: str) -> list[Command]:
    """Per power of ten: (1, a, r-a, r) with r and r-a prime, whose order-r
    cone is terminal so ``is_terminal`` walks all r-1 steps; a random
    well-formed (w0, w1, w2, r) with small w_i and prime r, whose order-r cone
    fails at the first step; and classify-case1 with a bound near the same
    power.  Primes keep the O(phi(r)) normalization at its full length, so the
    cost of a command depends on the power of ten and not on the seed."""
    rng = random.Random(f"large-order/{seed}")
    commands = []
    for exponent in ORDER_EXPONENTS:
        a = 2 * rng.randint(1, 30)
        r = _near(rng, exponent)
        while not (is_prime(r) and is_prime(r - a)):
            r += 1
        commands.append(_wps_command((1, a, r - a, r), in_scan=False))
        r = _near(rng, exponent)
        while not is_prime(r):
            r += 1
        small = (0, 0, 0)
        while not well_formed(small + (r,)):
            small = tuple(sorted(rng.randint(2, 999) for _ in range(3)))
        commands.append(_wps_command(small + (r,), in_scan=False))
        bound = _near(rng, exponent)
        argv = ("classify-case1", "--bound", str(bound), "--format", "json")
        commands.append(Command(argv, classify_check(bound)))
    return commands


def paper_suite_pass(seed: int, workdir: str) -> list[Command]:
    """reproduce-paper and verify-sl2 in turn, each with its own TORICCTL_SEED.

    The seed orders the verify-sl2 calls, adds up to 1 % to their sample
    points and picks every TORICCTL_SEED."""
    rng = random.Random(f"paper-suite/{seed}")
    sl2_args = list(SL2_ARGS)
    rng.shuffle(sl2_args)
    commands = []
    for g, samples in sl2_args:
        env_seed = rng.randrange(10**6)
        commands.append(
            Command(("reproduce-paper", "--format", "json"), reproduce_check(env_seed), env_seed)
        )
        samples += rng.randrange(samples // 100 + 1)
        env_seed = rng.randrange(10**6)
        argv = (
            "verify-sl2",
            "--generators",
            str(g),
            "--sample-points",
            str(samples),
            "--format",
            "json",
        )
        commands.append(Command(argv, sl2_check(env_seed, g, samples), env_seed))
    return commands


GENERATORS = {
    "fan-audit": fan_audit_pass,
    "wps-scan": wps_scan_pass,
    "large-order": large_order_pass,
    "paper-suite": paper_suite_pass,
}


def build_pass(workload: str, seed: int, workdir: str) -> list[Command]:
    """The distinct commands of one workload and seed; fan files go into ``workdir``."""
    return GENERATORS[workload](seed, workdir)
