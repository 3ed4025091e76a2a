"""toricctl: command-line front end.

Subcommands: check-fan, wps, classify-case1, verify-sl2, reproduce-paper.
Each ``cmd_*`` handler returns ``(fields, lines, ok)``: the command's JSON
fields, its text lines and whether every check passed.  ``main`` owns the
envelope and the exit codes: it prints the text lines, or the JSON object
``{"schema": 1, "command": ..., **fields}``, and returns 0 when all checks
passed, 1 when a check failed and 2 on a usage or input error.  JSON output is
deterministic, so two runs of the same command produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cones import FanFormatError, load_fan, save_fan
from .reference import run_reference_suite
from .sl2 import (
    DEFAULT_SPOT_CHECK_SEED,
    quadric_family_sanity,
    quotient_images_sign_invariant,
    rep_weights,
    verify_invariant_ideal,
)
from .varieties import analyze, build_wps_fan, classify_case1

SCHEMA_VERSION = 1
# verify-sl2 draws every spot-check point, so its time grows linearly with
# --sample-points: 100 000 points take about 0.05 s (Python 3.11, 2 vCPUs).
# Memory stays flat: the draws are consumed chunk by chunk, and only the at
# most 21^3 distinct points are kept.
MAX_SAMPLE_POINTS = 100_000


class UsageError(Exception):
    """Input problems that should exit with status 2."""


Result = tuple[dict, list[str], bool]  # JSON fields, text lines, all checks passed


def _spot_check_seed() -> int:
    raw = os.environ.get("TORICCTL_SEED")
    if raw is None:
        return DEFAULT_SPOT_CHECK_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"TORICCTL_SEED must be an integer, got {raw!r}") from exc


def cmd_check_fan(args) -> Result:
    try:
        fan = load_fan(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read fan file: {exc}") from exc
    except FanFormatError as exc:
        raise UsageError(f"bad fan file: {exc}") from exc
    report = analyze(fan)
    return {"report": report.to_dict()}, report.text_lines(), report.valid


def _parse_weights(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected 4 comma-separated weights, got {text!r}")
    try:
        weights = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"weights must be integers, got {text!r}") from exc
    if any(w < 1 for w in weights):
        raise UsageError(f"weights must be positive, got {weights}")
    return weights


def cmd_wps(args) -> Result:
    weights = _parse_weights(args.weights)
    try:
        fan = build_wps_fan(*weights)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = analyze(fan)
    fields = {"weights": list(weights), "report": report.to_dict()}
    lines = report.text_lines()
    if args.emit_fan:
        try:
            save_fan(fan, args.emit_fan)
        except OSError as exc:
            raise UsageError(f"cannot write fan file: {exc}") from exc
        fields["emitted"] = args.emit_fan
        lines.append(f"fan written to {args.emit_fan}")
    return fields, lines, report.valid


def cmd_classify_case1(args) -> Result:
    if args.bound < 2:
        raise UsageError(f"--bound must be >= 2, got {args.bound}")
    records = classify_case1(args.bound)
    fields = {
        "bound": args.bound,
        "solutions": [record.solution.to_dict() for record in records],
        "records": [record.to_dict() for record in records],
    }
    lines = [f"linking solutions with n <= {args.bound}: {len(records)}"]
    for record in records:
        s = record.solution
        lines.append(
            f"  n={s.n} m={s.m} mu={s.mu} nu={s.nu}: ray v={tuple(record.ray)}, "
            f"singularities {list(record.singularities)}"
        )
        verdict = record.equivalent_to if record.equivalent_to else "no match"
        lines.append(f"    lattice-equivalent to {verdict}; consistent: {record.ok}")
    return fields, lines, all(record.ok for record in records)


def cmd_verify_sl2(args) -> Result:
    if args.sample_points < 0:
        raise UsageError("--sample-points must be nonnegative")
    if args.sample_points > MAX_SAMPLE_POINTS:
        raise UsageError(
            f"--sample-points must be at most {MAX_SAMPLE_POINTS}, got {args.sample_points}"
        )
    if not 1 <= args.generators <= 6:
        raise UsageError("--generators must be between 1 and 6")
    seed = _spot_check_seed()
    verification = verify_invariant_ideal(
        seed=seed, samples=args.sample_points, limit=args.generators
    )
    symmetric = quotient_images_sign_invariant()
    quadric_ok = quadric_family_sanity()
    weight_rows = [rep_weights(k).to_dict() for k in range(7)]
    all_ok = verification.all_vanish and symmetric and quadric_ok
    fields = {
        "verification": verification.to_dict(),
        "images_sign_invariant": symmetric,
        "quadric_family_ok": quadric_ok,
        "rep_weights": weight_rows,
        "all_ok": all_ok,
    }
    vanished = sum(1 for c in verification.checks if c.passed)
    lines = [
        f"{vanished}/{len(verification.checks)} generators vanish under the quotient substitution",
        f"numeric spot-check: {verification.samples} points per generator (seed {seed})",
        f"images invariant under (x,y,z) -> (-x,-y,-z): {'yes' if symmetric else 'no'}",
        f"quadric family sanity checks: {'pass' if quadric_ok else 'FAIL'}",
        "torus weights:",
    ]
    for row in weight_rows:
        lines.append(
            f"  k={row['k']}: weights {row['weights']}, fixed dim {row['fixed_dim']}"
        )
    return fields, lines, all_ok


def cmd_reproduce_paper(args) -> Result:
    seed = _spot_check_seed()
    report = run_reference_suite(seed)
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{status}  {check.name}: {check.detail}")
    lines.append(
        f"{sum(c.passed for c in report.checks)}/{len(report.checks)} reference checks passed"
    )
    if not report.all_passed:
        first = next(c.name for c in report.checks if not c.passed)
        lines.append(f"first failing check: {first}")
    return {"report": report.to_dict()}, lines, report.all_passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricctl",
        description=(
            "Exact computations with 3-dimensional simplicial toric fans, "
            "cyclic quotient singularities, and SL2-invariant identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-fan", help="validate and analyze a fan file")
    p.add_argument("path", help="path to a fan JSON file")
    p.set_defaults(func=cmd_check_fan)

    p = sub.add_parser("wps", help="build and analyze a weighted projective space fan")
    p.add_argument("weights", help="four comma-separated positive weights, e.g. 1,1,2,3")
    p.add_argument("--emit-fan", metavar="PATH", help="also write the fan file")
    p.set_defaults(func=cmd_wps)

    p = sub.add_parser(
        "classify-case1",
        help="solve the linking equations and reconstruct the matching fan",
    )
    p.add_argument("--bound", type=int, required=True, help="search bound for n (>= 2)")
    p.set_defaults(func=cmd_classify_case1)

    p = sub.add_parser("verify-sl2", help="verify the invariant-ideal identities")
    p.add_argument(
        "--generators",
        type=int,
        default=6,
        help="verify only the first N generators (default all 6)",
    )
    p.add_argument(
        "--sample-points",
        type=int,
        default=100,
        help="number of numeric spot-check points per generator",
    )
    p.set_defaults(func=cmd_verify_sl2)

    p = sub.add_parser(
        "reproduce-paper",
        help="run every built-in reference computation and assert its expected result",
    )
    p.set_defaults(func=cmd_reproduce_paper)

    for p in sub.choices.values():
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    return parser


# Built once per process, at import, so the handlers bound by ``set_defaults``
# are the module's own functions whatever later rebinds the ``cmd_*`` names.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        fields, lines, ok = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "command": args.command, **fields}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
