"""Command-line interface.

Subcommands: check, audit, sweep, sharpness, opnorm, extremal.  Zero lists
are accepted either as a file with one ``re im`` pair per line or inline as
comma-separated complex literals such as ``1+2i,-1,0.5i``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import certs, harness, sharpness
from .polyzero import ZeroConfig, center

_IMAG_ONLY = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?)?[ij]$")


def _parse_complex_literal(text: str) -> complex:
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if _IMAG_ONLY.match(s):
        body = s[:-1]
        if body in ("", "+"):
            body = "1"
        elif body == "-":
            body = "-1"
        return complex(0.0, float(body))
    s = s.replace("i", "j")
    # bare trailing j after a sign, as in "2-j"
    s = re.sub(r"([+-])j$", r"\g<1>1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def parse_zeros(source: str) -> ZeroConfig:
    """Read a zero list from a file path ('re im' per line) or inline literals."""
    if os.path.exists(source):
        zeros = []
        with open(source, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(
                        f"{source}:{line_no}: expected 're im', got {line!r}"
                    )
                zeros.append(complex(float(parts[0]), float(parts[1])))
    else:
        zeros = [_parse_complex_literal(tok) for tok in source.split(",") if tok.strip()]
    if len(zeros) < 2:
        raise ValueError("need at least two zeros")
    return ZeroConfig(tuple(zeros))


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _print_certificates(rows: list[certs.Certificate]) -> None:
    fmt = "{:<16} {:>3} {:>6} {:>24} {:>24} {:>12} {:>6}"
    print(fmt.format("name", "n", "p", "lhs", "rhs", "ratio", "holds"))
    for c in rows:
        print(
            fmt.format(
                c.name,
                c.n,
                "-" if c.p is None else f"{c.p:g}",
                harness.format_float(c.lhs),
                harness.format_float(c.rhs),
                "-" if c.ratio is None else f"{c.ratio:.6f}",
                "yes" if c.holds else "NO",
            )
        )


def _cmd_check(args) -> int:
    cfg = center(parse_zeros(args.zeros))
    rows = certs.check_all(cfg, _parse_float_list(args.p))
    _print_certificates(rows)
    failed = [c for c in rows if not c.holds]
    print(f"{len(rows) - len(failed)}/{len(rows)} certificates hold")
    return 1 if failed else 0


def _cmd_audit(args) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = harness.AuditSpec.from_dict(json.load(handle))
    else:
        spec = harness.AuditSpec()
    report = harness.run_audit(spec, sabotage=args.sabotage)
    harness.emit_report(report, args.out, format=args.format)
    print(
        f"audit: {report.passed}/{report.total} certificates hold, "
        f"{len(report.violations)} violations, {len(report.errors)} errors "
        f"({report.wall_time_s:.2f}s) -> {args.out}"
    )
    return 0 if not report.violations and not report.errors else 1


def _cmd_sweep(args) -> int:
    cfg = center(parse_zeros(args.zeros))
    rows = harness.sweep_p(cfg, _parse_float_list(args.grid))
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("p,lhs,rhs,ratio\n")
        for row in rows:
            ratio = "" if row.ratio is None else harness.format_float(row.ratio)
            handle.write(
                f"{harness.format_float(row.p)},{harness.format_float(row.lhs)},"
                f"{harness.format_float(row.rhs)},{ratio}\n"
            )
    print(f"sweep: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_sharpness(args) -> int:
    result = sharpness.maximize_ratio(args.n, args.p, args.budget, args.seed)
    payload = {
        "n": result.n,
        "p": result.p,
        "best_ratio": result.best_ratio,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "seed": result.seed,
        "best_zeros": [[z.real, z.imag] for z in result.best_config.zeros],
    }
    sys.stdout.write(harness.dumps_report(payload))
    if result.best_ratio > 1.0 + certs.REL_TOL:
        print("WARNING: ratio exceeds 1; this contradicts the order-p bound",
              file=sys.stderr)
        return 2
    return 0


def _cmd_opnorm(args) -> int:
    estimate, bound = sharpness.opnorm_lower_bound(
        args.n, args.p, budget=args.budget, seed=args.seed
    )
    payload = {"n": args.n, "p": args.p, "estimate": estimate, "bound": bound}
    sys.stdout.write(harness.dumps_report(payload))
    if estimate > bound * (1.0 + certs.REL_TOL):
        print("WARNING: estimate exceeds the closed-form bound", file=sys.stderr)
        return 2
    return 0


def _cmd_extremal(args) -> int:
    if args.family == "high":
        cfg = sharpness.extremal_high(args.n)
    else:
        cfg = sharpness.extremal_low(args.n)
    for z in cfg.zeros:
        print(f"{z.real:.1f} {z.imag:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoenberg",
        description="Certificates and sharpness search for Schoenberg-type "
        "inequalities between polynomial zeros and critical points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate all certificates on one configuration")
    p_check.add_argument("--zeros", required=True, help="file path or inline literals")
    p_check.add_argument("--p", default="1,1.5,2,3,4", help="comma-separated orders")
    p_check.set_defaults(func=_cmd_check)

    p_audit = sub.add_parser("audit", help="run a batch audit")
    p_audit.add_argument("--spec", help="JSON audit spec file (defaults applied)")
    p_audit.add_argument("--out", required=True, help="report output path")
    p_audit.add_argument("--format", choices=("json", "csv"), default="json")
    p_audit.add_argument(
        "--sabotage", action="store_true",
        help="halve the Schoenberg constant (self-test for violation detection)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_sweep = sub.add_parser("sweep", help="order sweep for one configuration")
    p_sweep.add_argument("--zeros", required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated orders")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sharp = sub.add_parser("sharpness", help="maximize the certificate ratio")
    p_sharp.add_argument("--n", type=int, required=True)
    p_sharp.add_argument("--p", type=float, required=True)
    p_sharp.add_argument("--budget", type=int, default=10000)
    p_sharp.add_argument("--seed", type=int, default=0)
    p_sharp.set_defaults(func=_cmd_sharpness)

    p_op = sub.add_parser("opnorm", help="operator-norm estimate vs the closed form")
    p_op.add_argument("--n", type=int, required=True)
    p_op.add_argument("--p", type=float, required=True)
    p_op.add_argument("--budget", type=int, default=2000)
    p_op.add_argument("--seed", type=int, default=0)
    p_op.set_defaults(func=_cmd_opnorm)

    p_ext = sub.add_parser("extremal", help="print an extremal configuration")
    p_ext.add_argument("--family", choices=("high", "low"), required=True)
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.set_defaults(func=_cmd_extremal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
