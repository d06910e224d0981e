"""Command-line interface.

Subcommands:
  bernoulli   print B_n or the polynomial B_n(alpha) exactly
  eval        one numeric kernel value, 15 significant digits
  integrate   IBP reduction of a moment integral, numeric or symbolic
  pair        closed-form pair integral
  verify      run the identity registry and render a report

Complex literals use the syntax a, a+bi, a-bi (no spaces).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import kernels
from .checks import render_report, run_checks
from .errors import EvaluationError
from .exact import bernoulli_number, bernoulli_polynomial, rational_str
from .kernels import format_complex
from .reduction import eval_combination, integral_poly_zeta, pair_integral

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_NUM})(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' (no spaces)."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"invalid complex literal {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def _parse_ms(text: str) -> tuple[int, ...]:
    try:
        ms = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid index list {text!r}")
    if not ms or any(m < 0 for m in ms):
        raise argparse.ArgumentTypeError("indices must be non-negative integers")
    return ms


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Hurwitz zeta toolkit: exact Bernoulli arithmetic, "
                    "zeta kernels, and a verified identity suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli number or polynomial, exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", action="store_true",
                   help="print the polynomial B_n(alpha) instead of B_n")

    p = sub.add_parser("eval", help="evaluate one kernel")
    p.add_argument("--fn", required=True,
                   choices=("zeta", "hurwitz", "digamma", "stieltjes", "gamma"))
    p.add_argument("--deriv", type=int, default=0, metavar="R",
                   help="s-derivative order (zeta/hurwitz); index n for stieltjes")
    p.add_argument("--s", type=parse_complex, default=None, metavar="COMPLEX")
    p.add_argument("--alpha", type=float, default=None, metavar="REAL")

    p = sub.add_parser("integrate",
                       help="reduce int_0^1 zeta(-m1,a)...zeta(-mk,a) zeta^(r)(s,a) da")
    p.add_argument("--ms", type=_parse_ms, required=True, metavar="M1,M2,...")
    p.add_argument("--deriv", type=int, choices=(0, 1), default=0)
    p.add_argument("--s", type=parse_complex, default=None, metavar="COMPLEX")
    p.add_argument("--symbolic", action="store_true",
                   help="print the canonical symbolic combination")

    p = sub.add_parser("pair", help="closed-form pair integral")
    p.add_argument("--s1", type=parse_complex, required=True, metavar="COMPLEX")
    p.add_argument("--s2", type=parse_complex, required=True, metavar="COMPLEX")

    p = sub.add_parser("verify", help="run the identity registry")
    p.add_argument("--filter", default=None, metavar="PREFIX")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, metavar="PATH")

    return parser


def _require(value, flag: str):
    if value is None:
        raise EvaluationError(f"missing required option {flag}")
    return value


# The options each eval --fn reads; another one given is refused, not ignored.
_EVAL_OPTIONS = {"zeta": ("--deriv", "--s"), "hurwitz": ("--deriv", "--s", "--alpha"),
                 "digamma": ("--alpha",), "stieltjes": ("--deriv", "--alpha"),
                 "gamma": ("--s",)}


def _run_eval(args) -> str:
    fn = args.fn
    given = {"--deriv": args.deriv != 0, "--s": args.s is not None,
             "--alpha": args.alpha is not None}
    for flag, used in given.items():
        if used and flag not in _EVAL_OPTIONS[fn]:
            raise EvaluationError(f"--fn {fn} does not take {flag}")
    if fn == "gamma":
        return format_complex(kernels.gamma_complex(_require(args.s, "--s")))
    if fn == "digamma":
        return format_complex(complex(kernels.digamma(_require(args.alpha, "--alpha"))))
    if fn == "stieltjes":
        return format_complex(kernels.stieltjes(args.deriv, _require(args.alpha, "--alpha")))
    if fn == "zeta":
        return format_complex(kernels.riemann_zeta_deriv(args.deriv, _require(args.s, "--s")))
    # hurwitz
    return format_complex(kernels.hurwitz_zeta_deriv(
        args.deriv, _require(args.s, "--s"), _require(args.alpha, "--alpha")))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bernoulli":
            if args.n < 0:
                raise EvaluationError("--n must be non-negative")
            if args.poly:
                print(bernoulli_polynomial(args.n).pretty_str("alpha"))
            else:
                print(rational_str(bernoulli_number(args.n)))
            return 0

        if args.command == "eval":
            print(_run_eval(args))
            return 0

        if args.command == "integrate":
            lc = integral_poly_zeta(args.ms, args.deriv)
            if args.symbolic:
                print(lc.serialize())
            else:
                s = _require(args.s, "--s")
                print(format_complex(eval_combination(lc, s)))
            return 0

        if args.command == "pair":
            print(format_complex(pair_integral(args.s1, args.s2)))
            return 0

        if args.command == "verify":
            results = run_checks(args.filter)
            report = render_report(results, args.format)
            if args.out:
                try:
                    with open(args.out, "w") as fh:
                        fh.write(report)
                except OSError as exc:
                    print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                          file=sys.stderr)
                    return 2
            else:
                sys.stdout.write(report)
            return 0 if all(r.status != "fail" for r in results) else 1

    except (EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
