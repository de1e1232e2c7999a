"""Command-line surface: exact evaluation, classification, censuses, figures.

Everything rational is printed as "p/q" — never a decimal — so output can be
piped back in without losing exactness, and identical invocations produce
byte-identical output (JSON key order and SVG attribute order are fixed).

Classification and evaluation take any rational.  Exit codes: 0 success;
2 usage errors (including non-balanced plot highlights, search budgets below
1, orders, depths or term counts out of range, and expansions past the digit
limit); 4 budget exhaustion (states, slope, or more than 2^20 preimages to
list) — the indeterminate result is still printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .curve import TWO_THIRDS, eval_approx, eval_dyadic, eval_rational
from .humps import MAX_CENSUS_ORDER, NotBalancedError, analyze_word, balanced_word_of
from .humps import catalan, census, count_balanced
from .machine import DEFAULT_MAX_STATES, Verdict, classify
from .rationals import MAX_EVAL_DIGITS, format_rational, parse_rational
from .signed import SignSequence, signed_extrema, truncated_local_count
from .stats import (
    MAX_GRID_DEPTH,
    catalan_series_partial,
    expected_cardinality_series_partial,
    expected_local_series_partial,
    grid_experiment,
)

# Largest plot --depth: 2^16 + 1 exact samples already take seconds.
MAX_PLOT_DEPTH = 16

# Largest eval --approx-depth: the bound's denominator has about 0.3 digits
# per unit of depth, and 4096 keeps it far below the interpreter's
# 4300-digit limit on int-to-string conversion.
MAX_APPROX_DEPTH = 4096

# Most decimal digits of a printed integer: an exact value's numerator and
# denominator m^2 2^q have at most 2 * MAX_EVAL_DIGITS bits, so the digit
# limit bounds them; the interpreter's 4300-digit cap is lifted to this.
MAX_STR_DIGITS = 2 * MAX_EVAL_DIGITS

# Largest signed localcount --max-order: the search tables and the word's
# scaled values hold about order^2 bits; a count at 4096 peaks near 35 MB.
MAX_LOCALCOUNT_ORDER = 4096

# Largest series --terms: 10^6 float terms take well under a second.
MAX_SERIES_TERMS = 10**6

# Fixed canvas: 768 x 512 makes the [0,1] x [0,2/3] viewport square-scaled
# (768 * 2/3 = 512) and keeps every sample coordinate dyadic.
CANVAS_WIDTH = 768
CANVAS_HEIGHT = 512

CURVE_STROKE = "#27496d"
HIGHLIGHT_STROKE = "#b3432b"


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: sampling density and hump highlights."""

    resolution: int = 512  # samples per unit; power of two keeps abscissas dyadic
    highlights: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.resolution < 1 or self.resolution & (self.resolution - 1):
            raise ValueError(f"resolution must be a power of two, got {self.resolution}")


def _decimal(value: Fraction) -> str:
    """Exact decimal rendering of a dyadic rational (for SVG coordinates)."""
    num, den = value.numerator, value.denominator
    exponent = den.bit_length() - 1
    if den != 1 << exponent:
        raise ValueError(f"not dyadic: {value}")
    scaled = num * 5**exponent
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(exponent + 1, "0")
    if exponent:
        head, tail = digits[:-exponent], digits[-exponent:]
        tail = tail.rstrip("0")
        return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"
    return f"{sign}{digits}"


def render_svg(spec: PlotSpec) -> str:
    """Deterministic SVG: the exact sampled curve plus one box per highlight.

    The polyline passes through (k / resolution, T(k / resolution)) for every
    k; each highlight x0 must be a hump corner and gets the rectangle
    I(x0) x J(x0), e.g. 1/4 -> [1/4, 1/2] x [1/2, 2/3].  Raises
    :class:`NotBalancedError` for non-corner highlights.
    """
    def place(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return x * CANVAS_WIDTH, CANVAS_HEIGHT - y / TWO_THIRDS * CANVAS_HEIGHT

    points = []
    for k in range(spec.resolution + 1):
        x = Fraction(k, spec.resolution)
        px, py = place(x, eval_dyadic(x))
        points.append(f"{_decimal(px)},{_decimal(py)}")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" '
        f'height="{CANVAS_HEIGHT}" viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        f'<rect x="0" y="0" width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" fill="#ffffff"/>',
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="{CURVE_STROKE}" stroke-width="1"/>',
    ]
    for x0 in spec.highlights:
        word = balanced_word_of(x0)
        if word is None:
            raise NotBalancedError(f"{format_rational(x0)} is not a hump corner")
        hump = analyze_word(word)
        left, right = hump.x_interval
        bottom, top = hump.y_projection
        px, py = place(left, top)
        lines.append(
            f'<rect x="{_decimal(px)}" y="{_decimal(py)}" '
            f'width="{_decimal((right - left) * CANVAS_WIDTH)}" '
            f'height="{_decimal((top - bottom) / TWO_THIRDS * CANVAS_HEIGHT)}" '
            f'fill="none" stroke="{HIGHLIGHT_STROKE}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand plumbing.


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _witness_field(report) -> Optional[str]:
    if report.witness_preimage is not None:
        return format_rational(report.witness_preimage)
    return report.witness


def _cmd_eval(args: argparse.Namespace) -> int:
    x = parse_rational(args.x)
    if args.approx_depth is not None:
        value, bound = eval_approx(x, args.approx_depth)
        payload = {
            "x": format_rational(x),
            "T": format_rational(value),
            "method": f"truncated(depth={args.approx_depth})",
            "bound": format_rational(bound),
        }
    else:
        payload = {
            "x": format_rational(x),
            "T": format_rational(eval_rational(x)),
            "method": "exact",
        }
    _emit(_json(payload), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(parse_rational(args.y), max_states=args.max_states)
    payload: dict = {
        "y": format_rational(report.ordinate),
        "verdict": report.verdict.value,
    }
    if report.cardinality is not None:
        payload["count"] = report.cardinality
    if report.preimages is not None:
        payload["preimages"] = [format_rational(x) for x in report.preimages]
    witness = _witness_field(report)
    if witness is not None:
        payload["witness"] = witness
    payload["states_explored"] = report.diagnostics.get("states", 0)
    _emit(_json(payload), args.out)
    return 4 if report.verdict is Verdict.INDETERMINATE else 0


def _cmd_levelset(args: argparse.Namespace) -> int:
    report = classify(parse_rational(args.y), max_states=args.max_states)
    if args.format == "csv":
        if report.verdict is not Verdict.FINITE:
            raise ValueError(
                f"csv output needs a finite level set; {format_rational(report.ordinate)} "
                f"is {report.verdict.value}"
            )
        lines = ["i,x"] + [
            f"{i},{format_rational(x)}" for i, x in enumerate(report.preimages)
        ]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "y": format_rational(report.ordinate),
        "verdict": report.verdict.value,
        "cardinality": report.cardinality,
        "preimages": (
            None
            if report.preimages is None
            else [format_rational(x) for x in report.preimages]
        ),
        "n_local": report.n_local,
        "witness": _witness_field(report),
    }
    _emit(_json(payload), args.out)
    return 4 if report.verdict is Verdict.INDETERMINATE else 0


def _cmd_census(args: argparse.Namespace) -> int:
    rows = []
    for m in range(args.max_order + 1):
        total, leading = census(m)
        if args.filter == "leading":
            count = count_balanced(m, leading=True)
            expected = leading
        elif args.filter == "gen1":
            count = count_balanced(m, generation=1)
            expected = 2 * catalan(m - 1) if m >= 1 else 0
        else:
            count = count_balanced(m)
            expected = total
        rows.append((m, count, expected))
    if args.format == "json":
        payload = {
            "filter": args.filter or "all",
            "rows": [
                {"m": m, "count": c, "expected": e, "match": c == e}
                for m, c, e in rows
            ],
        }
        _emit(_json(payload), args.out)
    else:
        lines = ["m,count,expected,match"] + [
            f"{m},{c},{e},{'true' if c == e else 'false'}" for m, c, e in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    partials = {
        "catalan": catalan_series_partial,
        "cardinality": expected_cardinality_series_partial,
        "local": expected_local_series_partial,
    }
    value = partials[args.which](args.terms)
    payload = {"which": args.which, "terms": args.terms, "value": value}
    _emit(_json(payload), args.out)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    report = grid_experiment(args.depth, max_states=args.max_states)
    indeterminate = report.verdict_counts[Verdict.INDETERMINATE.value]
    if args.format == "json":
        payload = {
            "depth": report.depth,
            "ordinates": report.ordinate_count,
            "verdicts": report.verdict_counts,
            "histogram": {str(k): v for k, v in report.cardinality_histogram.items()},
            "finite_fraction": report.finite_fraction,
            "fraction_cardinality_two": report.fraction_cardinality_two,
            "mean_n_local": report.mean_n_local,
        }
        _emit(_json(payload), args.out)
    else:
        lines = ["j,y,verdict,cardinality,n_local,states"]
        for row in report.rows:
            cardinality = "" if row.cardinality is None else row.cardinality
            n_local = "" if row.n_local is None else row.n_local
            lines.append(
                f"{row.index},{format_rational(row.ordinate)},{row.verdict.value},"
                f"{cardinality},{n_local},{row.states}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 4 if indeterminate else 0


def _cmd_signed(args: argparse.Namespace) -> int:
    signs = SignSequence.parse(args.signs, args.preperiod or "")
    if args.action == "eval":
        if args.x is None:
            raise ValueError("signed eval requires --x")
        x = parse_rational(args.x)
        payload = {
            "signs": str(signs),
            "x": format_rational(x),
            "value": format_rational(eval_rational(x, signs)),
        }
    elif args.action == "extrema":
        extrema = signed_extrema(signs)
        payload = {
            "signs": str(signs),
            "max": format_rational(extrema.maximum),
            "min": format_rational(extrema.minimum),
            "height": format_rational(extrema.height),
        }
    else:  # localcount
        if args.y is None:
            raise ValueError("signed localcount requires --y")
        y = parse_rational(args.y)
        count = truncated_local_count(y, signs, args.max_order)
        payload = {
            "signs": str(signs),
            "y": format_rational(y),
            "max_order": args.max_order,
            "count": count,
        }
    _emit(_json(payload), args.out)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    highlights = tuple(
        parse_rational(token)
        for token in (args.highlight.split(",") if args.highlight else [])
        if token.strip()
    )
    spec = PlotSpec(resolution=1 << args.depth, highlights=highlights)
    _emit(render_svg(spec), args.out)
    return 0


def _int_at_least(low: int, at_most: Optional[int] = None):
    """argparse type: an integer in [low, at_most], else a usage error naming the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="takagi",
        description="Exact computation with the Takagi curve and its level sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the curve exactly at a rational")
    p.add_argument("--x", required=True, help="abscissa p/q in [0, 1]")
    p.add_argument(
        "--approx-depth",
        type=_int_at_least(0, MAX_APPROX_DEPTH),
        default=None,
        help="truncate the series at this depth and report the error bound",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("classify", help="finite / countable / uncountable verdict")
    p.add_argument("--y", required=True, help="ordinate p/q (use --y=-1/4 if negative)")
    p.add_argument("--max-states", type=_int_at_least(1), default=DEFAULT_MAX_STATES)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("levelset", help="full level-set report with preimages")
    p.add_argument("--y", required=True, help="ordinate p/q (use --y=-1/4 if negative)")
    p.add_argument("--max-states", type=_int_at_least(1), default=DEFAULT_MAX_STATES)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_levelset)

    p = sub.add_parser("census", help="hump counts against the closed forms")
    p.add_argument("--max-order", type=_int_at_least(0, MAX_CENSUS_ORDER), required=True)
    p.add_argument("--filter", choices=("leading", "gen1"), default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("series", help="partial sums of the expectation series")
    p.add_argument("--which", choices=("catalan", "cardinality", "local"), required=True)
    p.add_argument("--terms", type=_int_at_least(0, MAX_SERIES_TERMS), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("grid", help="classify every ordinate j/(3*4^depth)")
    p.add_argument("--depth", type=_int_at_least(0, MAX_GRID_DEPTH), required=True)
    p.add_argument("--max-states", type=_int_at_least(1), default=DEFAULT_MAX_STATES)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("signed", help="signed-weight variants of the curve")
    p.add_argument("action", choices=("eval", "extrema", "localcount"))
    p.add_argument(
        "--signs",
        required=True,
        help="repeating sign block, e.g. ++- (use --signs=-+ if it starts with -)",
    )
    p.add_argument("--preperiod", default="", help="signs before the repeating block")
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None, help="ordinate p/q (use --y=-1/4 if negative)")
    p.add_argument("--max-order", type=_int_at_least(0, MAX_LOCALCOUNT_ORDER), default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_signed)

    p = sub.add_parser("plot", help="SVG of the curve with optional hump boxes")
    p.add_argument(
        "--depth", type=_int_at_least(0, MAX_PLOT_DEPTH), default=9, help="log2 of samples per unit"
    )
    p.add_argument("--highlight", default="", help="comma-separated hump corners p/q")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
    if cap:
        sys.set_int_max_str_digits(max(cap, MAX_STR_DIGITS))
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
