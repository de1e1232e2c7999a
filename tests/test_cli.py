"""End-to-end CLI checks: schemas, exit codes, determinism, SVG output."""

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import _oracles as oracles
from takagi.cli import main
from takagi.curve import eval_rational
from takagi.rationals import parse_rational


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the README's console examples


def readme_examples():
    """(argv, shown output) for each `$ takagi ...` line of the README's
    console block, in order; the shown output runs to the next command."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```console\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ takagi ")[1:]:
        command, _, shown = chunk.partition("\n")
        examples.append((shlex.split(command, comments=True), shown.rstrip("\n")))
    return examples


def test_readme_console_examples():
    checked = []
    for argv, shown in readme_examples():
        if argv[0] in ("eval", "levelset", "classify"):
            assert run(*argv) == (0, shown + "\n", "")
            checked.append(argv[:3])
        elif argv[0] == "grid":  # the README shows the first rows, then "..."
            assert shown.endswith("\n...")
            code, out, _ = run(*argv)
            assert code == 0 and out.startswith(shown[: -len("...")])
            checked.append(argv[:1])
    assert checked == [
        ["eval", "--x", "1/4"],
        ["levelset", "--y", "7/12"],
        ["classify", "--y", "2/3"],
        ["classify", "--y", "1/5"],
        ["grid"],
    ]


# ---------------------------------------------------------------------------
# eval


def test_eval_exact_payload_bytes():
    code, out, err = run("eval", "--x", "1/4")
    assert (code, err) == (0, "")
    assert out == '{\n  "x": "1/4",\n  "T": "1/2",\n  "method": "exact"\n}\n'


def test_eval_any_denominator():
    code, out, _ = run("eval", "--x", "1/5")
    assert code == 0
    assert json.loads(out)["T"] == "8/15"


def test_eval_approx_reports_certificate():
    code, out, _ = run("eval", "--x", "1/3", "--approx-depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "truncated(depth=8)"
    value = parse_rational(payload["T"])
    bound = parse_rational(payload["bound"])
    assert abs(eval_rational(Fraction(1, 3)) - value) <= bound


def test_eval_approx_depth_bounds():
    code, out, err = run("eval", "--x", "1/3", "--approx-depth", "4096")
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == "truncated(depth=4096)"
    # the truncated digits never need the expansion's period
    code, out, err = run("eval", "--x", "1/1000000007", "--approx-depth", "10")
    assert (code, err) == (0, "")
    assert json.loads(out)["bound"] == "1/96"
    for depth in ("-1", "100000"):
        code, out, err = run("eval", "--x", "1/3", "--approx-depth", depth)
        assert (code, out) == (2, "")
        assert "--approx-depth" in err


# ---------------------------------------------------------------------------
# classify / levelset


def test_classify_finite_gold():
    code, out, _ = run("classify", "--y", "1/8")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "finite"
    assert payload["count"] == 2
    assert payload["preimages"] == ["1/48", "47/48"]
    assert "witness" not in payload


def test_classify_countable_witness_attains():
    code, out, _ = run("classify", "--y", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "countably-infinite"
    assert "count" not in payload and "preimages" not in payload
    witness = parse_rational(payload["witness"])
    assert eval_rational(witness) == Fraction(1, 2)


def test_classify_unsupported_denominator_exits_3():
    # Denominators other than 2^k and 3 * 2^k once exited 3; now 1/5 gets a
    # verdict, and 1/49, whose suffix (001)^inf drifts, the slope budget.
    code, out, err = run("classify", "--y", "1/5")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 2
    code, out, err = run("classify", "--y", "1/49")
    assert (code, err) == (4, "")
    payload = json.loads(out)
    assert payload["verdict"] == "indeterminate"
    assert payload["witness"] == "budget exceeded (slope)"


def test_classify_budget_exhaustion_exits_4_with_result():
    code, out, _ = run("classify", "--y", "9/16", "--max-states", "3")
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "indeterminate"
    assert payload["states_explored"] == 3
    # 2^35 preimages: over the listing budget
    code, out, _ = run("classify", "--y", f"{2**69 - 1}/{3 * 2**68}")
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "indeterminate"
    assert payload["witness"] == "budget exceeded (preimages)"


def test_nonpositive_state_budget_is_usage_error():
    for command in ("classify", "levelset", "grid"):
        target = ("--depth", "1") if command == "grid" else ("--y", "1/8")
        for budget in ("0", "-5"):
            code, out, err = run(command, *target, "--max-states", budget)
            assert (code, out) == (2, "")
            assert "--max-states" in err


def test_negative_ordinate_needs_equals_form():
    code, out, _ = run("classify", "--y=-1/4")
    assert code == 0
    assert json.loads(out)["count"] == 0
    assert run("classify", "--y", "-1/4")[0] == 2


def test_levelset_json_roundtrip():
    code, out, _ = run("levelset", "--y", "7/12")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == 4 and payload["n_local"] == 1
    preimages = [parse_rational(s) for s in payload["preimages"]]
    assert len(preimages) == 4 == len(set(preimages))
    for x in preimages:
        assert eval_rational(x) == Fraction(7, 12)


def test_levelset_csv():
    code, out, _ = run("levelset", "--y", "1/8", "--format", "csv")
    assert code == 0
    assert out == "i,x\n0,1/48\n1,47/48\n"


def test_levelset_csv_refuses_infinite_sets():
    code, out, err = run("levelset", "--y", "1/2", "--format", "csv")
    assert (code, out) == (2, "")
    assert "countably-infinite" in err


# ---------------------------------------------------------------------------
# census / series / grid


def test_census_csv_matches_closed_forms():
    code, out, _ = run("census", "--max-order", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,count,expected,match"
    assert lines[1:4] == ["0,1,1,true", "1,2,2,true", "2,6,6,true"]
    assert all(line.endswith("true") for line in lines[1:])


def test_census_filters():
    code, out, _ = run("census", "--max-order", "4", "--filter", "leading", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["count"] for r in rows] == [1, 1, 2, 5, 14]  # Catalan numbers
    assert all(r["match"] for r in rows)

    code, out, _ = run("census", "--max-order", "4", "--filter", "gen1", "--format", "json")
    rows = json.loads(out)["rows"]
    assert [r["count"] for r in rows] == [0, 2, 2, 4, 10]  # 2 * Catalan(m-1)
    assert all(r["match"] for r in rows)


# SHA-256 of `census --max-order 10` per filter and format.
CENSUS_DIGESTS = {
    ("all", "csv"): "a2ddecc7df0027887455e4bb2d3efe6541dd888a97b26ec344b1b44861e0093f",
    ("all", "json"): "f0b289d3df7d793b54f9de5b2590de6a341c553978bbd37c3dbb1936d364a6a0",
    ("leading", "csv"): "ac44afa878ac3a9c1ee0e1ea81e5ffdcdf97d16ea93f7a0f306f14e4a0bb6d6e",
    ("leading", "json"): "b148be736dfecba791e4ae63c2680ba76bb30b2d9a376a8e69196231021b9a35",
    ("gen1", "csv"): "f0ba734304c9b56c8c1fc3c11f2ae66f369a8cf398292eb22722af1fc0a08470",
    ("gen1", "json"): "53912adeaa4c43c2f080f45b15a5aa888d734af51da6661aae0efa006f36b8d9",
}


def census_argv(order, which, fmt):
    argv = ["census", "--max-order", str(order), "--format", fmt]
    return argv if which == "all" else argv + ["--filter", which]


@pytest.mark.parametrize("which, fmt", sorted(CENSUS_DIGESTS))
def test_census_bytes(which, fmt):
    code, out, _ = run(*census_argv(10, which, fmt))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_DIGESTS[which, fmt]


@pytest.mark.parametrize("which", ["all", "leading", "gen1"])
def test_census_top_order_counts_in_little_memory(which):
    # order 12 has binomial(24, 12) = 2704156 humps: they are counted, not listed
    tracemalloc.start()
    try:
        code, out, _ = run(*census_argv(12, which, "json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = json.loads(out)["rows"]
    assert code == 0 and [r["m"] for r in rows] == list(range(13))
    assert all(r["match"] for r in rows)
    assert peak < 1 << 20, peak


def test_census_negative_order_is_usage_error():
    code, out, err = run("census", "--max-order", "-1")
    assert (code, out) == (2, "")
    assert "--max-order" in err


def test_census_order_above_limit_is_usage_error():
    # The census stops at order 12 (binomial(24, 12) humps); 13 is refused
    # at parse time.
    code, out, err = run("census", "--max-order", "13")
    assert (code, out) == (2, "")
    assert "--max-order" in err and "<= 12" in err


def test_series_values():
    code, out, _ = run("series", "--which", "catalan", "--terms", "0")
    assert code == 0 and json.loads(out)["value"] == 1.0
    code, out, _ = run("series", "--which", "local", "--terms", "2")
    assert json.loads(out)["value"] == 1.03125
    code, out, _ = run("series", "--which", "cardinality", "--terms", "1")
    assert json.loads(out)["value"] == 2.25


def test_series_terms_bounds():
    for terms in ("-1", "1000001", "1000000000"):
        code, out, err = run("series", "--which", "local", "--terms", terms)
        assert (code, out) == (2, "")
        assert "--terms" in err
    code, out, err = run("series", "--which", "cardinality", "--terms", "1000000")
    assert (code, err) == (0, "")


def test_grid_csv_depth1():
    code, out, _ = run("grid", "--depth", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,y,verdict,cardinality,n_local,states"
    assert lines[1] == "0,0/1,finite,2,1,1"
    assert lines[2] == "1,1/12,finite,2,1,15"
    assert len(lines) == 10  # header + 9 ordinates
    # empty cells where cardinality is undefined
    assert any(",countably-infinite,,," in line for line in lines)


def test_grid_json_schema():
    code, out, _ = run("grid", "--depth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 1 and payload["ordinates"] == 9
    assert payload["verdicts"] == {
        "finite": 6,
        "countably-infinite": 2,
        "uncountable": 1,
        "indeterminate": 0,
    }
    assert payload["finite_fraction"] == pytest.approx(6 / 9)


def test_grid_depth_bounds():
    for depth in ("-1", "7"):
        code, out, err = run("grid", "--depth", depth)
        assert (code, out) == (2, "")
        assert "--depth" in err


@pytest.mark.parametrize(
    "depth, digest",
    [
        ("5", "843212d7482204167158f63073e22fa0cd3de91e3914dbde71a39876dc166f63"),
        ("6", "4aa074b2b22f134f6f4d5eb2ed392804f3e1cb1d043c3355c7ebcdae9e8112b1"),
    ],
)
def test_grid_csv_fingerprint(depth, digest):
    """The grid's byte contract: any moved verdict, count or state total in
    the 2049 (depth 5) or 8193 (depth 6) rows changes the digest."""
    code, out, err = run("grid", "--depth", depth, "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# signed


def test_signed_subcommands():
    code, out, _ = run("signed", "eval", "--signs", "+-", "--x", "1/3")
    assert code == 0
    assert json.loads(out) == {"signs": "(+-)", "x": "1/3", "value": "2/9"}

    code, out, _ = run("signed", "extrema", "--signs", "++-")
    assert json.loads(out) == {
        "signs": "(++-)",
        "max": "67/126",
        "min": "0/1",
        "height": "67/126",
    }

    code, out, _ = run("signed", "localcount", "--signs", "+-", "--y", "1/2", "--max-order", "3")
    assert json.loads(out)["count"] == 1

    # the hump search takes any denominator, not just 2^k and 3 * 2^k
    code, out, _ = run("signed", "localcount", "--signs", "+", "--y", "1/5", "--max-order", "8")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_signed_localcount_high_order():
    # The hump search runs 2 * 2000 digits deep, far past the interpreter's
    # recursion limit.
    code, out, _ = run("signed", "localcount", "--signs", "+", "--y", "1/3", "--max-order", "2000")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_signed_max_order_bounds():
    code, out, err = run("signed", "localcount", "--signs", "+", "--y", "1/3", "--max-order", "-1")
    assert (code, out) == (2, "")
    assert "--max-order" in err
    code, out, err = run("signed", "localcount", "--signs", "+", "--y", "1/3", "--max-order", "4097")
    assert (code, out) == (2, "")
    assert "--max-order" in err and "4096" in err
    code, out, _ = run("signed", "localcount", "--signs", "+", "--y", "1/3", "--max-order", "0")
    assert code == 0
    assert json.loads(out)["count"] == 1  # the root hump's band [0, 1/2]


def test_eval_walk_length_limit():
    # 1/30011 has a period of 30010 digits, within the 2^15-digit limit; its
    # exact value has 9,038 characters, past the interpreter's 4300-digit
    # cap on int-to-str conversion, which main lifts and then restores.
    cap = sys.get_int_max_str_digits()
    code, out, err = run("eval", "--x", "1/30011")
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == cap
    num, den = json.loads(out)["T"].split("/")
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(cap)
    assert value == oracles.periodic_series_value(Fraction(1, 30011))
    # 1/32771 has a period of 32770 digits and 1/1000000000039 a far longer
    # one; with signs (++-) 1/30011 needs lcm(30010, 3) = 90030 aligned
    # digits: all over the limit.
    for argv in (
        ("eval", "--x", "1/32771"),
        ("eval", "--x", "1/1000000000039"),
        ("signed", "eval", "--signs", "++-", "--x", "1/30011"),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert "32768" in err


def test_signed_missing_point_is_usage_error():
    code, out, err = run("signed", "eval", "--signs", "+-")
    assert (code, out) == (2, "")


# ---------------------------------------------------------------------------
# plot


def test_plot_svg_structure():
    code, out, _ = run("plot", "--depth", "4")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="768" height="512"')
    assert out.endswith("</svg>\n")
    polyline = next(line for line in out.splitlines() if line.startswith("<polyline"))
    points = polyline.split('points="')[1].split('"')[0].split()
    assert len(points) == 17  # 2^4 + 1 samples
    assert points[0] == "0,512" and points[-1] == "768,512"


def test_plot_depth_bounds():
    code, out, _ = run("plot", "--depth", "0")
    assert code == 0
    assert 'points="0,512 768,512"' in out
    for depth in ("-1", "17", "40"):
        code, out, err = run("plot", "--depth", depth)
        assert (code, out) == (2, "")
        assert "--depth" in err


def test_plot_highlight_box():
    code, out, _ = run("plot", "--depth", "4", "--highlight", "1/4")
    assert code == 0
    rects = [line for line in out.splitlines() if line.startswith("<rect") and "stroke" in line]
    assert len(rects) == 1
    assert 'x="192" y="0" width="192" height="128"' in rects[0]


def test_plot_rejects_non_corner_highlight():
    code, out, err = run("plot", "--depth", "4", "--highlight", "1/3")
    assert (code, out) == (2, "")
    assert "error:" in err


# ---------------------------------------------------------------------------
# plumbing


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "value.json"
    code, out, _ = run("eval", "--x", "1/4", "--out", str(target))
    assert (code, out) == (0, "")
    assert json.loads(target.read_text())["T"] == "1/2"


def test_byte_determinism():
    for argv in (
        ("grid", "--depth", "1", "--format", "json"),
        ("plot", "--depth", "5", "--highlight", "1/4,1/2"),
        ("levelset", "--y", "7/12"),
    ):
        first, second = run(*argv), run(*argv)
        assert first == second


def test_usage_errors_and_help():
    assert run("eval")[0] == 2  # missing required --x
    assert run("no-such-command")[0] == 2
    assert run("--help")[0] == 0
    assert run("classify", "--help")[0] == 0
