"""The benchmark's workloads: seeded inputs, one timed operation, one check.

Every workload is a small class with the same four methods:

* ``build(mods, seed)`` makes the input pool from the seed alone, so the same
  seed always gives the same inputs;
* ``size(item)`` is the number of operations one pool item carries;
* ``run(mods, item)`` is the timed call into the package.  It returns the
  result and, when one item carries several operations, their latencies;
* ``check(mods, item, result)`` runs outside the timed region and returns an
  :class:`Outcome`.

``mods`` is a namespace holding the freshly imported ``takagi`` modules, so
every call is looked up on the module at call time and sees the wrappers the
tracer installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

# SHA-256 of `takagi grid --depth D --format csv`, taken from the program as
# it stood when the benchmark was written.  Any change to a verdict,
# cardinality, local count or state count changes the digest.
LATTICE_SHA256 = {
    2: "de17113dd0b063616ab48b3d873b63e1a6c963de08ecc7282eb832976c9b2d41",
    5: "843212d7482204167158f63073e22fa0cd3de91e3914dbde71a39876dc166f63",
}


@dataclass(frozen=True)
class Outcome:
    """How the operations of one pool item fared in their check."""

    passed: int
    wrong: int = 0
    undecided: int = 0


class Lattice:
    """The user's sweep: `takagi grid --depth 5 --format csv`, in-process.

    One operation is one CSV row, i.e. one ordinate j / (3 * 4^depth).  The
    seed does not change the lattice; each pool item is one whole sweep.
    Row latency is the time between consecutive rows finishing, read at the
    boundary where ``stats`` calls ``classify``.
    """

    name = "lattice"
    repeats = True
    block_items = 1
    tail_percentile = 99.5

    def __init__(self, depth: int = 5) -> None:
        self.depth = depth

    def build(self, mods: Any, seed: int) -> list:
        return [["grid", "--depth", str(self.depth), "--format", "csv"]]

    def size(self, argv: list) -> int:
        return 2 * 4**self.depth + 1

    def run(self, mods: Any, argv: list) -> tuple[Any, list[float]]:
        stats = mods.stats
        inner = stats.classify
        clock = time.perf_counter
        marks: list[float] = []

        def classify_row(*args, **kwargs):
            report = inner(*args, **kwargs)
            marks.append(clock())
            return report

        out = io.StringIO()
        stats.classify = classify_row
        try:
            marks.append(clock())
            with contextlib.redirect_stdout(out):
                code = mods.cli.main(argv)
        finally:
            stats.classify = inner
        rows = self.size(argv)
        if len(marks) != rows + 1:
            raise RuntimeError(
                f"row-latency hook saw {len(marks) - 1} classify calls for {rows} rows"
            )
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        return (code, out.getvalue()), latencies

    def check(self, mods: Any, argv: list, result: tuple[int, str]) -> Outcome:
        code, text = result
        rows = self.size(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0 or digest != LATTICE_SHA256[self.depth]:
            return Outcome(passed=0, wrong=rows)
        return Outcome(passed=rows)


class OperationBudget(BaseException):
    """Raised inside an operation that outlives its time budget."""


class Deep:
    """Seeded deep ordinates j / (3 * 4^n) through ``machine.classify``.

    The pool is built in shuffled blocks with fixed stratum counts, so every
    prefix of it has nearly the same mix of depths.  Draws never repeat an
    ordinate in practice (j has at least 64 random bits), so a cache across
    ordinates gains nothing here.

    Level-set sizes are heavy-tailed: a few draws in ten thousand have tens
    of thousands of preimages or more, and nothing bounds the largest.  So
    one classification gets ``budget_s`` seconds; one cut off there returns
    no report and counts as undecided, like the program's own budget exits.
    """

    name = "deep"
    repeats = False
    tail_percentile = 98.0
    budget_s = 5.0

    def __init__(
        self,
        strata: tuple[tuple[int, int], ...] = ((32, 12), (64, 12), (128, 1)),
        blocks: int = 400,
    ) -> None:
        self.strata = strata
        self.blocks = blocks
        self.block_items = sum(count for _, count in strata)

    def build(self, mods: Any, seed: int) -> list[Fraction]:
        rng = random.Random(f"deep-{seed}")
        pool: list[Fraction] = []
        for _ in range(self.blocks):
            chunk = [
                Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n)
                for n, count in self.strata
                for _ in range(count)
            ]
            rng.shuffle(chunk)
            pool.extend(chunk)
        return pool

    def size(self, y: Fraction) -> int:
        return 1

    def run(self, mods: Any, y: Fraction) -> tuple[Any, None]:
        armed = True

        def interrupt(signum, frame):
            if armed:
                raise OperationBudget

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        try:
            report = mods.machine.classify(y)
            armed = False  # an alarm from here on is ignored, never leaked
        except OperationBudget:
            report = None
        finally:
            armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return report, None

    def check(self, mods: Any, y: Fraction, report: Any) -> Outcome:
        if report is None:  # cut off by the time budget
            return Outcome(passed=1, undecided=1)
        eval_rational = mods.curve.eval_rational
        verdict = report.verdict.value
        if verdict == "indeterminate":
            return Outcome(passed=1, undecided=1)
        if verdict == "finite":
            pre = report.preimages
            ok = (
                pre is not None
                and report.cardinality == len(pre)
                and set(pre) == {1 - x for x in pre}
                and all(eval_rational(x) == y for x in pre)
            )
        elif verdict == "countably-infinite":
            w = report.witness_preimage
            ok = w is not None and eval_rational(w) == y
        else:
            ok = verdict == "uncountable"
        return Outcome(passed=1) if ok else Outcome(passed=0, wrong=1)


def probe_deep(mods: Any, seed: int, draws: int = 12) -> dict[str, int]:
    """Classify a few ordinates at n near 512 and tally how each ended.

    On the program as the benchmark found it, about a third of these raise
    RecursionError and the rest exhaust the slope budget.  They are kept out
    of the measured ``deep`` operations, which must all complete, and are
    reported beside them so the crash stays visible.
    """
    rng = random.Random(f"deep-probe-{seed}")
    tally: dict[str, int] = {"attempted": 0}
    for _ in range(draws):
        n = rng.randint(504, 520)
        y = Fraction(rng.randrange(2 * 4**n + 1), 3 * 4**n)
        tally["attempted"] += 1
        try:
            verdict = mods.machine.classify(y).verdict.value
        except Exception as exc:  # every way of failing is tallied by type
            key = f"raised {type(exc).__name__}"
        else:
            key = verdict
        tally[key] = tally.get(key, 0) + 1
    return tally


class Curve:
    """Seeded records through the digit-walk layers; ``machine`` idles here.

    A record is a rational x = p/q with q <= 1024, a sign sequence with
    preperiod <= 2 and period <= 5, and an ordinate j / (3 * 4^8).  One
    operation runs the record through ``to_binary``, ``eval_rational``, the
    signed evaluation with all-plus and with the record's signs, and the two
    truncated hump counts at order 8.
    """

    name = "curve"
    repeats = False
    block_items = 100
    tail_percentile = 99.5
    max_order = 8
    max_q = 1024

    def __init__(self, records: int = 20000) -> None:
        self.records = records

    def build(self, mods: Any, seed: int) -> list[tuple]:
        rng = random.Random(f"curve-{seed}")
        sign_sequence = mods.signed.SignSequence
        mesh = 4**self.max_order

        def signs(count: int) -> tuple[int, ...]:
            return tuple(rng.choice((1, -1)) for _ in range(count))

        pool = []
        for _ in range(self.records):
            q = rng.randint(1, self.max_q)
            x = Fraction(rng.randrange(q), q)
            preperiod = signs(rng.randint(0, 2))
            period = signs(rng.randint(1, 5))
            y = Fraction(rng.randint(0, 2 * mesh), 3 * mesh)
            pool.append((x, sign_sequence(preperiod, period), y))
        return pool

    def size(self, record: tuple) -> int:
        return 1

    def run(self, mods: Any, record: tuple) -> tuple[Any, None]:
        x, signs, y = record
        signed = mods.signed
        return (
            mods.rationals.to_binary(x),
            mods.curve.eval_rational(x),
            signed.eval_signed_rational(x, signed.ALL_PLUS),
            signed.eval_signed_rational(x, signs),
            mods.humps.truncated_hits(y, self.max_order, leading_only=True),
            signed.truncated_local_count(y, signed.ALL_PLUS, self.max_order),
        ), None

    def check(self, mods: Any, record: tuple, result: tuple) -> Outcome:
        x, signs, _ = record
        expansion, value, value_plus, value_signed, hits, local = result
        # Every term r_n 2^-n dist(2^n x, Z) is unchanged by x -> 1 - x.
        ok = (
            expansion.value() == x
            and value == value_plus
            and local == len(hits)
            and mods.signed.eval_signed_rational(1 - x, signs) == value_signed
        )
        return Outcome(passed=1) if ok else Outcome(passed=0, wrong=1)


WORKLOADS = {w.name: w for w in (Lattice, Deep, Curve)}
