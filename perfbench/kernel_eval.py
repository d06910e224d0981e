"""kernel-eval: scattered scalar calls into zetalab's numeric kernels.

Inputs come from a fixed corpus made from CORPUS_SEED.  Its mpmath 1.3.0
reference values are stored in data/kernel_refs.json.gz; regenerate them
with ``python3 perfbench/make_kernel_refs.py``.  A run's ``--seed`` shuffles
each class of the corpus, so no input repeats within a run, except that the
first PANEL_ROUNDS rounds take the corpus in stored order for every seed:
the accuracy margins are computed over those rounds, so they are taken over
the same inputs in every run.

The ``broken`` class holds inputs where ``hurwitz_zeta`` is silently wrong
today (Re s in [-12, -6] with |Im s| in [5, 40], and s = 1/2 + it with
t in [150, 400]).  They are taken in stored order whatever the seed, one per
round, and counted failed while the kernel returns a value outside the bound;
an EvaluationError there counts as correct.
"""

from __future__ import annotations

import cmath
import gzip
import itertools
import json
import math
import random
import subprocess
import sys
from array import array
from pathlib import Path

CORPUS_SEED = 20261017
CORPUS_ROUNDS = 4500
PANEL_ROUNDS = 20
DATA = Path(__file__).resolve().parent / "data" / "kernel_refs.json.gz"

# Ops of each class in one round.  Every round has exactly one broken input,
# so the failed share is 1/19 in every run.  The weights put the median
# latency inside the cluster of single Euler-Maclaurin calls (zeta) and the
# 90th percentile inside the cluster of 32-point contour derivatives, never
# in the gap between them.
ROUND = (("zeta", 8), ("deriv", 4), ("stieltjes", 2), ("taylor", 2),
         ("digamma", 1), ("gamma", 1), ("broken", 1))
ROUND_SIZE = sum(n for _, n in ROUND)

EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _alpha(rng: random.Random, lo: float = 0.05, hi: float = 50.0) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.5g}")


def _zeta(rng):
    # Re s >= -1: at Re s in [-2, -1.5] with |Im s| >= 20 the kernel misses
    # its bound by up to 1.3 times
    while True:
        s = complex(_u(rng, -1, 10), _u(rng, -40, 40))
        if abs(s - 1) >= 0.05:
            return [s.real, s.imag, _alpha(rng)]


def _deriv(rng):
    r = rng.randint(1, 4)
    while True:
        # |s - 1| >= 1.5: with the pole within about 1.1 of s, a contour of
        # radius 0.5 misses the bound by up to 21 times (r = 3, 4)
        s = complex(_u(rng, -2, 6), _u(rng, -20, 20))
        if abs(s - 1) >= 1.5:
            return [r, s.real, s.imag, _alpha(rng)]


def _stieltjes(rng):
    return [rng.randint(0, 5), _alpha(rng)]


def _taylor(rng):
    while True:
        s = complex(_u(rng, -2.5, 2.5), _u(rng, -2, 2))
        # keep every zeta(s + n, 3) of the expansion clear of the pole
        if min(abs(s + n - 1) for n in range(5)) >= 0.1:
            break
    a = cmath.rect(rng.uniform(0.2, 1.6), rng.uniform(0, 2 * math.pi))
    return [s.real, s.imag, round(a.real, 4), round(a.imag, 4)]


def _digamma(rng):
    return [_alpha(rng)]


def _gamma(rng):
    # Re z <= 90: from Re z ~ 120 the Lanczos value misses 1e-13 relative
    while True:
        z = complex(_u(rng, -20, 90), _u(rng, -20, 20))
        if z.real > 0.5 or abs(z - round(z.real)) >= 0.01:
            return [z.real, z.imag]


def _broken(rng, index):
    if index % 2 == 0:
        sign = rng.choice((-1, 1))
        return [_u(rng, -12, -6), sign * _u(rng, 5, 40), _alpha(rng, 0.05, 2.0)]
    return [0.5, _u(rng, 150, 400), _alpha(rng, 0.05, 5.0)]


def class_inputs(cls: str, seed: int = CORPUS_SEED, rounds: int = CORPUS_ROUNDS) -> list:
    """One class's inputs, deterministic in ``seed``, no repeats."""
    makers = {"zeta": _zeta, "deriv": _deriv, "stieltjes": _stieltjes,
              "taylor": _taylor, "digamma": _digamma, "gamma": _gamma}
    per_round = dict(ROUND)[cls]
    rng = random.Random(f"{seed}:{cls}")
    entries, seen = [], set()
    while len(entries) < per_round * rounds:
        entry = _broken(rng, len(entries)) if cls == "broken" else makers[cls](rng)
        key = tuple(entry)
        if key not in seen:
            seen.add(key)
            entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# Calls and bounds
# ---------------------------------------------------------------------------


def call(zl, cls: str, x: list) -> complex:
    """One kernel call on a corpus input."""
    if cls in ("zeta", "broken"):
        return zl.hurwitz_zeta(complex(x[0], x[1]), x[2])
    if cls == "deriv":
        return zl.hurwitz_zeta_deriv(int(x[0]), complex(x[1], x[2]), x[3])
    if cls == "stieltjes":
        return zl.stieltjes(int(x[0]), x[1])
    if cls == "taylor":
        return zl.hurwitz_taylor(complex(x[0], x[1]), complex(x[2], x[3]), 3)
    if cls == "digamma":
        return complex(zl.digamma(x[0]))
    if cls == "gamma":
        return zl.gamma_complex(complex(x[0], x[1]))
    raise ValueError(f"unknown class {cls!r}")


def bound(cls: str, ref: complex) -> float:
    """The README's accuracy bound for one value.

    zeta (and the other direct kernels): 1e-11 absolute or 1e-13 relative;
    contour derivatives and Stieltjes constants: 100 times that;
    hurwitz_taylor: the 1e-9 cross-validation bound (absolute).
    """
    base = max(1e-11, 1e-13 * abs(ref))
    if cls in ("deriv", "stieltjes"):
        return 100.0 * base
    if cls == "taylor":
        return 1e-9
    return base


def margin(cls: str, got: complex, ref: complex) -> float:
    """log10(bound / error), with errors below double rounding clamped."""
    err = max(abs(got - ref), EPS * max(abs(ref), 1.0))
    return math.log10(bound(cls, ref) / err)


def mpmath_reference(mp, cls: str, x: list) -> complex:
    """The reference value, computed by mpmath alone."""
    if cls in ("zeta", "broken"):
        return complex(mp.zeta(mp.mpc(x[0], x[1]), x[2]))
    if cls == "deriv":
        return complex(mp.zeta(mp.mpc(x[1], x[2]), x[3], x[0]))
    if cls == "stieltjes":
        # the package's Taylor convention: gamma_n * (-1)^n / n!
        n = x[0]
        return complex(mp.stieltjes(n, x[1]) * (-1) ** n / mp.factorial(n))
    if cls == "taylor":
        return complex(mp.zeta(mp.mpc(x[0], x[1]), mp.mpc(x[2], x[3])))
    if cls == "digamma":
        return complex(mp.digamma(x[0]))
    if cls == "gamma":
        return complex(mp.gamma(mp.mpc(x[0], x[1])))
    raise ValueError(f"unknown class {cls!r}")


# ---------------------------------------------------------------------------
# The stored corpus and one run's stream
# ---------------------------------------------------------------------------


class CorpusError(RuntimeError):
    """The stored corpus is missing or unreadable, or its inputs differ
    from the ones its seed makes."""


class Rows:
    """One class's stored rows, packed in an array of doubles: each row is
    an input of ``width`` numbers, then the reference's real and imaginary
    parts."""

    def __init__(self, width: int, values: array):
        self.width, self.values = width, values

    def __len__(self) -> int:
        return len(self.values) // (self.width + 2)

    def __getitem__(self, i: int) -> tuple[list, complex]:
        """(input, reference) of row i."""
        row = self.values[i * (self.width + 2):(i + 1) * (self.width + 2)]
        return row[:-2].tolist(), complex(row[-2], row[-1])


def read_corpus(path: Path = DATA) -> dict:
    """{class: rows}, each row an input followed by the reference's real and
    imaginary parts.  Refuses a corpus whose inputs differ from the ones its
    stored seed makes."""
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    for cls, _ in ROUND:
        rows = doc["classes"].get(cls)
        if rows is None or [row[:-2] for row in rows] != class_inputs(
                cls, doc["seed"], doc["rounds"]):
            raise CorpusError(
                f"stored {cls!r} inputs differ from those seed {doc['seed']} "
                f"makes; regenerate with perfbench/make_kernel_refs.py")
    return {cls: doc["classes"][cls] for cls, _ in ROUND}


def load_corpus(path: Path = DATA) -> dict:
    """{class: Rows} of the stored corpus.

    A child process reads and checks it (read_corpus) and sends it packed,
    so that the decoded JSON, about 35 MB of Python lists, does not count in
    this process's peak memory."""
    corpus = {}
    with subprocess.Popen([sys.executable, __file__, str(path)],
                          stdout=subprocess.PIPE) as child:
        for line in iter(child.stdout.readline, b""):
            cls, width, count = line.split()
            values = array("d")
            values.fromfile(child.stdout, (int(width) + 2) * int(count))
            corpus[cls.decode()] = Rows(int(width), values)
    if child.returncode != 0 or len(corpus) != len(ROUND):
        raise CorpusError(f"could not load the corpus {path}")
    return corpus


def rounds(corpus: dict, seed: int):
    """Yield one run's rounds: lists of (class, input, reference).

    The first PANEL_ROUNDS rounds are the same for every seed; after them
    each class is shuffled by the seed.  Broken inputs keep stored order.
    The stream ends when a class runs out, so no input repeats.
    """
    order = {}
    for cls, per_round in ROUND:
        rows = corpus[cls]
        head = PANEL_ROUNDS * per_round
        tail = list(range(head, len(rows)))
        if cls != "broken":
            random.Random(f"{seed}:{cls}").shuffle(tail)
        order[cls] = list(range(head)) + tail
    n_rounds = min(len(order[cls]) // per_round for cls, per_round in ROUND)
    for j in range(n_rounds):
        ops = []
        for cls, per_round in ROUND:
            for i in order[cls][j * per_round:(j + 1) * per_round]:
                x, ref = corpus[cls][i]
                ops.append((cls, x, ref))
        yield ops


if __name__ == "__main__":
    # Child of load_corpus: write each class as a line "class width count"
    # followed by its rows as raw doubles.
    try:
        stored = read_corpus(Path(sys.argv[1]))
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    out = sys.stdout.buffer
    for name, rows in stored.items():
        out.write(f"{name} {len(rows[0]) - 2} {len(rows)}\n".encode())
        array("d", itertools.chain.from_iterable(rows)).tofile(out)
