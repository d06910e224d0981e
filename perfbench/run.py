"""zetalab's benchmark: three in-process workloads against the public API.

    python3 perfbench/run.py --workload kernel-eval --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; zetalab is imported from its ``src/``.
Each workload runs on one thread as a closed loop of whole rounds until
``--seconds`` have passed, counted at the machine's reference speed (see
timing.py), then checks every output against a computation made apart from
the program (see README.md).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics; the line before it gives
the unscaled timings.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, untraced and then with a span around every call into
each module's public functions, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import kernel_eval  # noqa: E402
import moment  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402

WORKLOADS = ("kernel-eval", "moment-integrals", "verify-registry")
# Set-up samples: at least SETUP_SAMPLES, and at least SETUP_MIN_S seconds of
# them; CALIBRATIONS speed probes in this process before and after each.
SETUP_SAMPLES = 5
SETUP_MIN_S = 8.0
CALIBRATIONS = 8
IMPORT_SAMPLES = 3
# Rounds of a traced run, and rounds per block: each block is run untraced,
# then traced.
TRACE_ROUNDS = {"kernel-eval": (300, 30), "moment-integrals": (2, 1),
                "verify-registry": (2, 1)}
VERIFY_ARGS = ["verify", "--format", "json"]
EPS = sys.float_info.epsilon


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_zetalab():
    """zetalab from this checkout's src/, never an installed copy."""
    if not (SRC / "zetalab" / "__init__.py").is_file():
        raise BenchError(f"no zetalab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetalab
    if Path(zetalab.__file__).resolve().parent != SRC / "zetalab":
        raise BenchError(f"imported zetalab from {zetalab.__file__}, not {SRC}")
    import zetalab.cli  # noqa: F401  (verify-registry calls it)
    return zetalab


def warm_up(workload: str, zl) -> None:
    """Untimed set-up, counted in setup_s: fill the program's caches (the
    reduction's monomial cache above all) so that timed rounds run warm."""
    if workload == "moment-integrals":
        zl.integral_poly_zeta((19,), 0)
        zl.integral_poly_zeta((15,), 1)
    elif workload == "verify-registry":
        VerifyRegistry(zl, 0)._op()


def probe(workload: str) -> int:
    """Child process of measure_setup: set up, then print "ready" with the
    set-up's span, its seconds without the speed probes (see timing.py) and
    the seconds of each probe."""
    with timing.Speedometer() as speed:
        start = time.perf_counter()
        warm_up(workload, import_zetalab())
        end = time.perf_counter()
    _, (raw,) = speed.latencies([start], [end])
    print("ready", end - start, raw, *speed.cost, flush=True)
    return 0


def measure_setup(workload: str) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter until it is ready,
    scaled to the reference speed, and unscaled.

    Samples are taken until there are SETUP_SAMPLES of them and SETUP_MIN_S
    have passed.  As the timed loop does with each operation, each sample is
    scaled by the mean of the speed probes made in it and around it: the
    child's, and CALIBRATIONS single runs of reference_work in this process
    just before and just after it."""
    raw, scaled = [], []
    before = [timing.calibrate(1) for _ in range(CALIBRATIONS)]
    t_start = time.perf_counter()
    while len(raw) < SETUP_SAMPLES or time.perf_counter() - t_start < SETUP_MIN_S:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--probe", workload],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().split()
            total = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or len(line) < 3 or line[0] != "ready":
            raise BenchError("set-up probe failed")
        span, child_raw, *costs = map(float, line[1:])
        after = [timing.calibrate(1) for _ in range(CALIBRATIONS)]
        raw.append(total - span + child_raw)
        scaled.append(timing.scale(raw[-1], statistics.fmean(before + costs + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def import_ms() -> dict[str, float]:
    """Cumulative import time of numpy and zetalab, from -X importtime."""
    found = {"numpy": [], "zetalab": []}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zetalab"],
                             env=env, capture_output=True, text=True, check=True).stderr
        for line in out.splitlines():
            m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(3) in found:
                found[m.group(3)].append(int(m.group(2)) / 1e3)
    return {f"import_ms.{k}": statistics.median(v) if v else 0.0 for k, v in found.items()}


# ---------------------------------------------------------------------------
# Workloads: each yields rounds of operations and checks their outputs
# ---------------------------------------------------------------------------


class KernelEval:
    """Checks each call as it completes, against the stored mpmath value."""

    panel_ops = kernel_eval.PANEL_ROUNDS * kernel_eval.ROUND_SIZE

    def __init__(self, zl, seed: int):
        self.zl, self.seed = zl, seed
        self.corpus = kernel_eval.load_corpus()
        self.errors = (zl.EvaluationError,)
        self.seen = self.failed = 0
        self.correct, self.margins = True, []

    def rounds(self):
        for ops in kernel_eval.rounds(self.corpus, self.seed):
            yield [(lambda cls=cls, x=x: kernel_eval.call(self.zl, cls, x), (cls, ref))
                   for cls, x, ref in ops]

    def record(self, tag, result) -> None:
        cls, ref = tag
        if isinstance(result, BaseException):
            ok = cls == "broken"  # raising there is the documented fix
        else:
            ok = abs(result - ref) <= kernel_eval.bound(cls, ref)
            if ok and self.seen < self.panel_ops:
                self.margins.append(kernel_eval.margin(cls, result, ref))
        if not ok:
            self.failed += 1
            self.correct = self.correct and cls == "broken"
        self.seen += 1

    def finish(self):
        """(failed, correct, margins); the margins are taken over the first
        PANEL_ROUNDS rounds, which are the same for every seed."""
        return self.failed, self.correct, self.margins


class MomentIntegrals:
    """Keeps each result; ``finish`` checks them against the closed form."""

    panel_ops = moment.PANEL_ROUNDS * moment.ROUND_SIZE

    def __init__(self, zl, seed: int):
        self.zl, self.seed = zl, seed
        self.errors = (zl.EvaluationError,)
        self.done = []

    def _op(self, ms, r, s):
        lc = self.zl.integral_poly_zeta(ms, r)
        return lc, self.zl.eval_combination(lc, s)

    def rounds(self):
        for ops in moment.rounds(self.seed):
            yield [(lambda ms=ms, r=r, s=s: self._op(ms, r, s), (ms, r, s, bad))
                   for ms, r, s, bad in ops]

    def record(self, tag, result) -> None:
        self.done.append((tag, result))

    def finish(self):
        import mpmath
        failed, correct, margins = 0, True, []
        for i, ((ms, r, s, bad), result) in enumerate(self.done):
            expected = moment.closed_form(ms, r)
            if isinstance(result, BaseException) or not moment.coefficients_match(
                    result[0], expected):
                failed += 1
                correct = False
                continue
            value = result[1]
            ref = moment.reference_value(mpmath, expected, s)
            if abs(value - ref) > moment.VALUE_TOL:
                failed += 1
                correct = correct and bad
            elif i < self.panel_ops:
                margins.append(moment.margin(value, ref))
        return failed, correct, margins


class VerifyRegistry:
    """Keeps each pass's exit code and report; ``finish`` checks them."""

    def __init__(self, zl, seed: int):
        self.cli = sys.modules["zetalab.cli"]
        self.errors = ()
        self.done = []

    def _op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(VERIFY_ARGS))
        return code, out.getvalue()

    def rounds(self):
        while True:
            yield [(self._op, None)]

    def record(self, tag, result) -> None:
        self.done.append(result)

    def finish(self):
        first = self.done[0][1] if self.done else ""
        failed = sum(not verify_ok(code, text, first) for code, text in self.done)
        margins = verify_margins(json.loads(first)) if self.done else []
        return failed, failed == 0, margins


def verify_ok(code: int, text: str, first: str) -> bool:
    """A pass exits 0, every check in it passes, and its JSON is
    byte-identical to the first pass of the run."""
    if code != 0 or text != first:
        return False
    doc = json.loads(text)
    checks = doc["checks"]
    return (bool(checks) and all(c["status"] == "pass" for c in checks)
            and doc["summary"] == {"passed": len(checks), "failed": 0, "skipped": 0})


def _magnitude(text: str) -> float:
    """|value| of a report value: "re+imi" as format_complex writes it, or
    a rational."""
    if not text.endswith("i"):
        return abs(float(Fraction(text)))
    body = text[:-1]
    cut = max(k for k, ch in enumerate(body) if ch in "+-" and k > 0 and body[k - 1] != "e")
    return abs(complex(float(body[:cut]), float(body[cut:])))


def verify_margins(doc: dict) -> list[float]:
    """log10(tolerance / abs_error) of every passed non-exact check."""
    out = []
    for c in doc["checks"]:
        if c["tolerance"] == 0.0 or c["status"] != "pass":
            continue
        scale = max(_magnitude(c["lhs"]), _magnitude(c["rhs"]), 1.0)
        out.append(math.log10(c["tolerance"] / max(c["abs_error"], EPS * scale)))
    return out


WORKLOAD_CLASSES = {"kernel-eval": KernelEval, "moment-integrals": MomentIntegrals,
                    "verify-registry": VerifyRegistry}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s, setup_raw = measure_setup(workload)
    zl = import_zetalab()
    warm_up(workload, zl)
    wl = WORKLOAD_CLASSES[workload](zl, seed)
    latencies, raw, n_rounds = timing.run_rounds(wl.rounds(), wl.errors, wl.record, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct, margins = wl.finish()
    if not margins:
        raise BenchError(f"no margins: {n_rounds} rounds ran, {failed} failed")
    print(f"unscaled: setup_s {setup_raw:.4f}, ops_per_s {len(raw) / sum(raw):.4f}, "
          f"op_ms.p50 {statistics.median(raw) * 1e3:.4f}; "
          f"{n_rounds} rounds; timings scaled by {sum(latencies) / sum(raw):.4f}")
    ms = [t * 1e3 for t in latencies]
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / sum(latencies), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "margin_digits.min": (min(margins), "digits"),
        "margin_digits.p50": (statistics.median(margins), "digits"),
    }
    return {"correct": correct, "attempted": len(ms), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(workload: str, seed: int, out_dir: Path) -> dict:
    imports = import_ms()
    zl = import_zetalab()
    warm_up(workload, zl)
    n, block = TRACE_ROUNDS[workload]

    def run(wl, rounds) -> int:
        starts, ends = array("d"), array("d")
        timing.run_ops(itertools.chain.from_iterable(rounds), wl.errors, wl.record,
                       starts, ends)
        return len(starts)

    # The same rounds twice, untraced for the overhead baseline and traced,
    # alternating in blocks so that both see the same machine speed.
    plain, wl = (WORKLOAD_CLASSES[workload](zl, seed) for _ in range(2))
    plain_rounds, traced_rounds = plain.rounds(), wl.rounds()
    tracer = spans.Tracer()
    untraced = traced_s = 0.0
    attempted = 0
    for start in range(0, n, block):
        k = min(block, n - start)
        untraced += timing.scaled_span(lambda: run(plain, itertools.islice(plain_rounds, k)))[0]
        tracer.install(zl)
        try:
            seconds, _, count = timing.scaled_span(
                lambda: run(wl, itertools.islice(traced_rounds, k)))
        finally:
            tracer.uninstall()
        traced_s += seconds
        attempted += count
    failed, correct, _ = wl.finish()
    tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    values = dict(imports, **tracer.summary())
    values["trace.overhead_pct"] = (traced_s / untraced - 1.0) * 100.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.metrics()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zetalab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            return probe(args.probe)
        if args.workload is None:
            parser.error("--workload is required")
        if not (SRC / "zetalab" / "__init__.py").is_file():
            raise BenchError(f"no zetalab source under {SRC}")
        if args.trace:
            result = traced(args.workload, args.seed, HERE / "out")
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, kernel_eval.CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
