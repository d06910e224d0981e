"""Shows that each workload's output check can fail.

    python3 perfbench/selftest.py

For each workload the check must accept true outputs and reject:
  - kernel-eval: a value moved by ten times its bound, and a stored corpus
    whose inputs no longer match its seed;
  - moment-integrals: a value moved by ten times the 1e-7 bound, and one
    wrong reduction coefficient;
  - verify-registry: a report with one failed check, and a report that
    differs from the run's first pass.
Exits 0 when every case behaves, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import gzip
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernel_eval  # noqa: E402
import run  # noqa: E402

FAILURES = []


def verdict(workload, done) -> tuple[int, bool]:
    """(failed, correct) of a fresh workload checker fed ``done``."""
    for tag, result in done:
        workload.record(tag, result)
    return workload.finish()[:2]


def expect(name: str, got, want) -> None:
    ok = got == want
    print(f"{'ok  ' if ok else 'FAIL'} {name}: got {got!r}, want {want!r}")
    if not ok:
        FAILURES.append(name)


def kernel_cases(zl) -> None:
    corpus = kernel_eval.load_corpus()
    done = []
    for cls, _ in kernel_eval.ROUND:
        if cls != "broken":
            for x, ref in (corpus[cls][i] for i in range(3)):
                done.append(((cls, ref), kernel_eval.call(zl, cls, x)))
    expect("kernel-eval accepts true values", verdict(run.KernelEval(zl, 0), done), (0, True))
    for i in range(0, len(done), 3):
        (cls, ref), value = done[i]
        moved = list(done)
        moved[i] = ((cls, ref), value + 10 * kernel_eval.bound(cls, ref))
        expect(f"kernel-eval rejects a {cls} value moved by 10x its bound",
               verdict(run.KernelEval(zl, 0), moved), (1, False))

    with gzip.open(kernel_eval.DATA, "rt") as fh:
        doc = json.load(fh)
    doc["classes"]["zeta"][5][0] += 1e-4
    tampered = run.HERE / "out" / "tampered_refs.json.gz"
    tampered.parent.mkdir(exist_ok=True)
    with gzip.open(tampered, "wt") as fh:
        json.dump(doc, fh)
    try:
        kernel_eval.load_corpus(tampered)
        refused = False
    except kernel_eval.CorpusError:
        refused = True
    finally:
        tampered.unlink()
    expect("kernel-eval refuses a corpus whose inputs differ from its seed", refused, True)


def moment_cases(zl) -> None:
    s = complex(-0.7, 0.2)
    done = []
    for ms, r in (((2, 3), 0), ((1, 2, 4), 1)):
        lc = zl.integral_poly_zeta(ms, r)
        done.append(((ms, r, s, False), (lc, zl.eval_combination(lc, s))))
    expect("moment-integrals accepts true results", verdict(run.MomentIntegrals(zl, 0), done),
           (0, True))

    (tag, (lc, value)) = done[1]
    moved = [done[0], (tag, (lc, value + 10 * 1e-7))]
    expect("moment-integrals rejects a value moved by 10x the bound",
           verdict(run.MomentIntegrals(zl, 0), moved), (1, False))

    atom, coeff = next(iter(lc.items()))
    nudge = zl.RationalFunctionOfS(coeff.num.scale(Fraction(1, 10**6)), coeff.den)
    wrong = lc + zl.LinearCombination({atom: nudge})
    bad = [done[0], (tag, (wrong, value))]
    expect("moment-integrals rejects one wrong reduction coefficient",
           verdict(run.MomentIntegrals(zl, 0), bad), (1, False))


def verify_cases(zl) -> None:
    op = run.VerifyRegistry(zl, 0)._op
    code, text = op()
    expect("verify-registry accepts two true passes",
           verdict(run.VerifyRegistry(zl, 0), [(None, (code, text))] * 2), (0, True))

    doc = json.loads(text)
    doc["checks"][0]["status"] = "fail"
    doc["summary"]["passed"] -= 1
    doc["summary"]["failed"] += 1
    failed_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    expect("verify-registry rejects a report with one failed check",
           verdict(run.VerifyRegistry(zl, 0), [(None, (1, failed_text))]), (1, False))
    expect("verify-registry rejects a report with one failed check, exit 0",
           verdict(run.VerifyRegistry(zl, 0), [(None, (0, failed_text))]), (1, False))
    expect("verify-registry rejects a pass that differs from the first",
           verdict(run.VerifyRegistry(zl, 0), [(None, (code, text)), (None, (code, text + " "))]),
           (1, False))


def main() -> int:
    zl = run.import_zetalab()
    kernel_cases(zl)
    moment_cases(zl)
    verify_cases(zl)
    print(f"{len(FAILURES)} case(s) failed" if FAILURES else "every check can fail")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
