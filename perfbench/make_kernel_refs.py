"""Regenerate data/kernel_refs.json.gz: the kernel-eval corpus and its
mpmath reference values.

    python3 perfbench/make_kernel_refs.py

Inputs come from kernel_eval.CORPUS_SEED; each reference is mpmath 1.3.0 at
30 significant digits, rounded to double.  zetalab is not imported.  Takes
about ten minutes on two cores.
"""

from __future__ import annotations

import gzip
import json
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernel_eval  # noqa: E402

DPS = 30
WORKERS = 2


def _refs(job: tuple[str, list]) -> list:
    import mpmath as mp
    mp.mp.dps = DPS
    cls, rows = job
    out = []
    for x in rows:
        ref = kernel_eval.mpmath_reference(mp, cls, x)
        out.append(x + [ref.real, ref.imag])
    return out


def main() -> int:
    import mpmath

    inputs = {cls: kernel_eval.class_inputs(cls) for cls, _ in kernel_eval.ROUND}
    chunk = 200
    jobs = [(cls, rows[i:i + chunk]) for cls, rows in inputs.items()
            for i in range(0, len(rows), chunk)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        done = pool.map(_refs, jobs)
    classes = {cls: [] for cls in inputs}
    for (cls, _), rows in zip(jobs, done):
        classes[cls].extend(rows)
    doc = {"seed": kernel_eval.CORPUS_SEED, "rounds": kernel_eval.CORPUS_ROUNDS,
           "mpmath": mpmath.__version__, "dps": DPS,
           "command": "python3 perfbench/make_kernel_refs.py",
           "classes": classes}
    kernel_eval.DATA.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(kernel_eval.DATA, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode())
    print(f"wrote {sum(map(len, classes.values()))} references to {kernel_eval.DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
