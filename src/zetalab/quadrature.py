"""Numeric integration used as an independent cross-check oracle.

One integrator, :func:`tanh_sinh_01`: double-exponential quadrature on
(0, 1).  The tanh-sinh substitution x = (1 + tanh((pi/2) sinh t)) / 2
clusters nodes at both endpoints, so integrands with algebraic endpoint
singularities x**(-sigma), sigma < 1, converge at the usual
double-exponential rate.  Levels double the node count and reuse all
previous nodes, until two agree or the evaluation budget runs out.  A smooth
integrand on a finite interval [a, b] goes through the affine map: the
integral is (b - a) times that of f(a + (b - a) x) over (0, 1), with the
tolerance divided by b - a.

The integrand is vectorised: it receives a 1-D float array of nodes and
returns one value per node.  Its first call covers the new nodes of the
opening levels 0..3 together (74 nodes, concatenated in level order); each
later call covers one level's new nodes.  The checks' zeta integrands
evaluate a call in one numpy batch per zeta factor (``kernels._zeta_level``),
whose cost is mostly fixed per call; single points stay on the scalar
kernels, where numpy's per-call overhead would dominate, and never load
numpy: it is imported with the first nodes, not with this module.  The
values are accumulated one by one in node order, level by level, and only
up to the level that converges, so the result depends only on the samples
that enter it, not on how or in which call the integrand computed them.

Integrands may be complex-valued; they are integrated component-wise and the
error estimate is the max over components.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ConvergenceError, NumericOverflowError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QuadResult", "tanh_sinh_01"]

_HALF_PI = math.pi / 2.0

# Evaluations per integral, so at most levels 0..12 (37 886 nodes) run.
_BUDGET = 2 ** 16

# Levels 0..3 (10 + 9 + 18 + 37 nodes) are sampled in one call.  A zeta batch
# (kernels._zeta_level, orders 0-3) costs 0.2-0.5 ms at 9-10 nodes and
# 0.25-0.75 ms at 74, and 20 of the 27 integrals of a verify pass stop at
# level 3 (the other 7 at level 4 or 5): one call in place of four cuts a pass
# from 157 batches to 49, and the pass's jet table, which serves a batch
# already taken at the same s and nodes, to 30.
_OPENING_LEVELS = 4


@dataclass(frozen=True)
class QuadResult:
    """Integral value with the last refinement difference and the eval count.

    ``evaluations`` counts the samples that entered the value: the nodes of
    levels 0 up to the converged level, not every node the integrand was
    called on (the opening call also covers levels the loop may not reach).
    """

    value: complex
    error_estimate: float
    evaluations: int


def _tanh_sinh_node(t: float) -> tuple[float, float]:
    """Abscissa in (0,1) and weight (without the h factor) at parameter t."""
    u = _HALF_PI * math.sinh(t)
    # x = 1/(1 + exp(-2u)) evaluated from the small side for stability
    if u >= 0.0:
        e = math.exp(-2.0 * u)
        x = 1.0 / (1.0 + e)
    else:
        e = math.exp(2.0 * u)
        x = e / (1.0 + e)
    # dx/dt = (pi/4) cosh(t) sech^2(u), with sech^2 evaluated overflow-free
    sech2 = 4.0 * e / ((1.0 + e) ** 2)
    w = (_HALF_PI / 2.0) * math.cosh(t) * sech2
    return x, w


@functools.lru_cache(maxsize=None)
def _level_nodes(level: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """Abscissae (a read-only array) and weights of the nodes introduced at
    the given refinement level (h = 2**-level)."""
    import numpy as np

    nodes = []
    h = 2.0 ** (-level)
    # level 0 takes t = k h at every k, a later level only its new, odd k
    ks: list[float] = [0.0] if level == 0 else []
    step = 1.0 if level == 0 else 2.0
    k = 1.0
    while k * h <= 7.0:
        ks.extend((k, -k))
        k += step
    for k in ks:
        x, w = _tanh_sinh_node(k * h)
        if 0.0 < x < 1.0 and w > 1e-300:
            nodes.append((x, w))
    xs = np.array([x for x, _ in nodes])
    xs.flags.writeable = False
    return xs, tuple(w for _, w in nodes)


@functools.lru_cache(maxsize=None)
def _opening_nodes() -> np.ndarray:
    """The new nodes of levels 0.._OPENING_LEVELS-1, concatenated in level
    order, as one read-only array."""
    import numpy as np

    xs = np.concatenate([_level_nodes(level)[0] for level in range(_OPENING_LEVELS)])
    xs.flags.writeable = False
    return xs


def _check_sample(v: complex, x: float) -> complex:
    v = complex(v)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise NumericOverflowError(f"non-finite integrand sample at x={x!r}")
    return v


def tanh_sinh_01(f: Callable[[np.ndarray], Sequence[complex]], tol: float) -> QuadResult:
    """Integrate f over (0, 1) by level-doubled tanh-sinh quadrature.

    ``f`` maps an array of nodes to one value per node.  It is called once
    on the new nodes of levels 0..3 concatenated in level order, then once
    per further level on that level's new nodes; so an integrand that raises
    at a level-1..3 node raises even when an earlier level converges.
    Refines until the difference between consecutive levels drops below
    ``tol`` or the next level would exceed the evaluation budget (then raises
    :class:`ConvergenceError`).  A sample is checked when it enters the
    value, so a non-finite sample past the converged level is never seen.
    The integrand is never called at 0 or 1.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    evaluations = 0
    partial = 0j  # sum of w*f over all nodes seen so far (no h factor)
    value_prev: complex | None = None
    err = math.inf
    for level in itertools.count():
        xs, ws = _level_nodes(level)
        if evaluations + len(ws) > _BUDGET:
            raise ConvergenceError(
                f"tanh-sinh budget exhausted: {evaluations} evaluations, "
                f"last refinement difference {err:.3e} > tol {tol:.3e}")
        if level == 0:
            nodes = _opening_nodes()
            opening, start = f(nodes), 0
            if len(opening) != len(nodes):
                raise ValueError(f"integrand returned {len(opening)} values "
                                 f"for {len(nodes)} nodes")
        if level < _OPENING_LEVELS:
            samples, start = opening[start:start + len(ws)], start + len(ws)
        else:
            samples = f(xs)
        h = 2.0 ** (-level)
        for x, w, v in zip(xs.tolist(), ws, samples, strict=True):
            partial += w * _check_sample(v, x)
            evaluations += 1
        value = h * partial
        if value_prev is not None:
            diff = value - value_prev
            err = max(abs(diff.real), abs(diff.imag))
            if err <= tol:
                return QuadResult(value, err, evaluations)
        value_prev = value
