"""Shared finite-difference stencils used as oracles across test modules, the
``target`` fixture that runs a test at another accuracy target, and the
number of sums and batches a verify pass takes."""

import pytest

from zetalab import kernels

# The values a ``target`` axis takes: the fixed policy, and a tighter target,
# which shrinks the head length M at more points.  Use them as
# ``@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)``.
TARGETS = (None, 1e-13)
TARGET_IDS = ("default", "tight")
# The Taylor-mode sums and numpy batches of one full registry pass: 512 sums
# and 49 batches when every check took its own
SUMS_PER_PASS, BATCHES_PER_PASS = 275, 30


@pytest.fixture
def target(request, monkeypatch):
    """The kernels' accuracy target for this test, patched into
    ``kernels._TARGET_ABS_ERROR`` when a parameter gives one."""
    value = getattr(request, "param", None)
    if value is not None:
        monkeypatch.setattr(kernels, "_TARGET_ABS_ERROR", value)
    return kernels._TARGET_ABS_ERROR


def diff5(f, x, h):
    """Five-point central first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def diff2_5(f, x, h):
    """Five-point central second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def central(f, x, h):
    """Plain central first difference."""
    return (f(x + h) - f(x - h)) / (2 * h)
