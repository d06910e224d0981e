"""The pass-scoped jet table: within one ``run_checks`` call each zeta jet is
taken once and served to every later request for the same point, bit for
bit; outside a call every request takes its own sum."""

import contextvars
import hashlib
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zetalab import checks, kernels  # noqa: E402
from zetalab.checks import render_report, run_checks  # noqa: E402

PINNED_REPORT = Path(__file__).parent / "data" / "verify_json_sha256.txt"
# The Taylor-mode sums and numpy batches of one full registry pass: 512 sums
# and 49 batches when every check took its own
SUMS_PER_PASS, BATCHES_PER_PASS = 268, 30


def bits(jet):
    """The exact bits of a jet, signed zeros and NaN payloads included."""
    return b"".join(struct.pack("2d", c.real, c.imag) for c in jet)


@pytest.fixture
def table():
    """A fresh jet table, as run_checks sets one, unset afterwards."""
    token = kernels._JET_TABLE.set({})
    yield kernels._JET_TABLE.get()
    kernels._JET_TABLE.reset(token)


@pytest.fixture
def counted(monkeypatch):
    """Count the scalar sums and the batches taken."""
    count = {"sums": 0, "batches": 0}
    jet_sum, batch = kernels._em_jet_sum, kernels._em_jet_batch

    def sum_counted(*args, **kwargs):
        count["sums"] += 1
        return jet_sum(*args, **kwargs)

    def batch_counted(*args):
        count["batches"] += 1
        return batch(*args)

    monkeypatch.setattr(kernels, "_em_jet_sum", sum_counted)
    monkeypatch.setattr(kernels, "_em_jet_batch", batch_counted)
    return count


coordinates = st.floats(-4.0, 6.0, allow_nan=False)
points = st.builds(complex, coordinates, coordinates)
real_alphas = st.floats(1e-3, 200.0)
complex_alphas = st.builds(complex, real_alphas, st.floats(-2.0, 2.0))
orders = st.lists(st.integers(0, kernels._MAX_ORDER), min_size=1, max_size=6)


class TestServedJets:
    @settings(max_examples=80, deadline=None, database=None)
    @given(points, st.one_of(real_alphas, complex_alphas), orders, st.booleans())
    @example(-1.5 + 0j, 0.7, [3, 0, 6, 1], False)
    @example(1.0 + 0j, 0.3, [2, 5, 0], True)
    @example(-2.5 + 0j, 4.0 + 0j, [0, 3], False)
    def test_served_jet_is_a_fresh_sum(self, s, alpha, requests, minus_pole):
        # every request, whether it takes the sum, reads a higher-order jet
        # or replaces a lower-order one, returns the bits of its own sum
        if minus_pole:
            s = 1.0 + 0j
        token = kernels._JET_TABLE.set({})
        try:
            for r in requests:
                assert (bits(kernels._em_jet(s, alpha, r, minus_pole))
                        == bits(kernels._em_jet_sum(s, alpha, r, minus_pole))), r
        finally:
            kernels._JET_TABLE.reset(token)

    @pytest.mark.parametrize("s", [-0.5 + 0j, 0.3 + 0.4j, 2.5 + 0.3j])
    def test_real_and_complex_alpha_stay_apart(self, table, s):
        # 1.0 == 1+0j and they hash alike, but take different paths, which
        # kernel_taylor_cross compares: at these s their order-3 bits differ
        jets = {}
        for r in (3, 0):
            for alpha in (1.0, 1 + 0j):
                jets[repr(alpha), r] = got = bits(kernels._em_jet(s, alpha, r))
                assert got == bits(kernels._em_jet_sum(s, alpha, r)), (alpha, r)
        assert jets["1.0", 3] != jets["(1+0j)", 3]
        assert len(table) == 2

    def test_signed_zeros_stay_apart(self, table):
        for s in (complex(-0.0, 0.0), complex(0.0, -0.0), 0j, complex(2.0, -0.0)):
            kernels._em_jet(s, 0.5, 2)
        kernels._zeta_level(0, complex(2.0, -0.0), np.array([0.5, 1.5]))
        kernels._zeta_level(0, complex(2.0, 0.0), np.array([0.5, 1.5]))
        assert len(table) == 6

    def test_outside_a_pass_every_call_takes_a_sum(self, counted):
        assert kernels._JET_TABLE.get() is None
        first = kernels.hurwitz_zeta_deriv(2, -0.5, 0.7)
        assert kernels.hurwitz_zeta_deriv(2, -0.5, 0.7) == first
        assert counted["sums"] == 2

    def test_level_rows_are_served_read_only(self, counted):
        nodes = np.array([0.1, 0.5, 0.9, 1.7])
        fresh = [kernels._zeta_level(r, -1.5, nodes) for r in range(4)]
        token = kernels._JET_TABLE.set({})
        try:
            served = [kernels._zeta_level(r, -1.5, nodes) for r in (3, 2, 1, 0)][::-1]
            [stored] = kernels._JET_TABLE.get().values()
        finally:
            kernels._JET_TABLE.reset(token)
        assert [v.tobytes() for v in served] == [v.tobytes() for v in fresh]
        assert counted["batches"] == 4 + 1 and not stored.flags.writeable

    def test_scalar_and_batch_never_serve_each_other(self, table, counted):
        kernels._zeta_level(1, -1.5, np.array([0.5]))
        kernels.hurwitz_zeta_deriv(1, -1.5, 0.5)
        kernels._zeta_level(0, -1.5, np.array([0.5]))
        assert (counted["sums"], counted["batches"]) == (1, 1) and len(table) == 2


class TestJetTablePerPass:
    def test_sums_and_batches_per_pass(self, counted):
        per_pass = []
        for _ in range(2):
            counted.update(sums=0, batches=0)
            assert all(r.status == "pass" for r in run_checks())
            per_pass.append((counted["sums"], counted["batches"]))
        assert per_pass == [(SUMS_PER_PASS, BATCHES_PER_PASS)] * 2

    def test_table_is_unset_after_a_pass(self):
        run_checks("note_fwd")
        assert kernels._JET_TABLE.get() is None

    def test_table_is_unset_when_a_check_raises(self, monkeypatch):
        seen = []

        def broken(r, s, alpha):
            seen.append(kernels._JET_TABLE.get())
            raise RuntimeError("not an evaluation error")

        monkeypatch.setattr(kernels, "hurwitz_zeta_deriv", broken)
        with pytest.raises(RuntimeError):
            run_checks("note_fwd")
        assert seen == [{}] and kernels._JET_TABLE.get() is None

    def test_results_keep_id_order(self):
        ran = []
        execute = checks._execute

        def recorded(spec):
            ran.append(spec.id)
            return execute(spec)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_execute", recorded)
            results = run_checks("prop3")
        assert [r.id for r in results] == sorted(ran) == ran[::-1]

    def test_two_threads_each_render_the_pinned_report(self):
        pinned = PINNED_REPORT.read_text().split()[0]
        digests = [None, None]

        def run(i):
            report = render_report(run_checks(), "json")
            digests[i] = hashlib.sha256(report.encode()).hexdigest()

        threads = [threading.Thread(target=contextvars.Context().run, args=(run, i))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert digests == [pinned, pinned]
