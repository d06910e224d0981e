"""Check registry, report rendering, and the command-line surface."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import calculus, checks, kernels
from zetalab.checks import (REQUIRED_ID_PREFIXES, build_registry,
                            render_report, run_checks)
from zetalab.cli import main, parse_complex
from zetalab.exact import _bernoulli_product


# sha256 of the default ``zetalab verify --format json`` output.  A change
# that moves a digit of the report updates this file and says why.
PINNED_REPORT = Path(__file__).parent / "data" / "verify_json_sha256.txt"


@pytest.fixture(scope="module")
def full_results():
    return run_checks()


class TestRegistry:
    def test_ids_unique(self):
        ids = [spec.id for spec in build_registry()]
        assert len(ids) == len(set(ids))

    def test_sorted_by_id(self):
        ids = [spec.id for spec in build_registry()]
        assert ids == sorted(ids)

    def test_coverage_complete(self):
        ids = [spec.id for spec in build_registry()]
        for prefix in REQUIRED_ID_PREFIXES:
            assert any(i.startswith(prefix) for i in ids), prefix

    def test_every_check_names_an_anchor(self):
        assert all(spec.paper_anchor for spec in build_registry())

    def test_filter_no_match(self):
        assert run_checks("zzz") == []

    def test_filter_cor6_exact(self):
        results = run_checks("cor6")
        assert results
        for res in results:
            assert res.status == "pass"
            assert res.abs_error == 0.0
            assert res.tolerance == 0.0

    def test_filter_prop2(self):
        results = run_checks("prop2")
        assert results
        assert all(r.status == "pass" and r.abs_error <= 1e-6 for r in results)

    def test_full_suite_passes(self, full_results):
        failed = [r.id for r in full_results if r.status == "fail"]
        skipped = [r.id for r in full_results if r.status.startswith("skipped")]
        assert not failed, failed
        assert not skipped, skipped

    def test_results_ordered(self, full_results):
        ids = [r.id for r in full_results]
        assert ids == sorted(ids)

    def test_pass_iff_within_tolerance(self, full_results):
        for res in full_results:
            assert (res.abs_error <= res.tolerance) == (res.status == "pass")


class TestReports:
    def test_empty_text(self):
        report = render_report([], "text")
        assert "id" in report.splitlines()[0]
        assert "0 passed, 0 failed" in report

    def test_text_table(self, full_results):
        report = render_report(full_results, "text")
        lines = report.splitlines()
        assert lines[0].startswith("id")
        assert any("cor6_value_11" in line for line in lines)
        assert lines[-1].endswith("failed") or "failed" in lines[-1]

    def test_json_schema(self, full_results):
        doc = json.loads(render_report(full_results, "json"))
        assert set(doc) == {"config", "summary", "checks"}
        assert set(doc["summary"]) == {"passed", "failed", "skipped"}
        assert doc["summary"]["failed"] == 0
        check_ids = [c["id"] for c in doc["checks"]]
        assert check_ids == sorted(check_ids)
        for c in doc["checks"]:
            assert set(c) == {"id", "description", "paper_anchor", "lhs", "rhs",
                              "abs_error", "tolerance", "status"}

    def test_json_config_block(self, full_results):
        doc = json.loads(render_report(full_results, "json"))
        assert doc["config"] == {"em_cutoff": 25, "em_min_reach": 8.0,
                                 "em_reach_per_s": 4.0 / (2.0 * math.pi),
                                 "em_tail_terms": 12, "target_abs_error": 1e-11}

    def test_json_report_matches_pinned_digest(self, capsys):
        assert main(["verify", "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == PINNED_REPORT.read_text().split()[0]

    def test_json_deterministic(self):
        one = render_report(run_checks("pair"), "json")
        two = render_report(run_checks("pair"), "json")
        assert one == two

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report([], "yaml")


class TestComplexParsing:
    @pytest.mark.parametrize("text, expected", [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("2.5-0.5i", 2.5 - 0.5j),
        ("1e-3+2.5e-2i", 0.001 + 0.025j),
        ("-1.5e2-3i", -150 - 3j),
    ])
    def test_valid(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["1 + 2i", "2i", "abc", "1+2j", ""])
    def test_invalid(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)


class TestCli:
    def test_bernoulli_number(self, capsys):
        assert main(["bernoulli", "--n", "12"]) == 0
        assert capsys.readouterr().out.strip() == "-691/2730"

    def test_bernoulli_poly(self, capsys):
        assert main(["bernoulli", "--n", "2", "--poly"]) == 0
        assert capsys.readouterr().out.strip() == "alpha^2 - alpha + 1/6"

    def test_eval_zeta(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1.64493406684823+0i"

    def test_eval_hurwitz_deriv(self, capsys):
        assert main(["eval", "--fn", "hurwitz", "--deriv", "1",
                     "--s", "0", "--alpha", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("-0.918938533")

    def test_eval_digamma(self, capsys):
        assert main(["eval", "--fn", "digamma", "--alpha", "1"]) == 0
        assert capsys.readouterr().out.strip().startswith("-0.577215664901533")

    def test_eval_gamma(self, capsys):
        assert main(["eval", "--fn", "gamma", "--s", "0.5"]) == 0
        assert capsys.readouterr().out.strip().startswith("1.77245385090552")

    # an option the function does not read is refused, not ignored
    @pytest.mark.parametrize("argv, flag", [
        (["--fn", "digamma", "--deriv", "2", "--alpha", "1"], "--deriv"),
        (["--fn", "gamma", "--deriv", "3", "--s", "2"], "--deriv"),
        (["--fn", "zeta", "--s", "2", "--alpha", "3"], "--alpha"),
        (["--fn", "gamma", "--s", "2", "--alpha", "1"], "--alpha"),
        (["--fn", "digamma", "--s", "2", "--alpha", "1"], "--s"),
        (["--fn", "stieltjes", "--deriv", "1", "--s", "2", "--alpha", "1"], "--s"),
    ])
    def test_eval_refuses_an_option_its_function_does_not_take(self, capsys, argv, flag):
        assert main(["eval", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --fn {argv[1]} does not take {flag}\n"

    def test_eval_gamma_takes_deriv_zero(self, capsys):
        assert main(["eval", "--fn", "gamma", "--deriv", "0", "--s", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1+0i"

    def test_integrate_symbolic(self, capsys):
        assert main(["integrate", "--ms", "0", "--deriv", "0", "--symbolic"]) == 0
        assert capsys.readouterr().out.strip() == "zeta^(0)(s-1) * (1)/(-1 + 1*s)"

    def test_integrate_numeric(self, capsys):
        assert main(["integrate", "--ms", "0", "--s", "-2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("-0.0027777777")

    # the values of mpmath 1.3 at 80 digits; the per-shift atom sum printed
    # -5.88e15, -7.45e29, -3.32e28 and 5.69+827.8i here
    @pytest.mark.parametrize("ms, s, value", [
        ("20,20", "0.3", -355.31820794086890744),
        ("63", "0.55", 2.1412881440121064467e36),
        ("31,31", "0.3", 11180340349775791.597),
        ("20,20", "0.5+30i", 42.081128620438818766 + 1252.9550443425794271j),
    ])
    def test_integrate_high_degree(self, capsys, ms, s, value):
        assert main(["integrate", "--ms", ms, "--s", s]) == 0
        printed = complex(capsys.readouterr().out.strip().replace("i", "j"))
        assert abs(printed - value) <= 1e-13 * abs(value)

    def test_integrate_refuses_re_s_at_least_one(self, capsys):
        assert main(["integrate", "--ms", "2", "--s", "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: eval_combination requires Re s < 1, "
                                     "where the integral converges, not s = (1.5+0j)\n")

    def test_integrate_help_states_the_domain(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["integrate", "--help"])
        assert info.value.code == 0
        assert "Re s < 1" in capsys.readouterr().out

    def test_pair(self, capsys):
        assert main(["pair", "--s1", "-1", "--s2", "-1"]) == 0
        assert capsys.readouterr().out.strip().startswith("0.00138888888888889")

    def test_verify_filter_exit_zero(self, capsys):
        assert main(["verify", "--filter", "cor6"]) == 0
        out = capsys.readouterr().out
        assert "passed, 0 failed" in out

    def test_verify_json_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--filter", "pair", "--format", "json",
                     "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["failed"] == 0

    @pytest.mark.parametrize("flag, value", [("--em-cutoff", "30"),
                                             ("--contour-points", "64")])
    def test_removed_flag_is_gone(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main([flag, value, "eval", "--fn", "zeta", "--s", "2"])
        assert info.value.code == 2

    def test_precision_target_flag_is_gone(self, capsys):
        # the accuracy target is fixed: a tighter one returned wrong digits
        # here (-12.02745...-15.46792...i for -12.0275005344-15.4679303684i)
        with pytest.raises(SystemExit) as info:
            main(["--precision-target", "1e-13", "eval", "--fn", "hurwitz",
                  "--s=-0.9996+39.2526i", "--alpha", "1.2936"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_required_value(self, capsys):
        assert main(["eval", "--fn", "zeta"]) == 2
        assert "--s" in capsys.readouterr().err

    def test_pole_reported(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "1"]) == 2
        assert "pole" in capsys.readouterr().err

    @pytest.mark.parametrize("deriv", ["0", "1"])
    def test_overflow_is_an_error_not_a_traceback(self, deriv):
        # zeta(-300, 1e6) overflows a double, on the scalar path (deriv 0)
        # and on the Taylor-mode path (deriv 1)
        proc = run_module("zetalab.cli", "eval", "--fn", "hurwitz",
                          "--deriv", deriv, "--s=-300", "--alpha", "1e6")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("eval", "--fn", "gamma", "--s", "0.3+800i"),
        ("pair", "--s1", "0.3+800i", "--s2", "0.2"),
        ("pair", "--s1=-1e400", "--s2=0.3"),
        ("pair", "--s1=1e300", "--s2=0.2"),
        ("eval", "--fn", "hurwitz", "--s", "0.3", "--alpha", "inf"),
    ], ids=["gamma_im800", "pair_im800", "pair_re-inf", "pair_re1e300", "hurwitz_alpha+inf"])
    def test_large_or_infinite_argument_is_an_error(self, argv):
        proc = run_module("zetalab", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert len(proc.stderr) < 80, proc.stderr

    def test_python_dash_m_zetalab(self):
        proc = run_module("zetalab", "bernoulli", "--n", "12")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "-691/2730\n"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path, target):
        # a missing directory, and a directory in place of the file
        out = tmp_path / target
        proc = run_module("zetalab.cli", "verify", "--filter", "cor6_value",
                          "--format", "json", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_negative_complex_uses_equals_form(self, capsys):
        # --s=-1.5 parses as a negative number, and the printed value is
        # zeta(-1.5) within the README's 1e-11
        assert main(["eval", "--fn", "zeta", "--s=-1.5"]) == 0
        printed = complex(capsys.readouterr().out.strip().replace("i", "j"))
        assert abs(printed - -0.025485201889833036) <= 1e-11

    def test_skipped_on_config_violation(self, monkeypatch):
        # a pole guard that reaches s must downgrade the affected checks to
        # skipped(reason), never to a silent pass
        monkeypatch.setattr(kernels, "_POLE_GUARD", 0.9)
        results = run_checks("note_fwd")
        skipped = [r for r in results if r.status.startswith("skipped(")]
        assert skipped and all("pole" in r.status for r in skipped)
        assert all(r.status == "pass" for r in results if r not in skipped)

    def test_scalar_work_leaves_numpy_out(self):
        # numpy is imported by the quadrature batches alone: importing
        # zetalab, the scalar kernels, the reduction, calculus and the
        # commands other than verify never load it; the first quadrature does
        script = textwrap.dedent("""
            import contextlib, io, sys
            import zetalab
            from zetalab import cli
            zetalab.hurwitz_zeta(0.5 + 2j, 0.3)
            zetalab.hurwitz_zeta_deriv(2, -0.7, 0.4)
            zetalab.stieltjes(1, 0.5)
            zetalab.hurwitz_taylor(-1.5, 0.4 + 0.8j, 3)
            zetalab.digamma(0.3)
            zetalab.gamma_complex(2.5 + 1j)
            zetalab.eval_combination(zetalab.integral_poly_zeta((1, 2), 1), 0.55)
            zetalab.alpha_derivative(1, -2.5, 0.3)
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["bernoulli", "--n", "10"],
                             ["eval", "--fn", "hurwitz", "--deriv", "1", "--s", "0",
                              "--alpha", "0.5"],
                             ["integrate", "--ms", "1,2", "--deriv", "1", "--s", "0.55"],
                             ["pair", "--s1=-1", "--s2=-1"]):
                    assert cli.main(argv) == 0, argv
            print("numpy" in sys.modules)
            zetalab.tanh_sinh_01(lambda xs: xs, 1e-9)
            print("numpy" in sys.modules)
        """)
        path = os.pathsep.join(filter(None, [ZETALAB_ROOT, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_skipped_results_render(self, monkeypatch):
        monkeypatch.setattr(kernels, "_POLE_GUARD", 0.9)
        results = run_checks("note_fwd")
        report = render_report(results, "json")
        doc = json.loads(report)
        assert doc["summary"]["skipped"] >= 1
        skipped = [c for c in doc["checks"] if c["status"].startswith("skipped(")]
        assert all(c["lhs"] is None and c["abs_error"] is None for c in skipped)

    def test_verify_empty_filter_json(self, capsys):
        assert main(["verify", "--filter", "zzz", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"passed": 0, "failed": 0, "skipped": 0}
        assert doc["checks"] == []


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The demos import the same zetalab as this test run, installed or not.
ZETALAB_ROOT = str(Path(zetalab.__file__).resolve().parents[1])


def run_module(*argv):
    """``python -m`` argv in a subprocess that imports this run's zetalab."""
    path = os.pathsep.join(filter(None, [ZETALAB_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


class TestDemos:
    @pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
    def test_demo_runs_clean(self, script):
        path = os.pathsep.join(filter(None, [ZETALAB_ROOT, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


class TestQuadratureRefusals:
    def test_pole_guard_refusals_unchanged(self, monkeypatch):
        # the quadrature integrands refuse a node whose s is within the pole
        # guard with the same reason as a single derivative
        monkeypatch.setattr(kernels, "_POLE_GUARD", 0.9)
        results = [res for family in ("cor4_quad", "cor8", "note_fwd")
                   for res in run_checks(family)]
        skipped = {r.id: r.status for r in results if r.status != "pass"}
        near = "skipped(s={} is within 0.9 of the pole at 1)"
        assert skipped == {
            "cor4_quad_r1": near.format("(0.3+0j)"),
            "cor4_quad_r2": near.format("(0.3+0j)"),
            "cor8_random_quad": near.format("(0.20541391532713194-0.1372688132497536j)"),
            "note_fwd_r1": near.format("(0.5+0.5j)"),
            "note_fwd_r2": near.format("(0.5+0.5j)"),
            "note_fwd_r3": near.format("(0.5+0.5j)"),
        }


# id prefix of each quadrature check family: its zeta factors per level
QUADRATURE_CHECKS = {"cor3_quad": 1, "cor4_quad": 1, "cor5_limit": 3, "cor7_random_quad": 1,
                     "cor8_random_quad": 1, "cor9_quad": 3, "pair_quad": 2}


class TestQuadratureBatches:
    @pytest.mark.parametrize("family, factors", QUADRATURE_CHECKS.items())
    def test_one_jet_batch_per_level_per_zeta_factor(self, monkeypatch, family, factors):
        # inside tanh_sinh_01 only: the closed-form sides use the scalar jet.
        # At most one batch per level per factor, and none that an earlier
        # batch of the pass at the same s and nodes already took at its order
        # or higher: the pass's jet table serves those
        count = {"levels": 0, "batches": 0, "inside": False}
        batch, quad = kernels._em_jet_batch, checks.tanh_sinh_01
        taken = {}

        def counted(s, alphas, order):
            count["batches"] += count["inside"]
            key = (repr(complex(s)), np.asarray(alphas).tobytes())
            assert taken.get(key, -1) < order, f"batch at s={s} taken again"
            taken[key] = order
            return batch(s, alphas, order)

        def refused_inside(scalar):
            def call(*args, **kwargs):
                assert not count["inside"], f"{scalar.__name__} called for a node"
                return scalar(*args, **kwargs)
            return call

        def levels_counted(f, tol):
            def level(xs):
                count["levels"] += 1
                count["inside"] = True
                try:
                    return f(xs)
                finally:
                    count["inside"] = False
            return quad(level, tol)

        monkeypatch.setattr(kernels, "_em_jet_batch", counted)
        for name in ("_em_jet", "hurwitz_zeta"):
            monkeypatch.setattr(kernels, name, refused_inside(getattr(kernels, name)))
        monkeypatch.setattr(checks, "tanh_sinh_01", levels_counted)
        results = run_checks(family)
        assert results and all(r.status == "pass" for r in results)
        assert count["levels"] and 0 < count["batches"] <= factors * count["levels"]

    def test_batches_per_registry_pass(self, monkeypatch):
        # at most one batch per zeta factor for levels 0..3 together, then
        # one per factor per further level, less those the pass's jet table
        # serves: 30 for the 27 integrals of a pass (49 without the table)
        count = [0]
        batch = kernels._em_jet_batch

        def counted(*args):
            count[0] += 1
            return batch(*args)

        monkeypatch.setattr(kernels, "_em_jet_batch", counted)
        assert all(r.status == "pass" for r in run_checks())
        assert count[0] == 30


def off_by_one_at(fn, *bad):
    """fn, with 1 added to its value at the arguments ``bad`` only."""
    def patched(*args, **kwargs):
        return fn(*args, **kwargs) + (1 if args == bad else 0)
    return patched


class TestCaseListsReachTheirEnds:
    # The pinned digest records only each check's worst pair, so a check that
    # stopped short of its last cases would still match it.  Each case below
    # is wrong at one late point only, and the check must see it.
    # cor6_two_paths hands each product, built once, to the Bernoulli-basis
    # route, so its last case is the product B_4^3.
    @pytest.mark.parametrize("check, module, name, bad", [
        ("cor6_two_paths", checks, "_bernoulli_basis_integral",
         (_bernoulli_product((4, 4, 4)),)),
        ("cor6_odd_zero", checks, "bernoulli_product_integral", ((5, 5, 5),)),
        ("kernel_neg_int_poly", kernels, "hurwitz_zeta", (-8, 1.9)),
        ("note_fwd_r3", kernels, "hurwitz_zeta_deriv", (3, 0.5 + 0.5j, 0.7)),
    ])
    def test_wrong_last_case_fails(self, monkeypatch, check, module, name, bad):
        monkeypatch.setattr(module, name, off_by_one_at(getattr(module, name), *bad))
        [result] = run_checks(check)
        assert result.id == check and result.status == "fail"


class TestConstantsNotFromTheKernel:
    # These checks compare a kernel value with a constant written down
    # (pi^2/6, pi^2/12, Apery's zeta(3)), not with the kernel's own sum, so a
    # Euler-Maclaurin sum 1e-8 off at s = 2 and 3 must fail all three.
    IDS = ("cor3_exact_r0_s3", "pole_psi_chain_r2", "prop4_closed_r1")

    def test_a_sum_off_at_two_and_three_fails_them(self, monkeypatch):
        em_jet_sum = kernels._em_jet_sum

        def off(s, alpha, order, minus_pole=False):
            jet = em_jet_sum(s, alpha, order, minus_pole)
            return [c * (1 + 1e-8) for c in jet] if s in (2, 3) else jet

        monkeypatch.setattr(kernels, "_em_jet_sum", off)
        results = {r.id: r.status for r in run_checks() if r.id in self.IDS}
        assert results == dict.fromkeys(self.IDS, "fail")


class TestWrappedRegistry:
    # perfbench/spans.py times each check by replacing its run with
    # dataclasses.replace(spec, run=wrapper); that must change nothing else
    @pytest.mark.parametrize("prefix", ["pair", "cor6"])
    def test_wrapped_runs_give_the_same_report(self, monkeypatch, capsys, prefix):
        argv = ["verify", "--filter", prefix, "--format", "json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        registry, calls = build_registry, {}

        def counted(spec):
            def run():
                calls[spec.id] = calls.get(spec.id, 0) + 1
                return spec.run()
            return dataclasses.replace(spec, run=run)

        monkeypatch.setattr(checks, "build_registry",
                            lambda: [counted(spec) for spec in registry()])
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        ran = [spec.id for spec in registry() if spec.id.startswith(prefix)]
        assert ran and calls == dict.fromkeys(ran, 1)


class TestExactChecksOnTheIntegerCore:
    def test_wrong_antiderivative_coefficient_fails_the_collapse(self, monkeypatch):
        terms = calculus.antiderivative_terms

        def off_by_one(r):
            out = list(terms(r))
            if r == 4:
                out[2] = dataclasses.replace(out[2], coefficient=out[2].coefficient + 1)
            return tuple(out)

        monkeypatch.setattr(calculus, "antiderivative_terms", off_by_one)
        results = {r.id: r.status for r in run_checks("cor1_collapse")}
        assert results.pop("cor1_collapse_r4") == "fail"
        assert set(results.values()) == {"pass"}
