"""Check registry, report rendering, and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab
from zetalab.checks import (REQUIRED_ID_PREFIXES, build_registry,
                            render_report, run_checks)
from zetalab.cli import main, parse_complex
from zetalab.kernels import PrecisionConfig


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
        assert doc["config"]["em_cutoff"] == 25
        assert doc["config"]["contour_points"] == 32

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

    def test_integrate_symbolic(self, capsys):
        assert main(["integrate", "--ms", "0", "--deriv", "0", "--symbolic"]) == 0
        assert capsys.readouterr().out.strip() == "zeta^(0)(s-1) * (1)/(-1 + 1*s)"

    def test_integrate_numeric(self, capsys):
        assert main(["integrate", "--ms", "0", "--s", "-2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("-0.0027777777")

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

    def test_global_precision_flags(self, capsys):
        assert main(["--em-cutoff", "30", "--contour-points", "64",
                     "eval", "--fn", "zeta", "--s", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1.64493406684823+0i"

    def test_bad_config_rejected(self, capsys):
        assert main(["--contour-points", "21", "eval", "--fn", "zeta", "--s", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_value(self, capsys):
        assert main(["eval", "--fn", "zeta"]) == 2
        assert "--s" in capsys.readouterr().err

    def test_pole_reported(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "1"]) == 2
        assert "pole" in capsys.readouterr().err

    def test_negative_complex_uses_equals_form(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s=-1.5"]) == 0
        assert capsys.readouterr().out.strip().startswith("-0.02548520189")

    def test_skipped_on_config_violation(self):
        # a contour radius that reaches the pole at s=1 must downgrade the
        # affected checks to skipped(reason), never to a silent pass
        results = run_checks("note_fwd", PrecisionConfig(contour_radius=0.9))
        skipped = [r for r in results if r.status.startswith("skipped(")]
        assert skipped and all("pole" in r.status for r in skipped)
        assert all(r.status == "pass" for r in results if r not in skipped)

    def test_skipped_results_render(self):
        results = run_checks("note_fwd", PrecisionConfig(contour_radius=0.9))
        report = render_report(results, "json", PrecisionConfig(contour_radius=0.9))
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


class TestDemos:
    @pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
    def test_demo_runs_clean(self, script):
        path = os.pathsep.join(filter(None, [ZETALAB_ROOT, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
