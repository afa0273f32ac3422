"""Tests for the static analysis plane (repro.analysis + `repro-sched analyze`).

Every A-rule is proven live against an adversarial fixture pair under
``tests/fixtures/analysis/``: the ``*_bad.py`` file must trigger the rule,
the ``*_good.py`` file must come back completely clean.  On top of the
rule matrix we exercise the engine plumbing (contexts, sorting, syntax
errors), the baseline suppression workflow, and the CLI exit-code contract.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

from repro.analysis import (
    AnalysisReport,
    BaselineEntry,
    analyze_paths,
    apply_baseline,
    load_baseline,
    rule_catalogue,
    write_baseline,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

RULE_CODES = (
    "A101",
    "A102",
    "A103",
    "A201",
    "A202",
    "A203",
    "A301",
    "A302",
    "A303",
)


class TestRuleMatrix(unittest.TestCase):
    """Each rule fires on its bad fixture and stays quiet on the good one."""

    def _fixture(self, code: str, kind: str) -> str:
        path = FIXTURES / f"{code.lower()}_{kind}.py"
        self.assertTrue(path.is_file(), f"missing fixture {path}")
        return str(path)

    def test_bad_fixtures_trigger(self) -> None:
        for code in RULE_CODES:
            with self.subTest(code=code):
                report = analyze_paths([self._fixture(code, "bad")])
                self.assertIn(
                    code,
                    report.codes(),
                    f"{code} did not fire on its bad fixture: "
                    f"{[i.code for i in report.issues]}",
                )

    def test_good_fixtures_are_clean(self) -> None:
        for code in RULE_CODES:
            with self.subTest(code=code):
                report = analyze_paths([self._fixture(code, "good")])
                self.assertEqual(
                    report.issues,
                    (),
                    f"good fixture for {code} raised "
                    f"{[(i.code, i.line, i.message) for i in report.issues]}",
                )

    def test_every_registered_rule_has_fixtures(self) -> None:
        registered = {r.code for r in rule_catalogue()}
        self.assertEqual(registered, set(RULE_CODES))

    def test_issue_context_is_qualified(self) -> None:
        report = analyze_paths([self._fixture("A201", "bad")])
        contexts = {i.context for i in report.issues if i.code == "A201"}
        self.assertIn("tweak", contexts)
        self.assertIn("backdoor", contexts)


class TestEngine(unittest.TestCase):
    def test_directory_walk_skips_fixtures_dir(self) -> None:
        # Directory expansion must skip tests/fixtures (adversarial files),
        # otherwise CI's wide `analyze tests/` gate could never be clean.
        report = analyze_paths([str(Path(__file__).parent)])
        analyzed = set(report.file_paths)
        self.assertTrue(analyzed, "expected tests/ to contain analyzable files")
        for path in analyzed:
            self.assertNotIn("fixtures", Path(path).parts)

    def test_explicit_fixture_path_is_always_analyzed(self) -> None:
        report = analyze_paths([str(FIXTURES / "a303_bad.py")])
        self.assertEqual(report.files, 1)
        self.assertIn("A303", report.codes())

    def test_syntax_error_becomes_a000(self) -> None:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "broken.py"
            broken.write_text("def oops(:\n")
            report = analyze_paths([str(broken)])
            self.assertIn("A000", report.codes())
            self.assertFalse(report.ok(strict=False))

    def test_missing_explicit_file_raises(self) -> None:
        with self.assertRaises(FileNotFoundError):
            analyze_paths(["does-not-exist.py"])

    def test_issues_sorted_by_path_line(self) -> None:
        report = analyze_paths(
            [str(FIXTURES / "a101_bad.py"), str(FIXTURES / "a303_bad.py")]
        )
        keys = [(i.path, i.line, i.code) for i in report.issues]
        self.assertEqual(keys, sorted(keys))

    def test_strictness_promotes_warnings(self) -> None:
        # A303 is a WARNING: ok without --strict, failing with it.
        report = analyze_paths([str(FIXTURES / "a303_bad.py")])
        self.assertTrue(report.ok(strict=False))
        self.assertFalse(report.ok(strict=True))


class TestBaseline(unittest.TestCase):
    def _report(self) -> AnalysisReport:
        return analyze_paths([str(FIXTURES / "a303_bad.py")])

    def test_matching_entry_suppresses(self) -> None:
        report = self._report()
        issue = report.issues[0]
        entry = BaselineEntry(
            code=issue.code,
            path=issue.path,
            context=issue.context,
            reason="fixture exercises the latch on purpose",
        )
        filtered = apply_baseline(report, (entry,))
        self.assertEqual(filtered.issues, ())
        self.assertEqual(len(filtered.suppressed), 1)
        self.assertTrue(filtered.ok(strict=True))

    def test_wildcard_context_matches(self) -> None:
        report = self._report()
        issue = report.issues[0]
        entry = BaselineEntry(
            code=issue.code, path=issue.path, context="*", reason="any context"
        )
        filtered = apply_baseline(report, (entry,))
        self.assertEqual(filtered.issues, ())

    def test_stale_entry_fails_strict_only_when_in_scope(self) -> None:
        report = self._report()
        in_scope = BaselineEntry(
            code="A999",
            path=report.issues[0].path,
            context="nope",
            reason="never matches",
        )
        out_of_scope = BaselineEntry(
            code="A999",
            path="src/elsewhere/never_analyzed.py",
            context="*",
            reason="different file set",
        )
        filtered = apply_baseline(report, (in_scope, out_of_scope))
        # The in-scope stale entry is reported and fails --strict ...
        self.assertEqual(len(filtered.unused_baseline), 1)
        self.assertFalse(filtered.ok(strict=True))
        # ... while the out-of-scope entry is silently retained.
        self.assertEqual(filtered.unused_baseline[0].code, "A999")
        self.assertEqual(filtered.unused_baseline[0].path, in_scope.path)

    def test_load_rejects_empty_reason(self) -> None:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            path.write_text(
                json.dumps(
                    {
                        "version": 1,
                        "entries": [
                            {"code": "A101", "path": "x.py", "context": "*", "reason": ""}
                        ],
                    }
                )
            )
            with self.assertRaises(ValueError):
                load_baseline(path)

    def test_write_then_load_roundtrip(self) -> None:
        import tempfile

        report = self._report()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            write_baseline(report, path)
            entries = load_baseline(path)
            self.assertEqual(len(entries), 1)
            filtered = apply_baseline(report, entries)
            self.assertEqual(filtered.issues, ())

    def test_report_json_shape(self) -> None:
        report = self._report()
        payload = report.to_dict(strict=True)
        self.assertIn("issues", payload)
        self.assertIn("ok", payload)
        self.assertIn("files", payload)
        self.assertTrue(payload["strict"])
        self.assertFalse(payload["ok"])
        issue = payload["issues"][0]
        for field in ("code", "severity", "message", "path", "line", "context"):
            self.assertIn(field, issue)
        # Must be JSON-serialisable end to end.
        json.dumps(payload)


class TestAnalyzeCli(unittest.TestCase):
    def test_clean_file_exits_zero(self) -> None:
        rc = cli_main(["analyze", str(FIXTURES / "a101_good.py")])
        self.assertEqual(rc, 0)

    def test_findings_exit_one(self) -> None:
        rc = cli_main(["analyze", str(FIXTURES / "a101_bad.py")])
        self.assertEqual(rc, 1)

    def test_warning_only_needs_strict_to_fail(self) -> None:
        bad = str(FIXTURES / "a303_bad.py")
        self.assertEqual(cli_main(["analyze", bad]), 0)
        self.assertEqual(cli_main(["analyze", bad, "--strict"]), 1)

    def test_missing_path_exits_two(self) -> None:
        rc = cli_main(["analyze", "does-not-exist.py"])
        self.assertEqual(rc, 2)

    def test_json_output_parses(self) -> None:
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(
                ["analyze", str(FIXTURES / "a302_bad.py"), "--json", "--strict"]
            )
        self.assertEqual(rc, 1)
        payload = json.loads(buf.getvalue())
        codes = {i["code"] for i in payload["issues"]}
        self.assertIn("A302", codes)

    def test_baseline_flag_suppresses(self) -> None:
        import tempfile

        bad = str(FIXTURES / "a303_bad.py")
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            rc = cli_main(["analyze", bad, "--write-baseline", str(baseline)])
            self.assertEqual(rc, 0)
            self.assertTrue(baseline.is_file())
            rc = cli_main(["analyze", bad, "--strict", "--baseline", str(baseline)])
            self.assertEqual(rc, 0)

    def test_malformed_baseline_exits_two(self) -> None:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            baseline.write_text("{not json")
            rc = cli_main(
                ["analyze", str(FIXTURES / "a101_good.py"), "--baseline", str(baseline)]
            )
            self.assertEqual(rc, 2)

    def test_legacy_graph_mode_still_works(self) -> None:
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["analyze", "--problem", "lu", "--tasks", "50"])
        self.assertEqual(rc, 0)
        self.assertIn("tasks", buf.getvalue())


class TestRepoIsClean(unittest.TestCase):
    def test_src_tree_strict_clean(self) -> None:
        """The acceptance gate: `analyze src/ --strict` finds nothing."""
        root = Path(__file__).parent.parent
        report = analyze_paths([str(root / "src")])
        baseline_path = root / "tools" / "analysis-baseline.json"
        entries = load_baseline(baseline_path) if baseline_path.is_file() else ()
        filtered = apply_baseline(report, entries)
        self.assertEqual(
            filtered.issues,
            (),
            f"src/ has unsuppressed findings: "
            f"{[(i.code, i.path, i.line) for i in filtered.issues]}",
        )
        self.assertTrue(filtered.ok(strict=True))


if __name__ == "__main__":
    unittest.main()
