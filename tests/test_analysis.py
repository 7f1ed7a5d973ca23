"""Tests for the project linter (repro.analysis).

Each rule is exercised against small fixture modules written to
``tmp_path`` — a clean snippet that must produce no findings and a
violating snippet that must produce exactly the expected finding —
plus pragma suppression, the reporters' schemas and the CLI contract
(exit codes, ``--list-rules``, ``--format json``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    JSON_REPORT_VERSION,
    RULE_COVERAGE,
    SARIF_SCHEMA,
    SARIF_VERSION,
    Finding,
    PragmaIndex,
    all_rule_classes,
    get_rules,
    iter_python_files,
    lint_paths,
    render_json_report,
    render_sarif_report,
    render_text_report,
)
from repro.cli import main as cli_main
from repro.errors import ParameterError

EXPECTED_RULES = (
    "arena-loan-escape",
    "async-blocking-call",
    "lock-held-across-await",
    "loop-thread-telemetry",
    "shm-lifecycle",
    "telemetry-names",
    "telemetry-ownership",
    "unseeded-randomness",
)


def lint_snippet(tmp_path, rule, source, relpath="pkg/mod.py"):
    """Lint one snippet with one rule; root is tmp_path (no docs check)."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], rules=get_rules([rule]), root=tmp_path)


class TestRegistry:
    def test_all_rules_registered(self):
        names = tuple(cls.name for cls in all_rule_classes())
        assert names == EXPECTED_RULES  # sorted by name

    def test_every_rule_has_a_description(self):
        assert all(cls.description for cls in all_rule_classes())

    def test_get_rules_unknown_name_raises(self):
        with pytest.raises(ParameterError, match="unknown lint rule"):
            get_rules(["no-such-rule"])

    def test_get_rules_subset(self):
        (rule,) = get_rules(["unseeded-randomness"])
        assert rule.name == "unseeded-randomness"


class TestPragmaIndex:
    def test_line_pragma_suppresses_only_that_line(self):
        idx = PragmaIndex.from_source(
            "x = 1\ny = 2  # repro-lint: disable=rule-a\n"
        )
        assert idx.suppresses("rule-a", 2)
        assert not idx.suppresses("rule-a", 1)
        assert not idx.suppresses("rule-b", 2)

    def test_comma_separated_rules(self):
        idx = PragmaIndex.from_source(
            "x = 1\ny = 2  # repro-lint: disable=rule-a, rule-b\n"
        )
        assert idx.suppresses("rule-a", 2) and idx.suppresses("rule-b", 2)

    def test_file_pragma_suppresses_everywhere(self):
        idx = PragmaIndex.from_source(
            "# repro-lint: disable-file=rule-a\nx = 1\n"
        )
        assert idx.suppresses("rule-a", 999)


class TestTelemetryNamesRule:
    RULE = "telemetry-names"

    def test_registered_counter_is_clean(self, tmp_path):
        src = "tm.inc('detect.frames')\n"
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_unknown_name_is_flagged(self, tmp_path):
        src = "tm.inc('detect.no_such_counter')\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert finding.rule == self.RULE
        assert "not in the" in finding.message
        assert "detect.no_such_counter" in finding.message

    def test_kind_mismatch_is_flagged(self, tmp_path):
        # detect.frame is registered as a span; inc() records a counter.
        src = "tm.inc('detect.frame')\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "registered as a span" in finding.message
        assert "counter" in finding.message

    def test_fstring_resolves_via_template(self, tmp_path):
        src = (
            "def f(tm, s):\n"
            "    with tm.span(f'detect.scale[{s:.2f}].partial_matmul'):\n"
            "        pass\n"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_partial_fstring_cannot_resolve(self, tmp_path):
        src = "tm.inc(f'{prefix}.windows_scanned')\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "<>.windows_scanned" in finding.message

    def test_dynamic_names_are_not_vouched_for(self, tmp_path):
        # A bare variable is invisible to the literal matcher.
        src = "tm.inc(name)\n"
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_tests_directory_is_exempt(self, tmp_path):
        src = "tm.inc('made.up.name')\n"
        findings = lint_snippet(
            tmp_path, self.RULE, src, relpath="tests/test_x.py"
        )
        assert findings == []


class TestTelemetryOwnershipRule:
    RULE = "telemetry-ownership"

    def test_constructed_object_is_clean(self, tmp_path):
        src = (
            "def wire(tm):\n"
            "    ext = HogExtractor()\n"
            "    ext.telemetry = tm\n"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_self_assignment_is_clean(self, tmp_path):
        src = (
            "class D:\n"
            "    def __init__(self, tm):\n"
            "        self.telemetry = tm\n"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_borrowed_object_is_flagged(self, tmp_path):
        src = (
            "def wire(extractor, tm):\n"
            "    extractor.telemetry = tm\n"
        )
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert finding.rule == self.RULE
        assert "did not construct extractor" in finding.message

    def test_conditional_construction_is_clean(self, tmp_path):
        # The PR 2 fix's own shape: construct-or-borrow, then assign.
        src = (
            "class D:\n"
            "    def __init__(self, ext, tm):\n"
            "        self.ext = ext if ext is not None "
            "else HogExtractor()\n"
            "        self.ext.telemetry = tm\n"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []


class TestUnseededRandomnessRule:
    RULE = "unseeded-randomness"

    def test_seeded_default_rng_is_clean(self, tmp_path):
        src = "rng = np.random.default_rng(1234)\n"
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_legacy_global_call_is_flagged(self, tmp_path):
        src = "x = np.random.rand(3)\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "np.random.rand" in finding.message

    def test_numpy_spelling_is_flagged_too(self, tmp_path):
        src = "numpy.random.seed(0)\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert finding.rule == self.RULE

    def test_argless_default_rng_is_flagged(self, tmp_path):
        src = "rng = np.random.default_rng()\n"
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "nondeterministic" in finding.message

    def test_tests_directory_is_exempt(self, tmp_path):
        src = "x = np.random.rand(3)\n"
        findings = lint_snippet(
            tmp_path, self.RULE, src, relpath="tests/test_x.py"
        )
        assert findings == []


class TestPragmasEndToEnd:
    def test_line_pragma_suppresses_finding(self, tmp_path):
        src = (
            "x = np.random.rand(3)"
            "  # repro-lint: disable=unseeded-randomness\n"
        )
        findings = lint_snippet(tmp_path, "unseeded-randomness", src)
        assert findings == []

    def test_file_pragma_suppresses_whole_module(self, tmp_path):
        src = (
            "# repro-lint: disable-file=unseeded-randomness\n"
            "x = np.random.rand(3)\n"
            "y = np.random.rand(4)\n"
        )
        findings = lint_snippet(tmp_path, "unseeded-randomness", src)
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "x = np.random.rand(3)"
            "  # repro-lint: disable=telemetry-names\n"
        )
        findings = lint_snippet(tmp_path, "unseeded-randomness", src)
        assert len(findings) == 1


class TestRunner:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        (finding,) = lint_paths([path], rules=get_rules([]), root=tmp_path)
        assert finding.rule == "parse-error"
        assert "syntax error" in finding.message

    def test_iter_python_files_skips_caches_and_dedupes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-310.pyc.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert files == [tmp_path / "a.py"]

    def test_findings_are_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("x = np.random.rand(1)\n")
        (tmp_path / "a.py").write_text(
            "x = np.random.rand(1)\ny = np.random.rand(1)\n"
        )
        findings = lint_paths(
            [tmp_path], rules=get_rules(["unseeded-randomness"]),
            root=tmp_path,
        )
        assert [(f.path, f.line) for f in findings] == [
            ("a.py", 1), ("a.py", 2), ("b.py", 1),
        ]


class TestReporters:
    FINDINGS = [
        Finding(path="a.py", line=3, col=7, rule="telemetry-names",
                message="boom"),
    ]

    def test_text_report(self):
        report = render_text_report(self.FINDINGS, checked_files=2)
        assert "a.py:3:7: telemetry-names: boom" in report
        assert report.endswith("1 finding in 2 files checked")

    def test_text_report_clean(self):
        report = render_text_report([], checked_files=1)
        assert report == "0 findings in 1 file checked"

    def test_json_report_schema(self):
        payload = json.loads(render_json_report(
            self.FINDINGS, rules=get_rules(), checked_files=2,
        ))
        assert payload["version"] == JSON_REPORT_VERSION == 1
        assert payload["rules"] == list(EXPECTED_RULES)
        assert payload["checked_files"] == 2
        assert payload["count"] == 1
        assert payload["findings"] == [{
            "path": "a.py", "line": 3, "col": 7,
            "rule": "telemetry-names", "message": "boom",
        }]


class TestSarifReporter:
    FINDINGS = [
        Finding(path="a.py", line=3, col=7, rule="telemetry-names",
                message="boom"),
        Finding(path="b.py", line=1, col=1, rule="parse-error",
                message="syntax error: oops"),
    ]

    def document(self):
        return json.loads(render_sarif_report(
            self.FINDINGS, rules=get_rules(), checked_files=2,
        ))

    def test_envelope(self):
        doc = self.document()
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        assert len(doc["runs"]) == 1

    def test_rule_indices_resolve(self):
        run = self.document()["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        # Registered rules first, then the on-the-fly parse-error entry.
        assert [r["id"] for r in rules][:len(EXPECTED_RULES)] == list(
            EXPECTED_RULES
        )
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_result_location(self):
        result = self.document()["runs"][0]["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"] == {
            "uri": "a.py", "uriBaseId": "SRCROOT",
        }
        assert location["region"] == {"startLine": 3, "startColumn": 7}
        assert result["message"]["text"] == "boom"

    def test_checked_files_property(self):
        run = self.document()["runs"][0]
        assert run["properties"]["checkedFiles"] == 2


class TestRuleCoverage:
    def test_src_runs_every_rule(self):
        assert RULE_COVERAGE["src"] == frozenset()

    def test_flow_rules_run_everywhere(self):
        flow_rules = {
            "async-blocking-call", "lock-held-across-await",
            "loop-thread-telemetry", "shm-lifecycle",
            "arena-loan-escape",
        }
        for excluded in RULE_COVERAGE.values():
            assert not flow_rules & excluded

    def test_coverage_applies_to_explicit_rule_selection(self, tmp_path):
        # Even `--rules unseeded-randomness tests/` reports nothing:
        # the coverage table is policy, not a default.
        path = tmp_path / "tests" / "test_x.py"
        path.parent.mkdir()
        path.write_text("x = np.random.rand(3)\n")
        findings = lint_paths(
            [path], rules=get_rules(["unseeded-randomness"]),
            root=tmp_path,
        )
        assert findings == []

    def test_flow_rule_fires_in_tests_directory(self, tmp_path):
        src = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )
        (finding,) = lint_snippet(
            tmp_path, "async-blocking-call", src,
            relpath="tests/test_x.py",
        )
        assert finding.rule == "async-blocking-call"

    def test_unknown_directory_runs_all_rules(self, tmp_path):
        src = "x = np.random.rand(3)\n"
        (finding,) = lint_snippet(
            tmp_path, "unseeded-randomness", src,
            relpath="scripts/gen.py",
        )
        assert finding.rule == "unseeded-randomness"


class TestParallelLint:
    def test_jobs_find_the_same_findings(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "x = np.random.rand(1)\ny = np.random.rand(1)\n"
        )
        (tmp_path / "b.py").write_text("z = np.random.rand(1)\n")
        (tmp_path / "c.py").write_text("ok = 1\n")
        serial = lint_paths([tmp_path], rules=get_rules(), root=tmp_path)
        fanned = lint_paths(
            [tmp_path], rule_names=list(EXPECTED_RULES), root=tmp_path,
            jobs=2,
        )
        assert serial == fanned
        assert len(serial) == 3

    def test_rules_and_rule_names_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            lint_paths(
                [tmp_path], rules=get_rules(),
                rule_names=["telemetry-names"], root=tmp_path,
            )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = cli_main([
            "lint", str(tmp_path), "--root", str(tmp_path),
        ])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = np.random.rand(1)\n")
        rc = cli_main(["lint", str(tmp_path), "--root", str(tmp_path)])
        assert rc == 1
        assert "unseeded-randomness" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = np.random.rand(1)\n")
        rc = cli_main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--format", "json",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == 1

    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = np.random.rand(1)\n")
        rc = cli_main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--format", "sarif",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "unseeded-randomness"

    def test_jobs_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = np.random.rand(1)\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = cli_main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--jobs", "2",
        ])
        assert rc == 1
        assert "unseeded-randomness" in capsys.readouterr().out

    def test_invalid_jobs_exits_two(self, tmp_path, capsys):
        rc = cli_main(["lint", str(tmp_path), "--jobs", "0"])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rules_subset(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = np.random.rand(1)\n")
        rc = cli_main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--rules", "telemetry-names",
        ])
        assert rc == 0  # the only violation is of an unselected rule

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        rc = cli_main([
            "lint", str(tmp_path), "--rules", "no-such-rule",
        ])
        assert rc == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = cli_main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in EXPECTED_RULES:
            assert name in out


class TestRepositoryIsClean:
    def test_src_lints_clean(self):
        """The enforced invariant: the library has zero findings."""
        repo = Path(__file__).resolve().parent.parent
        findings = lint_paths([repo / "src"], root=repo)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"lint findings in src/:\n{rendered}"

    def test_tests_and_benchmarks_lint_clean(self):
        """tests/ and benchmarks/ are clean under their coverage rows."""
        repo = Path(__file__).resolve().parent.parent
        paths = [
            repo / name for name in ("tests", "benchmarks")
            if (repo / name).is_dir()
        ]
        findings = lint_paths(paths, root=repo)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"lint findings:\n{rendered}"

    def test_src_needs_no_pragmas(self):
        """docs/ANALYSIS.md promises src/ carries zero pragmas.

        The linter's own package is excluded: it necessarily spells the
        pragma grammar in its implementation and docstrings.
        """
        repo = Path(__file__).resolve().parent.parent
        offenders = [
            str(path)
            for path in sorted((repo / "src").rglob("*.py"))
            if "analysis" not in path.parts
            and "repro-lint:" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []
