"""Tests for the docs link checker (scripts/check_links.py).

The checker is what CI runs to keep README/docs cross-references from
rotting; these tests pin its parsing rules and then run it for real
against the repository's own documentation.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO / "scripts" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLinkParsing:
    def test_extracts_relative_links(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text(
            "see [docs](docs/GUIDE.md) and [anchor](docs/GUIDE.md#top)\n"
            "skip [ext](https://example.com) and [mail](mailto:x@y.z)\n"
        )
        links = checker.iter_links(md)
        assert [t for _, t, _ in links] == ["docs/GUIDE.md", "docs/GUIDE.md"]
        assert [frag for _, _, frag in links] == ["", "top"]

    def test_pure_anchor_links_have_empty_target(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("# Top\n[back to top](#top)\n")
        assert checker.iter_links(md) == [(2, "", "top")]

    def test_dead_link_reported_with_line_number(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("line one\n[gone](missing.md)\n")
        problems = checker.check_file(md)
        assert len(problems) == 1
        assert "a.md:2" in problems[0]
        assert "missing.md" in problems[0]

    def test_live_link_passes(self, checker, tmp_path):
        (tmp_path / "real.md").write_text("x")
        md = tmp_path / "a.md"
        md.write_text("[ok](real.md)\n")
        assert checker.check_file(md) == []

    def test_links_resolve_relative_to_containing_file(
        self, checker, tmp_path
    ):
        sub = tmp_path / "docs"
        sub.mkdir()
        (tmp_path / "README.md").write_text("root")
        md = sub / "inner.md"
        md.write_text("[up](../README.md)\n")
        assert checker.check_file(md) == []


class TestSlugification:
    @pytest.mark.parametrize(
        ("heading", "slug"),
        [
            ("Quick start", "quick-start"),
            ("The rules", "the-rules"),
            ("`check_out` — destination form", "check_out--destination-form"),
            ("What differs from the paper?", "what-differs-from-the-paper"),
            ("A.B.C", "abc"),
            ("already-hyphenated", "already-hyphenated"),
        ],
    )
    def test_github_slug(self, checker, heading, slug):
        assert checker.github_slug(heading) == slug

    def test_heading_anchors_collects_all_levels(self, checker):
        text = "# Title\n\n## Section One\n\n### Sub section\n"
        assert checker.heading_anchors(text) == {
            "title", "section-one", "sub-section",
        }

    def test_duplicate_headings_get_numeric_suffixes(self, checker):
        text = "## Setup\n\n## Setup\n\n## Setup\n"
        assert checker.heading_anchors(text) == {
            "setup", "setup-1", "setup-2",
        }

    def test_headings_inside_code_fences_are_ignored(self, checker):
        text = "## Real\n\n```bash\n# not a heading\n```\n"
        assert checker.heading_anchors(text) == {"real"}

    def test_html_anchors_are_collected(self, checker):
        text = '<a id="explicit"></a>\n<a name="named"></a>\n'
        assert checker.heading_anchors(text) == {"explicit", "named"}


class TestAnchorChecking:
    def test_in_page_anchor_resolves(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("# Top level\n\n[jump](#top-level)\n")
        assert checker.check_file(md) == []

    def test_dead_in_page_anchor_reported(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("# Top level\n\n[jump](#no-such-section)\n")
        problems = checker.check_file(md)
        assert len(problems) == 1
        assert "a.md:3" in problems[0]
        assert "dead anchor" in problems[0]
        assert "no-such-section" in problems[0]

    def test_cross_file_anchor_resolves(self, checker, tmp_path):
        (tmp_path / "guide.md").write_text("## Install steps\n")
        md = tmp_path / "a.md"
        md.write_text("[how](guide.md#install-steps)\n")
        assert checker.check_file(md) == []

    def test_dead_cross_file_anchor_reported(self, checker, tmp_path):
        (tmp_path / "guide.md").write_text("## Install steps\n")
        md = tmp_path / "a.md"
        md.write_text("[how](guide.md#uninstall)\n")
        problems = checker.check_file(md)
        assert len(problems) == 1
        assert "dead anchor" in problems[0]
        assert "guide.md#uninstall" in problems[0]

    def test_fragments_into_non_markdown_targets_are_not_checked(
        self, checker, tmp_path
    ):
        (tmp_path / "mod.py").write_text("x = 1\n")
        md = tmp_path / "a.md"
        md.write_text("[code](mod.py#L1)\n")
        assert checker.check_file(md) == []


class TestRepositoryDocs:
    def test_repo_docs_have_no_dead_links(self, checker, capsys):
        """The real gate: README.md + docs/*.md must be link-clean."""
        rc = checker.main([])
        err = capsys.readouterr().err
        assert rc == 0, f"dead links found:\n{err}"

    def test_main_fails_on_dead_link(self, checker, tmp_path):
        md = tmp_path / "bad.md"
        md.write_text("[gone](nope.md)\n")
        assert checker.main([str(md)]) == 1

    def test_main_errors_on_missing_input(self, checker, tmp_path):
        assert checker.main([str(tmp_path / "absent.md")]) == 2
