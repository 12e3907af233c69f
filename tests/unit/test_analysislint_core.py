"""Walker core, waivers/pragmas, and reporters."""

import json
import textwrap

from repro.analysislint.core import Finding, SourceFile
from repro.analysislint.report import render_json, render_text
from repro.analysislint.rules import all_rules, rule_titles
from tests.unit._lint_util import REPO_ROOT, real_tree


def _sf(text):
    return SourceFile("mod.py", "src/repro/controller/mod.py", textwrap.dedent(text))


class TestWaivers:
    def test_bare_shorthand_and_waive_form(self):
        sf = _sf(
            """\
            a = 1  # lint: no-integral
            b = 2  # lint: waive=CYC001
            c = 3  # unrelated comment
            """
        )
        assert sf.waived(1, "CYC001", "no-integral")
        assert sf.waived(2, "CYC001", "no-integral")
        assert not sf.waived(3, "CYC001", "no-integral")
        # shorthand never leaks across rules, waive= is rule-exact
        assert not sf.waived(2, "DET001")

    def test_multiline_node_span_is_checked(self):
        sf = _sf(
            """\
            x = compute(
                1,
            )  # lint: waive=DET001
            """
        )
        node = sf.tree.body[0]
        assert sf.waived(node, "DET001")

    def test_pragma_parsing(self):
        sf = _sf("# lint: stat-prefixes(lat_sum_, lat_cnt_)\n")
        assert len(sf.pragmas) == 1
        pragma = sf.pragmas[0]
        assert pragma.name == "stat-prefixes"
        assert pragma.args == ("lat_sum_", "lat_cnt_")
        assert not sf.waivers  # a pragma is not a waiver

    def test_qualname_nesting(self):
        sf = _sf(
            """\
            class Outer:
                def method(self):
                    return 1
            """
        )
        func = sf.tree.body[0].body[0]
        assert sf.qualname(func) == "Outer.method"


class TestFinding:
    def test_fingerprint_ignores_line_numbers(self):
        a = Finding("DET001", "src/repro/x.py", 10, "msg", "Cls.tick")
        b = Finding("DET001", "src/repro/x.py", 99, "msg", "Cls.tick")
        assert a.fingerprint() == b.fingerprint()
        assert a.as_dict()["fingerprint"] == a.fingerprint()

    def test_render_mentions_waiver(self):
        f = Finding("CYC001", "p.py", 3, "msg", "fn", waiver_hint="no-integral")
        assert "# lint: no-integral" in f.render()


class TestReporters:
    FINDINGS = [
        Finding("DET002", "b.py", 2, "second one", "g"),
        Finding("DET001", "a.py", 1, "first one", "f"),
    ]
    STALE = [("c.py", 3, "resource-ok")]

    def test_text_report_sections(self):
        text = render_text(self.FINDINGS, checked_files=5,
                           stale_waivers=self.STALE)
        lines = text.splitlines()
        assert "first one" in lines[0] and "second one" in lines[1]
        assert "  c.py:3: # lint: resource-ok" in lines
        assert lines[-1] == (
            "analysislint: 5 files, 2 new finding(s), 1 stale waiver(s)"
        )

    def test_json_report_parses(self):
        data = json.loads(render_json(self.FINDINGS, checked_files=5,
                                      stale_waivers=self.STALE))
        assert sorted(data) == ["files", "new", "stale_waivers"]
        assert data["files"] == 5
        assert [f["rule"] for f in data["new"]] == ["DET001", "DET002"]
        assert data["stale_waivers"] == [
            {"path": "c.py", "line": 3, "token": "resource-ok"}
        ]


class TestCatalogue:
    def test_rule_ids_unique_and_titled(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        titles = rule_titles()
        for rule in rules:
            assert rule.id and titles[rule.id] == rule.title

    def test_load_tree_is_deterministic_and_repo_relative(self):
        from repro.analysislint.core import load_tree

        tree = real_tree()
        relpaths = [sf.relpath for sf in tree]
        # a second scan visits the same files in the same order
        assert [sf.relpath for sf in load_tree(REPO_ROOT)] == relpaths
        assert all(not p.startswith("/") for p in relpaths)
        assert tree.root == REPO_ROOT
        assert tree.get("src/repro/common/stats.py") is not None
