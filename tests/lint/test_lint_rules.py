"""Golden diagnostics for every ``repro.lint`` rule, plus the clean-tree gate.

The fixtures module holds one deliberately-broken program per rule; each
test asserts its ``RP1xx`` code fires at the expected program with a
``file:line`` anchor inside that program's definition and the advertised
fix hint.  The clean-tree test is the other half of the bargain: the
shipped ``src/`` tree must produce zero findings, so every future program
rewrite runs under this net.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.lint import RULES, analyze_paths
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).with_name("fixtures_broken.py")


@pytest.fixture(scope="module")
def broken():
    return analyze_paths([FIXTURES])


def findings_for(result, code: str, program: str | None = None):
    return [
        f
        for f in result.findings
        if f.code == code and (program is None or f.program == program)
    ]


def class_line_range(name: str) -> range:
    """Line span of a fixture class/function, so anchors can be asserted."""
    tree = ast.parse(FIXTURES.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name:
            return range(node.lineno, (node.end_lineno or node.lineno) + 1)
    raise AssertionError(f"fixture {name} not found")


class TestRuleFirings:
    def test_rp101_undeclared_subscript_read(self, broken):
        (finding,) = findings_for(broken, "RP101", "UndeclaredSharedReadProgram")
        assert "shared['labels']" in finding.message
        assert "raises KeyError inside a worker" in finding.message
        assert "add 'labels' to UndeclaredSharedReadProgram.shared_reads" in finding.hint
        assert finding.line in class_line_range("UndeclaredSharedReadProgram")

    def test_rp101_undeclared_get_read(self, broken):
        (finding,) = findings_for(broken, "RP101", "UndeclaredSharedGetProgram")
        assert "shared['undeclared']" in finding.message
        # the declared key is read too and must NOT be reported
        assert "'declared'" in finding.message  # listed as the declared contract

    def test_rp102_undeclared_store_prefix(self, broken):
        (finding,) = findings_for(broken, "RP102", "UndeclaredStoreLoadProgram")
        assert "prefix 'adj'" in finding.message
        assert "silently returns the default" in finding.message
        assert finding.line in class_line_range("UndeclaredStoreLoadProgram")

    def test_rp103_direct_apply_write(self, broken):
        (finding,) = findings_for(broken, "RP103", "UndeclaredApplyWriteProgram")
        assert "shared['totals']" in finding.message
        assert "add 'totals' to UndeclaredApplyWriteProgram.shared_writes" in finding.hint

    def test_rp103_alias_apply_write(self, broken):
        (finding,) = findings_for(broken, "RP103", "UndeclaredApplyAliasProgram")
        assert "shared['totals']" in finding.message
        assert finding.line in class_line_range("UndeclaredApplyAliasProgram")

    def test_rp104_stale_driver_scope(self, broken):
        (finding,) = findings_for(broken, "RP104", "StaleDriverScopeProgram")
        assert "delta_scope='driver'" in finding.message
        assert "shared['labels']" in finding.message
        assert "stale copy" in finding.message

    def test_rp104_invalid_scope_literal(self, broken):
        (finding,) = findings_for(broken, "RP104", "InvalidScopeProgram")
        assert "'everywhere'" in finding.message

    def test_rp105_hazards(self, broken):
        messages = [f.message for f in findings_for(broken, "RP105", "NondeterministicProgram")]
        assert any("random.random()" in m for m in messages)
        assert any("time.time()" in m for m in messages)
        assert any("id()" in m for m in messages)
        assert any("hash()" in m for m in messages)
        assert any("os.environ" in m for m in messages)
        assert any("unordered set" in m for m in messages)

    def test_rp105_send_many_fed_from_a_set(self, broken):
        # the comprehension building the set iterates a sorted list (clean);
        # the one finding is the set handed to send_many
        (finding,) = findings_for(broken, "RP105", "UnorderedFanOutProgram")
        assert "iterates an unordered set" in finding.message
        assert "wrap the iterable in sorted(...)" in finding.hint
        source_line = FIXTURES.read_text(encoding="utf-8").splitlines()[finding.line - 1]
        assert 'ctx.send_many("noise", sends)' in source_line

    def test_rp106_stored_runtime_reference_and_lambda(self, broken):
        messages = [f.message for f in findings_for(broken, "RP106", "UnpicklableInitProgram")]
        assert any("'cluster'" in m for m in messages)
        assert any("lambda" in m for m in messages)

    def test_rp106_nested_class(self, broken):
        (finding,) = findings_for(broken, "RP106", "NestedProgram")
        assert "inside a function" in finding.message
        assert finding.line in class_line_range("make_nested_program")

    def test_rp107_unused_declarations(self, broken):
        messages = [f.message for f in findings_for(broken, "RP107", "OverDeclaredProgram")]
        assert any("shared_reads key 'never_read'" in m for m in messages)
        assert any("shared_writes key 'never_written'" in m for m in messages)
        assert any("store_reads prefix 'ghost'" in m for m in messages)
        # the used declarations must not be reported
        assert not any("'used'" in m or "'adj'" in m for m in messages)

    def test_rp108_inbox_liar(self, broken):
        (finding,) = findings_for(broken, "RP108", "InboxLiarProgram")
        assert "reads_inbox = False" in finding.message
        assert finding.line in class_line_range("InboxLiarProgram")

    def test_rp109_unsized_closed_form_send(self, broken):
        (finding,) = findings_for(broken, "RP109")
        assert "'fixture-offer'" in finding.message
        assert "recursive sizer" in finding.message
        assert 'words=closed_form_words("fixture-offer"' in finding.hint
        assert finding.line in class_line_range("unsized_closed_form_send")

    def test_rp109_skips_sized_and_unregistered_sends(self, broken):
        # the fixture tree contains sends of unregistered tags ("noise") and
        # the registration call itself; only the unsized registered send fires
        assert len(findings_for(broken, "RP109")) == 1

    def test_rp110_driver_local_contradiction(self, broken):
        (finding,) = findings_for(broken, "RP110", "FusionDriverLocalLiarProgram")
        assert "driver_reads_sends = False" in finding.message
        assert "driver_local = True" in finding.message
        assert "drop driver_local = True" in finding.hint
        assert finding.line in class_line_range("FusionDriverLocalLiarProgram")

    def test_rp110_driver_scope_contradiction(self, broken):
        (finding,) = findings_for(broken, "RP110", "FusionDriverScopeLiarProgram")
        assert "delta_scope = 'driver'" in finding.message
        assert "fused block" in finding.message
        assert 'widen delta_scope to "owner" or "global"' in finding.hint
        assert finding.line in class_line_range("FusionDriverScopeLiarProgram")

    def test_every_rule_has_a_firing_fixture(self, broken):
        fired = {f.code for f in broken.findings}
        assert fired == set(RULES), f"rules without a broken fixture: {sorted(set(RULES) - fired)}"

    def test_findings_are_anchored_and_sorted(self, broken):
        assert all(f.path.endswith("fixtures_broken.py") for f in broken.findings)
        assert all(f.line > 0 for f in broken.findings)
        keys = [f.sort_key() for f in broken.findings]
        assert keys == sorted(keys)


class TestCleanTree:
    def test_shipped_tree_is_clean(self):
        result = analyze_paths([REPO_ROOT / "src"])
        assert result.errors == []
        assert result.findings == [], "\n".join(f.format_text() for f in result.findings)
        # non-vacuous: the five concrete static_mpc programs were analyzed
        assert result.programs_checked >= 5
        assert {
            "CSRLabelProposeProgram",
            "LabelApplyProgram",
            "CSRMatchingProposeProgram",
            "CSRMatchingAnnounceProgram",
            "CSRMSTCandidateProgram",
        } <= set(result.facts)

    def test_abstract_scaffolding_is_skipped(self):
        result = analyze_paths([REPO_ROOT / "src"])
        assert "SuperstepProgram" not in result.facts
        assert "VertexProgram" not in result.facts


class TestCli:
    def test_clean_tree_exit_zero(self, capsys):
        assert main([str(REPO_ROOT / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_text(self, capsys):
        assert main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "RP101" in out and "fix:" in out

    def test_json_format_round_trips(self, capsys):
        assert main([str(FIXTURES), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["files_scanned"] == 1
        codes = {f["code"] for f in report["findings"]}
        assert codes == set(RULES)
        sample = report["findings"][0]
        assert {"code", "rule", "path", "line", "col", "program", "message", "hint"} <= set(sample)

    def test_select_filters_codes(self, capsys):
        assert main([str(FIXTURES), "--select", "RP101", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in report["findings"]} == {"RP101"}

    def test_unknown_rule_code_exit_two(self, capsys):
        assert main([str(FIXTURES), "--select", "RP999"]) == 2
        assert "unknown rule codes" in capsys.readouterr().err

    def test_missing_path_exit_two(self, capsys):
        assert main(["does-not-exist-anywhere"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out
