"""Fixture-driven tests: every rule has true positives, true negatives,
and working suppressions, proven against files on disk (the same code
path ``python -m repro lint`` takes)."""

from pathlib import Path

import pytest

from repro.simlint import ALL_RULES, Severity, lint_paths, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

#: rule id -> (fixture file, minimum expected findings)
CASES = {
    "SL001": ("core/bad_sl001.py", 4),
    "SL002": ("sim/bad_sl002.py", 6),
    "SL003": ("core/bad_sl003.py", 3),
    "SL004": ("core/bad_sl004.py", 3),
    "SL005": ("sweep/bad_sl005.py", 3),
    "SL006": ("core/bad_sl006.py", 3),
    "SL007": ("core/bad_sl007.py", 4),
    "SL008": ("core/bad_sl008.py", 5),
    "SL009": ("parsim/bad_sl009.py", 4),
    "SL010": ("parsim/bad_sl010.py", 5),
    "SL011": ("parsim/bad_sl011.py", 3),
    "SL012": ("parsim/bad_sl012.py", 5),
    "SL013": ("sim/bad_sl013.py", 6),
    "SL014": ("core/bad_sl014.py", 6),
    "SL015": ("metrics/bad_sl015.py", 4),
}

GOOD = {
    "SL001": "core/good_sl001.py",
    "SL002": "sim/good_sl002.py",
    "SL003": "core/good_sl003.py",
    "SL004": "core/good_sl004.py",
    "SL005": "sweep/good_sl005.py",
    "SL006": "core/good_sl006.py",
    "SL007": "core/good_sl007.py",
    "SL008": "core/good_sl008.py",
    "SL009": "parsim/good_sl009.py",
    "SL010": "parsim/good_sl010.py",
    "SL011": "parsim/good_sl011.py",
    "SL012": "parsim/good_sl012.py",
    "SL013": "sim/good_sl013.py",
    "SL014": "core/good_sl014.py",
    "SL015": "metrics/good_sl015.py",
}

SUPPRESSED = {
    "SL001": "core/suppressed_sl001.py",
    "SL002": "sim/suppressed_sl002.py",
    "SL003": "core/suppressed_sl003.py",
    "SL004": "core/suppressed_sl004.py",
    "SL005": "sweep/suppressed_sl005.py",
    "SL006": "core/suppressed_sl006.py",
    "SL007": "core/suppressed_sl007.py",
    "SL008": "core/suppressed_sl008.py",
    "SL009": "parsim/suppressed_sl009.py",
    "SL010": "parsim/suppressed_sl010.py",
    "SL011": "parsim/suppressed_sl011.py",
    "SL012": "parsim/suppressed_sl012.py",
    "SL013": "sim/suppressed_sl013.py",
    "SL014": "core/suppressed_sl014.py",
    "SL015": "metrics/suppressed_sl015.py",
}


def findings_for(relpath, rule_id=None):
    found = lint_paths([FIXTURES / relpath], ALL_RULES)
    if rule_id is not None:
        found = [f for f in found if f.rule_id == rule_id]
    return found


class TestTruePositives:
    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_bad_fixture_is_flagged(self, rule_id):
        relpath, n_min = CASES[rule_id]
        found = findings_for(relpath, rule_id)
        assert len(found) >= n_min, (
            f"{rule_id} found only {len(found)} in {relpath}: {found}")

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_findings_carry_location_and_hint(self, rule_id):
        relpath, _ = CASES[rule_id]
        for f in findings_for(relpath, rule_id):
            assert f.line >= 1
            assert f.module.startswith("repro.")
            assert f.fix_hint
            assert rule_id in f.format_text()


class TestTrueNegatives:
    @pytest.mark.parametrize("rule_id", sorted(GOOD))
    def test_good_fixture_is_clean(self, rule_id):
        found = findings_for(GOOD[rule_id], rule_id)
        assert found == [], f"{rule_id} false positives: {found}"

    def test_sim_scoped_rules_skip_foreign_packages(self):
        # The same hazards outside sim-facing packages are out of scope.
        found = findings_for("cli_pkg/out_of_scope.py")
        assert found == []


class TestSuppressions:
    @pytest.mark.parametrize("rule_id", sorted(SUPPRESSED))
    def test_suppression_comment_mutes_finding(self, rule_id):
        found = findings_for(SUPPRESSED[rule_id], rule_id)
        assert found == [], f"{rule_id} ignored suppression: {found}"

    def test_suppression_is_rule_specific(self):
        # disable=SL003 must not hide a different rule on that line.
        from repro.simlint import lint_source
        src = ("import itertools\n"
               "_call_ids = itertools.count(1)  "
               "# simlint: disable=SL003\n")
        found = lint_source(src, "repro/core/x.py", ALL_RULES)
        assert [f.rule_id for f in found] == ["SL001"]


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(rules_by_id()) == [
            "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
            "SL008", "SL009", "SL010", "SL011", "SL012", "SL013", "SL014",
            "SL015"]

    def test_every_rule_documents_itself(self):
        for rule in ALL_RULES:
            assert rule.title and rule.fix_hint
            assert isinstance(rule.severity, Severity)

    def test_fixture_tree_trips_every_rule(self):
        # The integration property the CLI test relies on: linting the
        # whole fixture tree yields every rule id and a non-zero exit.
        found = lint_paths([FIXTURES], ALL_RULES)
        assert {f.rule_id for f in found} == set(CASES)
        assert any(f.severity is Severity.ERROR for f in found)


class TestSL010SupersetOfSL009:
    """The acceptance pairing: SL010 catches what SL009 provably
    misses, and never re-reports what SL009 already covers."""

    def test_aliased_fixture_is_sl009_clean_but_sl010_hit(self):
        found = findings_for(CASES["SL010"][0])
        assert [f for f in found if f.rule_id == "SL009"] == []
        assert len([f for f in found if f.rule_id == "SL010"]) >= 5

    def test_direct_fixture_is_sl010_clean(self):
        # Every direct map[key].attr access in the SL009 TP fixture is
        # SL009's finding alone — no double-reporting.
        found = findings_for(CASES["SL009"][0])
        assert [f for f in found if f.rule_id == "SL010"] == []
        assert len([f for f in found if f.rule_id == "SL009"]) >= 4

    def test_suppressed_sl009_does_not_resurface_as_sl010(self):
        found = findings_for(SUPPRESSED["SL009"])
        assert found == []


class TestSL013SupersetOfSL006:
    """The lifecycle pairing: SL013 catches what SL006 provably
    misses (aliases, helpers, rebinding, non-literal re-arm), and
    never re-reports SL006's literal patterns."""

    def test_typestate_fixture_is_sl006_clean_but_sl013_hit(self):
        found = findings_for(CASES["SL013"][0])
        assert [f for f in found if f.rule_id == "SL006"] == []
        assert len([f for f in found if f.rule_id == "SL013"]) >= 6

    def test_literal_fixture_is_sl013_clean(self):
        # Negative delays and literal .cancelled = False stores are
        # SL006's findings alone — no double-reporting.
        found = findings_for(CASES["SL006"][0])
        assert [f for f in found if f.rule_id == "SL013"] == []
        assert len([f for f in found if f.rule_id == "SL006"]) >= 3

    def test_suppressed_sl006_does_not_resurface_as_sl013(self):
        found = findings_for(SUPPRESSED["SL006"])
        assert found == []
