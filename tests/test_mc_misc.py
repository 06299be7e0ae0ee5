"""Odds and ends: context dataclasses, stats edge cases, outcome helpers."""

import pytest

from repro.mc import Context, PropertyStats
from repro.mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult


class TestContextDataclasses:
    def test_static_context_is_hashable_and_frozen(self):
        a = Context.make({"r": 1}, [{"x": 0}, {"x": 1}])
        b = Context.make({"r": 1}, [{"x": 0}, {"x": 1}])
        assert a == b and hash(a) == hash(b)
        with pytest.raises(Exception):
            a.label = "nope"

    def test_reset_overrides_sorted(self):
        a = Context.make({"b": 2, "a": 1}, [])
        assert a.reset_overrides == (("a", 1), ("b", 2))


class TestPropertyStats:
    def test_empty_stats(self):
        stats = PropertyStats(label="empty")
        assert stats.count == 0
        assert stats.mean_time == 0.0
        assert stats.undetermined_fraction == 0.0
        assert "0 properties" in stats.summary()

    def test_histogram(self):
        stats = PropertyStats()
        for outcome in (REACHABLE, REACHABLE, UNREACHABLE, UNDETERMINED):
            stats.record(CheckResult("q", outcome, "e", time_seconds=0.25))
        assert stats.outcome_histogram == {
            "reachable": 2,
            "unreachable": 1,
            "undetermined": 1,
        }
        assert stats.undetermined_fraction == 0.25
        assert stats.total_time == 1.0

    def test_microsecond_mean_does_not_read_zero(self):
        """Cover evaluation runs at microseconds per property: the summary
        keeps significant digits instead of rounding the mean to 0."""
        stats = PropertyStats(label="rtl2mupath")
        for _ in range(4):
            stats.record(CheckResult("q", REACHABLE, "e", time_seconds=5e-6))
        assert stats.summary() == (
            "rtl2mupath: 4 properties, 5e-06s/property mean, "
            "0.00% undetermined"
        )


class TestCheckResult:
    def test_predicates(self):
        assert CheckResult("q", REACHABLE, "e").reachable
        assert CheckResult("q", UNREACHABLE, "e").unreachable
        assert CheckResult("q", UNDETERMINED, "e").undetermined

    def test_interpretation_only_affects_undetermined(self):
        result = CheckResult("q", REACHABLE, "e")
        assert result.interpret_undetermined(UNREACHABLE) == REACHABLE
        result = CheckResult("q", UNDETERMINED, "e")
        assert result.interpret_undetermined(UNREACHABLE) == UNREACHABLE


class TestExamplesImportable:
    def test_examples_compile(self):
        import pathlib
        import py_compile

        examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            py_compile.compile(str(script), doraise=True)
