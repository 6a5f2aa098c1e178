"""Tests for the domain linter (``repro.lint``).

Every RPL rule gets at least one failing fixture and one passing
fixture; package scoping, per-line ``# repro: noqa[...]`` suppression,
the baseline ratchet, the CLI, and the repo self-check (``repro lint
src/`` is clean modulo the committed baseline) are all exercised.

Fixture sources are linted via :func:`lint_source` with fake
``src/repro/...`` paths so package-scoped rules apply exactly as they
would on real modules.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import (
    BASELINE_VERSION,
    apply_baseline,
    baseline_counts,
    load_baseline,
    save_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.framework import (
    RULE_REGISTRY,
    all_rules,
    lint_paths,
    lint_source,
    module_name_for,
    parse_noqa,
    rules_by_code,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: default fixture home: inside the energy-math + simulation scopes.
CORE = "src/repro/core/fixture.py"
NETSIM = "src/repro/netsim/fixture.py"
SERVICE = "src/repro/service/fixture.py"
HARNESS = "src/repro/harness/fixture.py"


def lint(source: str, path: str = CORE, codes: list[str] | None = None):
    """Lint a dedented fixture, optionally restricted to some codes."""
    rules = rules_by_code(codes) if codes is not None else None
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def codes_of(findings) -> list[str]:
    """The finding codes, in report order."""
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# framework
# ----------------------------------------------------------------------


class TestFramework:
    def test_module_name_anchors_at_repro(self):
        assert module_name_for("src/repro/netsim/engine.py") == "repro.netsim.engine"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("scripts/tool.py") == "scripts.tool"

    def test_every_rule_is_registered_with_metadata(self):
        rules = all_rules()
        assert len(rules) == 12
        for rule in rules:
            assert rule.code.startswith("RPL")
            assert rule.name and rule.summary
        assert sorted(RULE_REGISTRY) == [
            f"RPL{i:03d}" for i in range(1, 13)
        ]

    def test_rules_by_code_rejects_unknown(self):
        with pytest.raises(KeyError, match="RPL999"):
            rules_by_code(["RPL999"])

    def test_syntax_error_becomes_rpl000(self):
        findings = lint("def broken(:\n")
        assert codes_of(findings) == ["RPL000"]
        assert "syntax error" in findings[0].message

    def test_finding_key_and_render(self):
        findings = lint("x = 1 if 0.5 == 0.5 else 2\n", codes=["RPL003"])
        assert len(findings) == 1
        f = findings[0]
        assert f.key == f"{CORE}::RPL003"
        assert f.render().startswith(f"{CORE}:1:")
        assert f.to_dict()["code"] == "RPL003"

    def test_parse_noqa_multiple_codes(self):
        lines = ["x = 1", "y = 2  # repro: noqa[RPL001, RPL003]", "z = 3"]
        assert parse_noqa(lines) == {2: frozenset({"RPL001", "RPL003"})}


# ----------------------------------------------------------------------
# RPL001 — raw unit literals
# ----------------------------------------------------------------------


class TestRawUnitLiterals:
    def test_conversion_constant_flagged(self):
        findings = lint(
            """
            def to_mb(n):
                return n / 1000000
            """,
            codes=["RPL001"],
        )
        assert codes_of(findings) == ["RPL001"]
        assert "repro.units" in findings[0].message

    def test_binary_constant_flagged(self):
        findings = lint("cap = pages * 1024\n", codes=["RPL001"])
        assert codes_of(findings) == ["RPL001"]

    def test_bits_factor_on_rate_flagged(self):
        findings = lint(
            """
            def f(throughput_bps):
                return throughput_bps / 8
            """,
            codes=["RPL001"],
        )
        assert codes_of(findings) == ["RPL001"]
        assert "factor 8" in findings[0].message

    def test_innocent_arithmetic_passes(self):
        findings = lint(
            """
            def f(x, count):
                return x * 42 + count / 8
            """,
            codes=["RPL001"],
        )
        assert findings == []

    def test_units_module_is_exempt(self):
        source = "MB = 1000000\nx = 3 * 1000000\n"
        assert lint(source, path="src/repro/units.py", codes=["RPL001"]) == []
        assert lint(source, path=CORE, codes=["RPL001"]) != []


# ----------------------------------------------------------------------
# RPL002 — simulation nondeterminism
# ----------------------------------------------------------------------


class TestSimulationNondeterminism:
    def test_stdlib_random_import_flagged(self):
        assert codes_of(lint("import random\n", path=NETSIM, codes=["RPL002"])) == [
            "RPL002"
        ]
        assert codes_of(
            lint("from random import choice\n", path=SERVICE, codes=["RPL002"])
        ) == ["RPL002"]

    def test_unseeded_default_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            path=NETSIM,
            codes=["RPL002"],
        )
        assert codes_of(findings) == ["RPL002"]
        assert "unseeded" in findings[0].message

    def test_seeded_default_rng_passes(self):
        source = """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """
        assert lint(source, path=NETSIM, codes=["RPL002"]) == []

    def test_wall_clock_read_flagged(self):
        findings = lint(
            """
            import time

            def now():
                return time.time()
            """,
            path=NETSIM,
            codes=["RPL002"],
        )
        assert codes_of(findings) == ["RPL002"]
        assert "wall-clock" in findings[0].message

    def test_rule_scoped_to_simulation_packages(self):
        source = "import random\nx = random.random()\n"
        assert lint(source, path=HARNESS, codes=["RPL002"]) == []
        assert lint(source, path=NETSIM, codes=["RPL002"]) != []


# ----------------------------------------------------------------------
# RPL003 — float equality
# ----------------------------------------------------------------------


class TestFloatEquality:
    def test_float_eq_flagged(self):
        findings = lint(
            """
            def hit_boundary(x):
                return x == 0.75
            """,
            codes=["RPL003"],
        )
        assert codes_of(findings) == ["RPL003"]
        assert "tolerance" in findings[0].message

    def test_float_ne_flagged(self):
        assert codes_of(lint("ok = y != 1.5\n", codes=["RPL003"])) == ["RPL003"]

    def test_integer_equality_passes(self):
        assert lint("done = n == 0\n", codes=["RPL003"]) == []

    def test_out_of_scope_package_passes(self):
        source = "flag = x == 0.5\n"
        assert lint(source, path=HARNESS, codes=["RPL003"]) == []
        assert lint(source, path=CORE, codes=["RPL003"]) != []


# ----------------------------------------------------------------------
# RPL004 — unguarded observer calls
# ----------------------------------------------------------------------


class TestUnguardedObserver:
    def test_unguarded_call_flagged(self):
        findings = lint(
            """
            def step(observer):
                observer.on_step(1.0)
            """,
            codes=["RPL004"],
        )
        assert codes_of(findings) == ["RPL004"]
        assert "is not None" in findings[0].message

    def test_unguarded_attribute_receiver_flagged(self):
        findings = lint(
            """
            class Engine:
                def step(self):
                    self.observer.on_step(1.0)
            """,
            codes=["RPL004"],
        )
        assert codes_of(findings) == ["RPL004"]

    def test_guarded_call_passes(self):
        source = """
            def step(observer):
                if observer is not None:
                    observer.on_step(1.0)
            """
        assert lint(source, codes=["RPL004"]) == []

    def test_else_branch_of_is_none_passes(self):
        source = """
            def step(observer):
                if observer is None:
                    pass
                else:
                    observer.on_step(1.0)
            """
        assert lint(source, codes=["RPL004"]) == []

    def test_locally_constructed_observer_passes(self):
        source = """
            def run():
                observer = Observer()
                observer.on_step(1.0)
            """
        assert lint(source, codes=["RPL004"]) == []

    def test_unguarded_emit_and_count_flagged(self):
        findings = lint(
            """
            def step(observer, t):
                observer.emit(t, "fixed_dt_fallback", steps=3)
                observer.count("engine.fixed_steps", 3)
            """,
            codes=["RPL004"],
        )
        assert codes_of(findings) == ["RPL004", "RPL004"]

    def test_obs_package_is_exempt(self):
        source = "def f(observer):\n    observer.on_step(1.0)\n"
        assert lint(source, path="src/repro/obs/fixture.py", codes=["RPL004"]) == []


# ----------------------------------------------------------------------
# RPL005 — unknown event kinds
# ----------------------------------------------------------------------


class TestUnknownEventKind:
    def test_unknown_kind_flagged(self):
        findings = lint(
            """
            def record(stream):
                stream.emit(0.0, "definitely_not_a_kind", chunk="large")
            """,
            codes=["RPL005"],
        )
        assert codes_of(findings) == ["RPL005"]
        assert "EVENT_SCHEMA" in findings[0].message

    def test_unknown_kind_keyword_form_flagged(self):
        findings = lint(
            'def f(s):\n    s.emit(0.0, kind="bogus_kind")\n', codes=["RPL005"]
        )
        assert codes_of(findings) == ["RPL005"]

    def test_known_kind_passes(self):
        source = """
            def record(stream, t):
                stream.emit(t, "job_admitted", job="j0", queue_wait_s=0.0)
            """
        assert lint(source, codes=["RPL005"]) == []

    def test_unknown_kind_on_observer_flagged(self):
        findings = lint(
            """
            def record(observer, t):
                if observer is not None:
                    observer.emit(t, "job_teleported", job="j0")
            """,
            codes=["RPL005"],
        )
        assert codes_of(findings) == ["RPL005"]
        assert "job_teleported" in findings[0].message

    def test_missing_required_key_flagged(self):
        findings = lint(
            """
            def record(observer, t):
                if observer is not None:
                    observer.emit(t, "job_deferred", job="j0", until=60.0)
            """,
            codes=["RPL005"],
        )
        assert codes_of(findings) == ["RPL005"]
        assert "reason" in findings[0].message

    def test_splatted_detail_is_not_key_checked(self):
        source = """
            def record(observer, t, detail):
                if observer is not None:
                    observer.emit(t, "job_deferred", **detail)
            """
        assert lint(source, codes=["RPL005"]) == []

    def test_dynamic_kind_is_ignored(self):
        assert lint("def f(s, k):\n    s.emit(0.0, k)\n", codes=["RPL005"]) == []


# ----------------------------------------------------------------------
# RPL006 — mutable defaults
# ----------------------------------------------------------------------


class TestMutableDefaults:
    def test_literal_list_default_flagged(self):
        findings = lint("def f(xs=[]):\n    return xs\n", codes=["RPL006"])
        assert codes_of(findings) == ["RPL006"]
        assert "f()" in findings[0].message

    def test_constructor_and_kwonly_defaults_flagged(self):
        findings = lint(
            """
            def f(cache=dict(), *, seen=set()):
                return cache, seen
            """,
            codes=["RPL006"],
        )
        assert codes_of(findings) == ["RPL006", "RPL006"]

    def test_lambda_default_flagged(self):
        findings = lint("g = lambda acc={}: acc\n", codes=["RPL006"])
        assert codes_of(findings) == ["RPL006"]
        assert "<lambda>" in findings[0].message

    def test_none_and_immutable_defaults_pass(self):
        source = "def f(xs=None, pair=(1, 2), name=\"x\"):\n    return xs\n"
        assert lint(source, codes=["RPL006"]) == []


# ----------------------------------------------------------------------
# RPL007 — __all__ hygiene
# ----------------------------------------------------------------------


class TestDunderAllHygiene:
    def test_phantom_export_flagged(self):
        findings = lint(
            """
            __all__ = ["exists", "phantom"]

            def exists():
                return 1
            """,
            codes=["RPL007"],
        )
        assert codes_of(findings) == ["RPL007"]
        assert "'phantom'" in findings[0].message

    def test_undeclared_reexport_flagged(self):
        findings = lint(
            """
            __all__ = ["keep"]

            from .chunks import keep, stray
            """,
            path="src/repro/core/__init__.py",
            codes=["RPL007"],
        )
        assert codes_of(findings) == ["RPL007"]
        assert "'stray'" in findings[0].message

    def test_consistent_module_passes(self):
        source = """
            __all__ = ["f", "CONST"]

            CONST = 3

            def f():
                return CONST
            """
        assert lint(source, codes=["RPL007"]) == []

    def test_conditional_and_tuple_bindings_count(self):
        source = """
            __all__ = ["a", "b", "maybe"]

            a, b = 1, 2
            try:
                import numpy as maybe
            except ImportError:
                maybe = None
            """
        assert lint(source, codes=["RPL007"]) == []


# ----------------------------------------------------------------------
# RPL008 — undocumented unit parameters
# ----------------------------------------------------------------------


class TestUndocumentedUnits:
    def test_missing_docstring_flagged(self):
        findings = lint(
            "def wait(deadline_s):\n    return deadline_s\n", codes=["RPL008"]
        )
        assert codes_of(findings) == ["RPL008"]
        assert "no docstring" in findings[0].message

    def test_docstring_without_unit_mention_flagged(self):
        findings = lint(
            '''
            def wait(deadline_s):
                """Block until the deadline."""
                return deadline_s
            ''',
            codes=["RPL008"],
        )
        assert codes_of(findings) == ["RPL008"]
        assert "'deadline_s'" in findings[0].message

    def test_documented_unit_passes(self):
        source = '''
            def wait(deadline_s, budget_j):
                """Block until ``deadline_s`` (seconds), spending at most
                ``budget_j`` joules."""
                return deadline_s, budget_j
            '''
        assert lint(source, codes=["RPL008"]) == []

    def test_private_functions_and_other_packages_exempt(self):
        source = "def _wait(deadline_s):\n    return deadline_s\n"
        assert lint(source, codes=["RPL008"]) == []
        public = "def wait(deadline_s):\n    return deadline_s\n"
        assert lint(public, path=HARNESS, codes=["RPL008"]) == []


# ----------------------------------------------------------------------
# suppression
# ----------------------------------------------------------------------


class TestNoqaSuppression:
    FIXTURE = """
        import time

        def boundary(x):
            if time.time() == 0.0:{comment}
                return x
    """

    def test_both_rules_fire_without_noqa(self):
        findings = lint(self.FIXTURE.format(comment=""), path=NETSIM)
        assert sorted(codes_of(findings)) == ["RPL002", "RPL003"]

    def test_noqa_suppresses_exactly_one_code(self):
        findings = lint(
            self.FIXTURE.format(comment="  # repro: noqa[RPL003]"), path=NETSIM
        )
        assert codes_of(findings) == ["RPL002"]

    def test_noqa_on_other_line_does_not_leak(self):
        source = """
            x = 1.0 == y  # repro: noqa[RPL003]
            z = 2.0 == y
            """
        findings = lint(source, codes=["RPL003"])
        assert len(findings) == 1
        assert findings[0].line == 3  # only the un-suppressed line


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------


class TestBaseline:
    def _findings(self, n: int):
        source = "\n".join(f"v{i} = x{i} == {float(i)}" for i in range(n)) + "\n"
        return lint(source, codes=["RPL003"])

    def test_counts_bucket_by_path_and_code(self):
        counts = baseline_counts(self._findings(3))
        assert counts == {f"{CORE}::RPL003": 3}

    def test_at_allowance_suppresses(self):
        result = apply_baseline(self._findings(2), {f"{CORE}::RPL003": 2})
        assert result.ok
        assert result.suppressed == 2
        assert result.stale == {}

    def test_over_allowance_fails_whole_bucket(self):
        result = apply_baseline(self._findings(3), {f"{CORE}::RPL003": 2})
        assert not result.ok
        assert len(result.new) == 3  # whole bucket reported, not the diff

    def test_under_allowance_is_stale(self):
        result = apply_baseline(self._findings(1), {f"{CORE}::RPL003": 4})
        assert result.ok
        assert result.stale == {f"{CORE}::RPL003": 3}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        entries = save_baseline(path, self._findings(2))
        assert load_baseline(path) == entries == {f"{CORE}::RPL003": 2}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"version": BASELINE_VERSION + 1, "entries": {}})
        )
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


BAD_MODULE = "import random\n\nflag = probe == 0.5\n"


@pytest.fixture()
def bad_tree(tmp_path):
    """A throwaway src/repro/netsim tree with one dirty module."""
    pkg = tmp_path / "src" / "repro" / "netsim"
    pkg.mkdir(parents=True)
    module = pkg / "dirty.py"
    module.write_text(BAD_MODULE, encoding="utf-8")
    return tmp_path


class TestCli:
    def test_findings_exit_1(self, bad_tree, capsys):
        rc = lint_main([str(bad_tree / "src"), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPL002" in out and "RPL003" in out

    def test_select_narrows_rules(self, bad_tree, capsys):
        rc = lint_main(
            [str(bad_tree / "src"), "--no-baseline", "--select", "RPL003"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPL003" in out and "RPL002" not in out

    def test_unknown_select_exit_2(self, capsys):
        assert lint_main(["--select", "NOPE", "."]) == 2

    def test_json_report(self, bad_tree, tmp_path, capsys):
        report = tmp_path / "lint.json"
        rc = lint_main(
            [str(bad_tree / "src"), "--no-baseline", "--json", str(report)]
        )
        capsys.readouterr()
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["ok"] is False
        assert payload["counts_by_code"]["RPL002"] == 1
        assert payload["counts_by_code"]["RPL003"] == 1
        assert all(
            {"path", "line", "col", "code", "message"} <= set(f)
            for f in payload["findings"]
        )

    def test_fix_baseline_then_clean(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(bad_tree / "src"), "--baseline", str(baseline),
                 "--fix-baseline"]
            )
            == 0
        )
        rc = lint_main([str(bad_tree / "src"), "--baseline", str(baseline)])
        capsys.readouterr()
        assert rc == 0  # previous debt tolerated by the ratchet

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_REGISTRY:
            assert code in out

    def test_repro_cli_has_lint_subcommand(self, bad_tree, capsys):
        from repro.cli import main as repro_main

        rc = repro_main(
            ["lint", str(bad_tree / "src"), "--no-baseline", "--select",
             "RPL002"]
        )
        capsys.readouterr()
        assert rc == 1


# ----------------------------------------------------------------------
# repo self-check
# ----------------------------------------------------------------------


class TestRepoIsClean:
    def test_src_tree_clean_modulo_baseline(self):
        """``repro lint src/`` passes against the committed baseline."""
        findings = lint_paths([REPO_ROOT / "src"], relative_to=REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        result = apply_baseline(findings, baseline)
        assert result.ok, "\n".join(f.render() for f in result.new)

    def test_baseline_has_no_core_or_netsim_debt(self):
        """The energy-critical packages carry zero tolerated findings."""
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        dirty = [
            key
            for key in baseline
            if key.startswith(("src/repro/core", "src/repro/netsim"))
        ]
        assert dirty == []
