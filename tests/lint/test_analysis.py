"""Whole-program analysis layer: call graph, symbolic fan-out, and the
golden BA006-BA009 fixtures."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.lint.engine as engine_module
from repro.bounds.expressions import SAMPLE_GRID
from repro.lint.analysis.ba006_messages import message_sites
from repro.lint.analysis.ba007_signatures import signature_sites
from repro.lint.analysis.callgraph import build_graph, protocol_graph
from repro.lint.analysis.symbolic import (
    accumulate_fanout,
    exceeds_everywhere,
    iterable_size,
    local_sizes,
    scalar_expr,
    site_multiplicity,
)
from repro.lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def build_project(sources: dict[str, str]) -> engine_module.ProjectIndex:
    """A ProjectIndex over in-memory sources, as the engine would build it."""
    files = []
    for display, source in sources.items():
        tree = ast.parse(source, filename=display)
        files.append(
            engine_module.SourceFile(
                path=Path(display),
                display=display,
                source=source,
                tree=tree,
                suppressions=engine_module._scan_suppressions(source),
                parents=engine_module._build_parents(tree),
            )
        )
    project = engine_module._build_index(files)
    project.files = files
    return project


def findings_for(relative: str, rule_id: str):
    report = lint_paths([FIXTURES / relative])
    return [f for f in report.findings if f.rule == rule_id]


def parse_expr(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


def names(records) -> set[str]:
    return {record.name for record in records}


def lineage(project: engine_module.ProjectIndex, name: str) -> list[str]:
    """The lineage names of the class *name* (its last definition)."""
    return [base for base, _ in project.lineage(project.classes[name])]


# ---------------------------------------------------------------------------
# class hierarchy


class TestLineage:
    SOURCE = {
        "proto/mod.py": (
            "class Top(External):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Left(Top):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Right(Top):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Bottom(Left, Right):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Ping(Pong):\n"
            "    pass\n"
            "\n"
            "\n"
            "class Pong(Ping):\n"
            "    pass\n"
        ),
    }

    def test_a_diamond_yields_each_base_once_breadth_first(self):
        project = build_project(self.SOURCE)
        assert lineage(project, "Bottom") == [
            "Bottom", "Left", "Right", "Top", "External",
        ]

    def test_a_cycle_ends(self):
        project = build_project(self.SOURCE)
        assert lineage(project, "Ping") == ["Ping", "Pong"]
        assert names(project.subclasses("Ping")) == {"Pong"}

    def test_a_base_outside_the_index_is_yielded_but_not_followed(self):
        project = build_project(self.SOURCE)
        assert "External" not in project.classes
        top = project.classes["Top"]
        assert list(project.lineage(top)) == [("Top", top), ("External", None)]

    def test_subclasses_exclude_the_root(self):
        project = build_project(self.SOURCE)
        assert names(project.subclasses("Top")) == {"Left", "Right", "Bottom"}
        assert names(project.subclasses("External")) == {"Top", "Left", "Right", "Bottom"}
        assert project.subclasses("Bottom") == []


# ---------------------------------------------------------------------------
# call graph


class TestCallGraph:
    SOURCE = {
        "proto/mod.py": (
            "class Processor:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return []\n"
            "\n"
            "\n"
            "class Base(Processor):\n"
            "    def helper(self):\n"
            "        return checker(self)\n"
            "\n"
            "\n"
            "class Child(Base):\n"
            "    def on_phase(self, phase, inbox):\n"
            "        self.helper()\n"
            "        Base.helper(self)\n"
            "        return []\n"
            "\n"
            "\n"
            "def checker(processor):\n"
            "    return processor.chain.verify()\n"
            "\n"
            "\n"
            "def builder():\n"
            "    return Child()\n"
            "\n"
            "\n"
            "def Child():\n"
            "    return None\n"
        ),
    }

    def test_methods_resolve_through_base_chain(self):
        project = build_project(self.SOURCE)
        graph = build_graph(project)
        child = project.classes["Child"]
        assert graph.resolve_method(child, "helper") == "proto/mod.py::Base.helper"
        assert graph.resolve_method(child, "on_phase") == (
            "proto/mod.py::Child.on_phase"
        )
        assert graph.resolve_method(child, "missing") is None

    def test_resolved_methods_prefer_nearest_definition(self):
        project = build_project(self.SOURCE)
        methods = build_graph(project).resolved_methods(project.classes["Child"])
        assert methods["on_phase"] == "proto/mod.py::Child.on_phase"
        assert methods["helper"] == "proto/mod.py::Base.helper"

    def test_self_and_delegated_calls_become_edges(self):
        graph = build_graph(build_project(self.SOURCE))
        summary = graph.calls["proto/mod.py::Child.on_phase"]
        assert "proto/mod.py::Base.helper" in summary.resolved

    def test_bare_calls_resolve_to_module_functions(self):
        graph = build_graph(build_project(self.SOURCE))
        summary = graph.calls["proto/mod.py::Base.helper"]
        assert "proto/mod.py::checker" in summary.resolved

    def test_reachable_from_follows_the_closure(self):
        graph = build_graph(build_project(self.SOURCE))
        reached = graph.reachable_from({"proto/mod.py::Child.on_phase"})
        assert "proto/mod.py::Base.helper" in reached
        assert "proto/mod.py::checker" in reached

    def test_processor_fixpoint_excludes_the_root(self):
        graph = build_graph(build_project(self.SOURCE))
        assert names(graph.processor_classes) == {"Base", "Child"}

    def test_an_instantiation_resolves_to_no_function(self):
        # ``Child()`` constructs the class, not the same-named function.
        graph = build_graph(build_project(self.SOURCE))
        assert graph.calls["proto/mod.py::builder"].resolved == set()

    def test_verify_markers_propagate_to_callers(self):
        graph = build_graph(build_project(self.SOURCE))
        marked = graph.functions_calling(frozenset({"verify"}))
        assert "proto/mod.py::checker" in marked
        assert "proto/mod.py::Base.helper" in marked
        assert "proto/mod.py::Child.on_phase" in marked

    def test_same_named_classes_keep_their_own_methods(self):
        # Each file's P is its own class: a.py's algorithm builds a.py's P,
        # whose on_phase sends, and b.py's quiet P does not replace it.
        quiet = "class P(Processor):\n    def on_phase(self, phase, inbox):\n        return []\n"
        loud = (
            "class P(Processor):\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return self.send()\n"
            "\n"
            "    def send(self):\n"
            "        return []\n"
            "\n"
            "\n"
            "class Loud(AgreementAlgorithm):\n"
            "    def make_processor(self, pid):\n"
            "        return P(pid)\n"
        )
        project = build_project({"proto/a.py": loud, "proto/b.py": quiet})
        graph = build_graph(project)
        (loud_p, quiet_p) = graph.processor_classes
        assert (loud_p.display, quiet_p.display) == ("proto/a.py", "proto/b.py")
        (algorithm,) = project.algorithm_classes
        assert graph.instantiated_processors(algorithm) == {loud_p}
        assert graph.resolve_method(loud_p, "on_phase") == "proto/a.py::P.on_phase"
        assert graph.resolve_method(quiet_p, "on_phase") == "proto/b.py::P.on_phase"
        assert graph.calls["proto/a.py::P.on_phase"].resolved == {"proto/a.py::P.send"}
        assert graph.resolve_method(quiet_p, "send") is None

    def test_protocol_graph_is_memoized_per_project(self):
        project = build_project(self.SOURCE)
        assert protocol_graph(project) is protocol_graph(project)


# ---------------------------------------------------------------------------
# symbolic fan-out


class TestScalarExpr:
    def test_constants_and_parameters(self):
        assert scalar_expr(parse_expr("3")) == "3"
        assert scalar_expr(parse_expr("t")) == "t"
        assert scalar_expr(parse_expr("self.t")) == "t"
        assert scalar_expr(parse_expr("ctx.t")) == "t"
        assert scalar_expr(parse_expr("self.ctx.t")) == "t"

    def test_arithmetic_composes(self):
        expr = scalar_expr(parse_expr("self.t + 1"))
        assert expr == "(t) + (1)"

    def test_unknown_names_are_rejected(self):
        assert scalar_expr(parse_expr("self.relays")) is None
        assert scalar_expr(parse_expr("x + 1")) is None


class TestIterableSize:
    def test_others_is_n_minus_one(self):
        assert iterable_size(parse_expr("self.ctx.others()"), {}) == "n - 1"

    def test_range_forms(self):
        assert iterable_size(parse_expr("range(self.t + 1)"), {}) == "(t) + (1)"
        assert iterable_size(parse_expr("range(1, self.t)"), {}) == "(t) - (1)"
        assert iterable_size(parse_expr("range(self.relays)"), {}) is None

    def test_passthrough_calls_forward_their_argument(self):
        assert iterable_size(parse_expr("sorted(inbox)"), {"inbox": "n - 1"}) == (
            "n - 1"
        )

    def test_environment_lookup(self):
        assert iterable_size(parse_expr("peers"), {"peers": "n - 1"}) == "n - 1"
        assert iterable_size(parse_expr("peers"), {}) is None


class TestSiteMultiplicity:
    def _record(self, body: str):
        project = build_project({"proto/mod.py": body})
        graph = build_graph(project)
        return graph.functions["proto/mod.py::C.on_phase"]

    def _tuple_sites(self, record):
        return list(message_sites(record))

    def test_nested_sized_loops_multiply(self):
        record = self._record(
            "class C:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        out = []\n"
            "        for q in self.ctx.others():\n"
            "            for _ in range(self.t + 1):\n"
            "                out.append((q, 1))\n"
            "        return out\n"
        )
        env = local_sizes(record.node)
        (site,) = self._tuple_sites(record)
        assert site_multiplicity(record, site, env) == "((t) + (1)) * (n - 1)"

    def test_unsized_loop_is_unresolvable(self):
        record = self._record(
            "class C:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        out = []\n"
            "        for q in self.relays:\n"
            "            out.append((q, 1))\n"
            "        return out\n"
        )
        env = local_sizes(record.node)
        (site,) = self._tuple_sites(record)
        assert site_multiplicity(record, site, env) is None

    def test_while_loop_is_unresolvable(self):
        record = self._record(
            "class C:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        out = []\n"
            "        while True:\n"
            "            out.append((1, 1))\n"
            "        return out\n"
        )
        env = local_sizes(record.node)
        (site,) = self._tuple_sites(record)
        assert site_multiplicity(record, site, env) is None

    def test_inbox_parameter_is_seeded(self):
        record = self._record(
            "class C:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return [(e.sender, 1) for e in inbox]\n"
        )
        env = local_sizes(record.node)
        (site,) = self._tuple_sites(record)
        assert site_multiplicity(record, site, env) == "((n - 1))"

    def test_filtered_comprehension_is_unresolvable(self):
        record = self._record(
            "class C:\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return [(e.sender, 1) for e in inbox if e.sender]\n"
        )
        env = local_sizes(record.node)
        (site,) = self._tuple_sites(record)
        assert site_multiplicity(record, site, env) is None


class TestAccumulateFanout:
    def test_sites_sum_and_skips_are_counted(self):
        project = build_project(
            {
                "proto/mod.py": (
                    "class C:\n"
                    "    def on_phase(self, phase, inbox):\n"
                    "        out = [(q, 1) for q in self.ctx.others()]\n"
                    "        for q in self.relays:\n"
                    "            out.append((q, 2))\n"
                    "        return out\n"
                )
            }
        )
        graph = build_graph(project)
        estimate = accumulate_fanout(
            [graph.functions["proto/mod.py::C.on_phase"]], message_sites
        )
        assert estimate.sites == 1
        assert estimate.skipped == 1
        assert estimate.expr == "(((n - 1)))"

    def test_no_sites_yields_no_expression(self):
        project = build_project(
            {
                "proto/mod.py": (
                    "class C:\n"
                    "    def on_phase(self, phase, inbox):\n"
                    "        return []\n"
                )
            }
        )
        graph = build_graph(project)
        estimate = accumulate_fanout(
            [graph.functions["proto/mod.py::C.on_phase"]], signature_sites
        )
        assert estimate.expr is None
        assert estimate.sites == 0


class TestExceedsEverywhere:
    def test_strict_exceedance_returns_worst_point(self):
        result = exceeds_everywhere("2 * (n - 1)", "n - 1", SAMPLE_GRID)
        assert result is not None
        point, static_value, declared_value = result
        assert static_value > declared_value
        # the gap grows with n, so the worst point is the largest grid point.
        assert point["t"] == 4

    def test_equality_at_any_point_reconciles(self):
        # equal everywhere: never strictly exceeds.
        assert exceeds_everywhere("n - 1", "n - 1", SAMPLE_GRID) is None

    def test_partial_exceedance_reconciles(self):
        # t*t crosses 4*t between t=4 and below: not exceeding everywhere.
        assert exceeds_everywhere("t * t", "4 * t", SAMPLE_GRID) is None

    def test_evaluation_failure_reconciles(self):
        assert exceeds_everywhere("bogus(n)", "n - 1", SAMPLE_GRID) is None


# ---------------------------------------------------------------------------
# golden fixtures


class TestBA006Golden:
    def test_fires_on_the_bound_declaration(self):
        findings = findings_for("algorithms/ba006_bad.py", "BA006")
        assert [f.line for f in findings] == [24]
        (finding,) = findings
        assert "ChattyProcessor" in finding.message
        assert "message_bound = 'n - 1'" in finding.message
        assert "single on_phase call" in finding.message

    def test_clean_fixture_is_quiet(self):
        assert not findings_for("algorithms/clean.py", "BA006")

    def test_a_quiet_namesake_in_another_file_hides_nothing(self, tmp_path):
        directory = tmp_path / "algorithms"
        directory.mkdir()
        (directory / "a.py").write_text(
            "from repro.core.protocol import AgreementAlgorithm, Processor\n"
            "\n"
            "\n"
            "class P(Processor):\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return [(q, 1) for q in self.ctx.others()]\n"
            "\n"
            "\n"
            "class Loud(AgreementAlgorithm):\n"
            "    message_bound = \"1\"\n"
            "\n"
            "    def make_processor(self, pid):\n"
            "        return P(pid)\n"
        )
        (directory / "b.py").write_text(
            "from repro.core.protocol import Processor\n"
            "\n"
            "\n"
            "class P(Processor):\n"
            "    def on_phase(self, phase, inbox):\n"
            "        return []\n"
        )
        alone, together = (
            [f for f in lint_paths([path]).findings if f.rule == "BA006"]
            for path in (directory / "a.py", directory)
        )
        assert [(f.path, f.line) for f in alone] == [(str(directory / "a.py"), 10)]
        assert together == alone


class TestBA007Golden:
    def test_fires_on_the_signature_declaration(self):
        findings = findings_for("algorithms/ba007_bad.py", "BA007")
        assert [f.line for f in findings] == [29]
        (finding,) = findings
        assert "OverSigningProcessor" in finding.message
        assert "signature_bound = 't + 1'" in finding.message

    def test_clean_fixture_is_quiet(self):
        assert not findings_for("algorithms/clean.py", "BA007")


class TestBA008Golden:
    def test_fires_on_each_unverified_sink(self):
        findings = findings_for("algorithms/ba008_bad.py", "BA008")
        assert [f.line for f in findings] == [17, 18, 26]
        messages = " ".join(f.message for f in findings)
        assert "self.accepted" in messages
        assert "self._note()" in messages
        assert "self.latest" in messages
        assert "verify" in messages

    def test_clean_fixture_is_quiet(self):
        assert not findings_for("algorithms/clean.py", "BA008")

    def test_unauthenticated_algorithms_are_exempt(self, tmp_path):
        source = (
            '"""Unauthenticated: no chains to verify, taint rule is moot."""\n'
            "from repro.core.protocol import AgreementAlgorithm, Processor\n"
            "\n"
            "\n"
            "class TrustingProcessor(Processor):\n"
            "    def __init__(self, pid):\n"
            "        self.latest = None\n"
            "\n"
            "    def on_phase(self, phase, inbox):\n"
            "        for envelope in inbox:\n"
            "            self.latest = envelope.payload\n"
            "        return []\n"
            "\n"
            "    def decision(self):\n"
            "        return self.latest\n"
            "\n"
            "\n"
            "class TrustingAlgorithm(AgreementAlgorithm):\n"
            '    name = "trusting"\n'
            "    authenticated = False\n"
            '    phase_bound = "t + 1"\n'
            '    message_bound = "unstated"\n'
            "\n"
            "    def make_processor(self, pid):\n"
            "        return TrustingProcessor(pid)\n"
        )
        target = tmp_path / "algorithms" / "mod.py"
        target.parent.mkdir()
        target.write_text(source)
        report = lint_paths([target])
        assert not [f for f in report.findings if f.rule == "BA008"]


class TestBA009Golden:
    def test_fires_on_worker_reachable_mutations(self):
        findings = findings_for("analysis/parallel.py", "BA009")
        assert [f.line for f in findings] == [23, 25]
        first, second = findings
        assert "global _RESULTS_CACHE" in first.message
        assert "Settings.retries" in second.message

    def test_real_parallel_module_is_quiet(self):
        import repro

        parallel = Path(repro.__file__).parent / "analysis" / "parallel.py"
        report = lint_paths([parallel])
        assert not [f for f in report.findings if f.rule == "BA009"]
