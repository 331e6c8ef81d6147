"""Tests for the formal model of Section 2 (repro.core.history)."""

import pytest

from repro.core.history import (
    History,
    LabeledEdge,
    PhaseGraph,
    edge_payloads,
)
from repro.core.message import Envelope
from repro.core.types import INPUT_SOURCE


def make_history() -> History:
    history = History.with_input(transmitter=0, value=1)
    history.append_phase(
        [
            Envelope(src=0, dst=1, phase=1, payload="a"),
            Envelope(src=0, dst=2, phase=1, payload="b"),
        ]
    )
    history.append_phase(
        [
            Envelope(src=1, dst=2, phase=2, payload="c"),
            Envelope(src=2, dst=1, phase=2, payload="d"),
        ]
    )
    return history


class TestPhaseGraph:
    def test_duplicate_edge_rejected(self):
        graph = PhaseGraph([LabeledEdge(0, 1, "x")])
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(LabeledEdge(0, 1, "y"))

    def test_edges_to_sorted_by_source(self):
        graph = PhaseGraph(
            [LabeledEdge(2, 0, "x"), LabeledEdge(1, 0, "y"), LabeledEdge(1, 2, "z")]
        )
        assert [e.src for e in graph.edges_to(0)] == [1, 2]

    def test_equality_compares_labels_canonically(self):
        a = PhaseGraph([LabeledEdge(0, 1, (1, 2))])
        b = PhaseGraph([LabeledEdge(0, 1, (1, 2))])
        c = PhaseGraph([LabeledEdge(0, 1, (1, 3))])
        assert a == b
        assert a != c

    def test_equality_requires_same_edge_set(self):
        a = PhaseGraph([LabeledEdge(0, 1, "x")])
        b = PhaseGraph([LabeledEdge(0, 2, "x")])
        assert a != b

    def test_labels_equal_in_python_but_not_in_digest_differ(self):
        one = PhaseGraph([LabeledEdge(0, 1, (1, "x"))])
        assert one == PhaseGraph([LabeledEdge(0, 1, (1, "x"))])
        assert one != PhaseGraph([LabeledEdge(0, 1, (True, "x"))])
        assert one != PhaseGraph([LabeledEdge(0, 1, (1.0, "x"))])


class TestHistory:
    def test_initial_phase_holds_transmitter_value(self):
        history = History.with_input(0, "v")
        assert history.transmitter_value() == "v"
        (edge,) = list(history.phases[0].edges())
        assert edge.src == INPUT_SOURCE and edge.dst == 0

    def test_num_phases_excludes_initial(self):
        assert make_history().num_phases == 2

    def test_subhistory_is_prefix(self):
        history = make_history()
        sub = history.subhistory(1)
        assert sub.num_phases == 1
        assert sub.phases[1] == history.phases[1]

    def test_subhistory_out_of_range(self):
        with pytest.raises(IndexError):
            make_history().subhistory(9)

    def test_edges_sent_by(self):
        history = make_history()
        sent = history.edges_sent_by(0)
        assert [(k, e.dst) for k, e in sent] == [(1, 1), (1, 2)]

    def test_composite_label_for_multiple_sends(self):
        history = History.with_input(0, 1)
        history.append_phase(
            [
                Envelope(src=0, dst=1, phase=1, payload="x"),
                Envelope(src=0, dst=1, phase=1, payload="y"),
            ]
        )
        (edge,) = list(history.phases[1].edges())
        assert edge_payloads(edge.label) == ("x", "y")

    def test_edge_payloads_of_plain_label(self):
        assert edge_payloads("solo") == ("solo",)


class TestIndividualSubhistory:
    def test_contains_only_inedges(self):
        history = make_history()
        view = history.individual(1)
        assert view.received_in_phase(1) == ((0, "a"),)
        assert view.received_in_phase(2) == ((2, "d"),)

    def test_equality_is_view_equality(self):
        assert make_history().individual(1) == make_history().individual(1)
        assert make_history().individual(1) != make_history().individual(2)

    def test_inputs_equal_in_python_but_not_in_digest_differ(self):
        view = History.with_input(0, 1).individual(0)
        assert view == History.with_input(0, 1).individual(0)
        assert hash(view) == hash(History.with_input(0, 1).individual(0))
        assert view != History.with_input(0, True).individual(0)
        assert view != History.with_input(0, 1.0).individual(0)

    def test_input_edge_visible_to_transmitter_only(self):
        history = make_history()
        assert history.individual(0).received_in_phase(0) == ((INPUT_SOURCE, 1),)
        assert history.individual(1).received_in_phase(0) == ()

    def test_total_received(self):
        history = make_history()
        assert history.individual(2).total_received() == 2  # "b" and "c"
        assert history.individual(0).total_received() == 1  # the input edge

    def test_prefix_projection_commutes(self):
        history = make_history()
        assert history.individual_subhistory(1, 1) == history.subhistory(1).individual(1)
