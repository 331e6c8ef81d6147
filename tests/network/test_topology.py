"""Tests for the logical topologies (repro.network.topology)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.network.topology import (
    BinaryTree,
    BipartiteRelayGraph,
    Grid,
    TreeForest,
    smallest_square_above,
)


class TestSmallestSquareAbove:
    @pytest.mark.parametrize(
        "x,expected",
        [(0, 1), (1, 4), (3, 4), (4, 9), (6, 9), (8, 9), (9, 16), (12, 16), (18, 25), (24, 25)],
    )
    def test_values(self, x, expected):
        assert smallest_square_above(x) == expected

    def test_alpha_for_small_t(self):
        # α in Algorithm 5: smallest square > 6t.
        assert smallest_square_above(6 * 1) == 9
        assert smallest_square_above(6 * 2) == 16
        assert smallest_square_above(6 * 3) == 25


class TestBipartiteRelayGraph:
    def test_sides_partition_the_non_transmitters(self):
        graph = BipartiteRelayGraph(3)
        assert list(graph.side_a) == [1, 2, 3]
        assert list(graph.side_b) == [4, 5, 6]
        assert graph.n == 7

    def test_side_of(self):
        graph = BipartiteRelayGraph(2)
        assert graph.side_of(1) == "A"
        assert graph.side_of(3) == "B"
        with pytest.raises(ValueError):
            graph.side_of(0)

    def test_opposite_side(self):
        graph = BipartiteRelayGraph(2)
        assert list(graph.opposite_side(1)) == [3, 4]
        assert list(graph.opposite_side(4)) == [1, 2]

    def test_edges(self):
        graph = BipartiteRelayGraph(2)
        assert graph.has_edge(0, 1) and graph.has_edge(0, 4)  # q to everyone
        assert graph.has_edge(1, 3) and graph.has_edge(4, 2)  # across sides
        assert not graph.has_edge(1, 2)  # within A
        assert not graph.has_edge(3, 4)  # within B
        assert not graph.has_edge(1, 1)

    def test_simple_path_validation(self):
        graph = BipartiteRelayGraph(2)
        assert graph.is_simple_path_from_transmitter((0, 1))
        assert graph.is_simple_path_from_transmitter((0, 1, 3, 2))
        assert not graph.is_simple_path_from_transmitter((1, 3))  # no transmitter
        assert not graph.is_simple_path_from_transmitter((0, 1, 2))  # A-A edge
        assert not graph.is_simple_path_from_transmitter((0, 1, 3, 1))  # repeat
        assert not graph.is_simple_path_from_transmitter(())

    def test_needs_positive_t(self):
        with pytest.raises(ConfigurationError):
            BipartiteRelayGraph(0)


class TestGrid:
    def test_requires_square_count(self):
        with pytest.raises(ConfigurationError, match="square"):
            Grid((0, 1, 2))

    def test_requires_distinct_members(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            Grid((0, 0, 1, 2))

    def test_rows_and_columns(self):
        grid = Grid(tuple(range(9)))
        assert grid.m == 3
        assert grid.row_of(4) == [3, 4, 5]
        assert grid.column_of(4) == [1, 4, 7]
        assert grid.at(2, 0) == 6
        assert grid.position(7) == (2, 1)

    def test_arbitrary_member_ids(self):
        grid = Grid((10, 20, 30, 40))
        assert grid.row_of(30) == [30, 40]
        assert grid.column_of(30) == [10, 30]
        assert 20 in grid and 99 not in grid


class TestBinaryTree:
    def test_full_tree_structure(self):
        tree = BinaryTree(tuple(range(100, 107)))  # size 7, 3 levels
        assert tree.levels == 3
        assert tree.root() == 100
        assert tree.children(1) == [2, 3]
        assert tree.children(4) == []

    def test_bfs_subtree_members(self):
        tree = BinaryTree(tuple(range(7)))
        assert tree.subtree_members(1) == [0, 1, 2, 3, 4, 5, 6]
        assert tree.subtree_members(2) == [1, 3, 4]
        assert tree.subtree_members(3) == [2, 5, 6]

    def test_roots_at_depth(self):
        tree = BinaryTree(tuple(range(7)))
        assert tree.roots_at_depth(3) == [1]
        assert tree.roots_at_depth(2) == [2, 3]
        assert tree.roots_at_depth(1) == [4, 5, 6, 7]

    def test_truncated_tree(self):
        tree = BinaryTree(tuple(range(5)))  # heap indices 1..5
        assert tree.levels == 3
        assert tree.children(2) == [4, 5]
        assert tree.children(3) == []
        assert tree.subtree_members(2) == [1, 3, 4]
        assert tree.roots_at_depth(1) == [4, 5]

    def test_index_round_trip(self):
        tree = BinaryTree((7, 8, 9))
        assert tree.index_of(8) == 2
        assert tree.processor_at(2) == 8

    def test_full_size_formula(self):
        assert [BinaryTree.full_size(x) for x in (1, 2, 3, 4)] == [1, 3, 7, 15]

    def test_empty_tree_rejected(self):
        with pytest.raises(ConfigurationError):
            BinaryTree(())


class TestTreeForest:
    def test_partition_with_remainder(self):
        forest = TreeForest(tuple(range(10, 20)), s=3)
        sizes = [tree.size for tree in forest.trees]
        assert sizes == [3, 3, 3, 1]
        assert list(forest.all_passive()) == list(range(10, 20))

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            TreeForest((1, 2), s=0)
