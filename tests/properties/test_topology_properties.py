"""Property-based tests for the logical topologies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import (
    BinaryTree,
    BipartiteRelayGraph,
    Grid,
    TreeForest,
    smallest_square_above,
)


class TestSquareProperties:
    @given(st.integers(0, 10**6))
    def test_result_is_a_square_strictly_above(self, x):
        import math

        square = smallest_square_above(x)
        root = math.isqrt(square)
        assert root * root == square
        assert square > x
        # minimality: the next smaller square is not above x.
        assert (root - 1) ** 2 <= x


class TestBipartiteGraphProperties:
    @given(st.integers(1, 12))
    def test_sides_partition(self, t):
        graph = BipartiteRelayGraph(t)
        side_a, side_b = set(graph.side_a), set(graph.side_b)
        assert side_a & side_b == set()
        assert side_a | side_b == set(range(1, 2 * t + 1))
        assert len(side_a) == len(side_b) == t

    @given(st.integers(1, 10), st.data())
    def test_edges_are_symmetric(self, t, data):
        graph = BipartiteRelayGraph(t)
        u = data.draw(st.integers(0, 2 * t))
        v = data.draw(st.integers(0, 2 * t))
        assert graph.has_edge(u, v) == graph.has_edge(v, u)

    @given(st.integers(1, 8), st.data())
    def test_valid_paths_alternate_sides(self, t, data):
        graph = BipartiteRelayGraph(t)
        length = data.draw(st.integers(1, min(2 * t, 6)))
        nodes = data.draw(
            st.lists(
                st.integers(1, 2 * t), min_size=length, max_size=length, unique=True
            )
        )
        path = (0, *nodes)
        if graph.is_simple_path_from_transmitter(path):
            for u, v in zip(path[1:], path[2:]):
                assert graph.side_of(u) != graph.side_of(v)


class TestBinaryTreeProperties:
    @given(st.integers(1, 64))
    def test_subtrees_partition_at_each_depth(self, size):
        tree = BinaryTree(tuple(range(size)))
        for depth in range(1, tree.levels + 1):
            covered: list[int] = []
            for root_index in tree.roots_at_depth(depth):
                covered.extend(tree.subtree_indices(root_index))
            upper_levels = [
                i
                for i in range(1, size + 1)
                if tree.level_of_index(i) < tree.levels - depth + 1
            ]
            assert sorted(covered) == sorted(
                set(range(1, size + 1)) - set(upper_levels)
            )

    @given(st.integers(1, 64))
    def test_children_consistent_with_levels(self, size):
        tree = BinaryTree(tuple(range(size)))
        for index in range(1, size + 1):
            for child in tree.children(index):
                assert tree.level_of_index(child) == tree.level_of_index(index) + 1

    @given(st.integers(1, 64))
    def test_bfs_starts_at_root_and_is_complete(self, size):
        tree = BinaryTree(tuple(range(size)))
        order = tree.subtree_indices(1)
        assert order[0] == 1
        assert sorted(order) == list(range(1, size + 1))


class TestForestProperties:
    @given(st.integers(0, 60), st.integers(1, 15))
    def test_forest_partitions_passives(self, count, s):
        passives = tuple(range(100, 100 + count))
        forest = TreeForest(passives, s)
        seen = list(forest.all_passive())
        assert seen == list(passives)

    @given(st.integers(1, 60), st.integers(1, 15))
    def test_all_trees_but_last_are_full(self, count, s):
        forest = TreeForest(tuple(range(count)), s)
        for tree in forest.trees[:-1]:
            assert tree.size == s


class TestGridProperties:
    @given(st.integers(1, 8))
    def test_rows_and_columns_cover_and_intersect_once(self, m):
        grid = Grid(tuple(range(m * m)))
        for pid in grid.members:
            row, column = grid.row_of(pid), grid.column_of(pid)
            assert len(row) == len(column) == m
            assert set(row) & set(column) == {pid}

    @given(st.integers(1, 8), st.data())
    def test_position_round_trip(self, m, data):
        grid = Grid(tuple(range(m * m)))
        pid = data.draw(st.integers(0, m * m - 1))
        row, col = grid.position(pid)
        assert grid.at(row, col) == pid
