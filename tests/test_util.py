"""The one breadth-first walk, checked against a queue-based reference."""

from collections import deque

from hypothesis import given, settings, strategies as st

from gampkit.util import shortest_path


def queue_shortest_path(start, goal, neighbours):
    """Reference: breadth-first search with an explicit queue."""
    if start == goal:
        return []
    prev = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, label in neighbours(u):
            if v in prev:
                continue
            prev[v] = (u, label)
            if v == goal:
                steps = []
                while prev[v] is not None:
                    u, label = prev[v]
                    steps.append((u, v, label))
                    v = u
                return steps[::-1]
            queue.append(v)
    return None


# random directed multigraphs on at most 7 nodes, with a start and a goal
graphs = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
    )
)


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_shortest_path_matches_a_queue_bfs(graph):
    edges, start, goal = graph

    # an edge's label is its index, so the path also names which of two
    # parallel edges it took
    def neighbours(u):
        return ((v, k) for k, (w, v) in enumerate(edges) if w == u)

    assert shortest_path(start, goal, neighbours) == queue_shortest_path(start, goal, neighbours)
