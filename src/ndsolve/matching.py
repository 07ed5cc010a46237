"""Maximum bipartite matching by one augmenting-path search per left node.

The solvers match tiny graphs: :func:`ndsolve.motif.skeleton_exists`, the
only caller, puts the types of one tuple (at most |M| of them) on the right
and at most |M| motif color occurrences on the left, since each color is
repeated at most min(count, number of types) times.  At that size the plain O(V * E)
augmenting-path method (Kuhn's algorithm) is as fast as Hopcroft-Karp's
layered phases and much shorter.  The search runs on an explicit stack, so
a long augmenting path never hits the recursion limit.
"""

from __future__ import annotations

from typing import Iterable


def max_bipartite_matching(
    num_left: int, num_right: int, edges: Iterable[tuple[int, int]]
) -> tuple[int, list[int]]:
    """Return ``(size, match_left)`` for a maximum matching.

    ``match_left[i]`` is the right node matched to left node ``i`` or -1.
    Left nodes are tried in id order, each with one depth-first search for
    an alternating path to a free right node, which is flipped on success;
    a left node that finds none stays free for good, since later
    augmentations never open a path from it.  ``seen[v]`` holds the root of
    the last search that reached right node ``v``, so one search costs O(E)
    and the whole run O(V * E).  Right nodes are explored in edge input
    order, so the result is deterministic.
    """
    adj: list[list[int]] = [[] for _ in range(num_left)]
    for u, v in edges:
        if not (0 <= u < num_left and 0 <= v < num_right):
            raise ValueError(f"edge ({u}, {v}) out of range")
        adj[u].append(v)

    match_left = [-1] * num_left
    match_right = [-1] * num_right
    seen = [-1] * num_right
    size = 0
    for root in range(num_left):
        stack = [[root, 0]]  # frames of (left node, next edge to try)
        while stack:
            frame = stack[-1]
            u, i = frame
            if i == len(adj[u]):
                stack.pop()
                continue
            frame[1] = i + 1
            v = adj[u][i]
            if seen[v] == root:
                continue
            seen[v] = root
            if match_right[v] == -1:
                # flip the alternating path root -> ... -> u -> v
                for w, _ in reversed(stack):
                    match_left[w], match_right[v], v = v, w, match_left[w]
                size += 1
                break
            stack.append([match_right[v], 0])
    return size, match_left
