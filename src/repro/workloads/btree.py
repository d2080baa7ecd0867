"""A from-scratch B+-tree — the data structure behind the KV store.

Stands in for MassTree (Section 4.7): what the paper's sensitivity study
exercises is a balanced search tree whose lookups are *dependent* node
fetches (one per level) over a footprint much larger than the LLC.  The
tree here is fully functional — sorted iteration, upserts, splits — and
additionally tracks per-level node counts so the workload layer can
charge the memory system a realistic footprint for each level it
traverses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional

from repro.errors import WorkloadError


class _Node:
    __slots__ = ("keys", "values", "children")

    def __init__(self, leaf: bool):
        self.keys: list = []
        self.values: Optional[list] = [] if leaf else None
        self.children: Optional[list["_Node"]] = None if leaf else []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class BPlusTree:
    """An order-``order`` B+-tree mapping sortable keys to values."""

    def __init__(self, order: int = 16):
        if order < 3:
            raise WorkloadError(f"order must be at least 3: {order}")
        self.order = order
        self._root = _Node(leaf=True)
        self.size = 0
        #: Nodes per level, index 0 = root level, last = leaves.
        self.level_counts: list[int] = [1]

    @property
    def depth(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return len(self.level_counts)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key, default: Any = None) -> Any:
        """Value stored under *key*, or *default*."""
        node = self._root
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            node = node.children[index]
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Insert (upsert)
    # ------------------------------------------------------------------
    def insert(self, key, value) -> None:
        """Insert or replace *key*."""
        split = self._insert(self._root, 0, key, value)
        if split is not None:
            separator, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self.level_counts.insert(0, 1)

    def _insert(self, node: _Node, depth: int, key, value):
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self.size += 1
            if len(node.keys) <= self.order:
                return None
            return self._split_leaf(node, depth)
        index = bisect_right(node.keys, key)
        split = self._insert(node.children[index], depth + 1, key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self.order:
            return None
        return self._split_inner(node, depth)

    def _split_leaf(self, node: _Node, depth: int):
        middle = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        self.level_counts[depth] += 1
        return right.keys[0], right

    def _split_inner(self, node: _Node, depth: int):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Node(leaf=False)
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        self.level_counts[depth] += 1
        return separator, right

    # ------------------------------------------------------------------
    # Iteration / introspection
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple]:
        """All (key, value) pairs in key order."""
        # Leaves are not chained (splits keep it simple); walk the tree.
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _Node) -> Iterator[tuple]:
        if node.is_leaf:
            yield from zip(node.keys, node.values)
            return
        for child in node.children:
            yield from self._iter_node(child)

    def level_footprints(self, node_bytes: int) -> list[int]:
        """Approximate bytes of each level (root first) for cache models."""
        if node_bytes <= 0:
            raise WorkloadError(f"node size must be positive: {node_bytes}")
        return [count * node_bytes for count in self.level_counts]

    def check_invariants(self) -> None:
        """Structural validation (test hook): sorted keys, balanced depth,
        bounded fan-out, level counts consistent."""
        counted = [0] * self.depth
        leaf_depths: set[int] = set()

        def walk(node: _Node, depth: int, low, high) -> None:
            counted[depth] += 1
            if list(node.keys) != sorted(node.keys):
                raise WorkloadError("unsorted node keys")
            for key in node.keys:
                if (low is not None and key < low) or (
                    high is not None and key >= high
                ):
                    raise WorkloadError("key outside separator bounds")
            if len(node.keys) > self.order:
                raise WorkloadError("node overflow")
            if node.is_leaf:
                leaf_depths.add(depth)
                return
            if len(node.children) != len(node.keys) + 1:
                raise WorkloadError("inner fan-out mismatch")
            bounds = [low, *node.keys, high]
            for index, child in enumerate(node.children):
                walk(child, depth + 1, bounds[index], bounds[index + 1])

        walk(self._root, 0, None, None)
        if len(leaf_depths) != 1:
            raise WorkloadError(f"unbalanced leaves at depths {leaf_depths}")
        if counted != self.level_counts:
            raise WorkloadError(
                f"level counts drifted: tracked {self.level_counts}, "
                f"actual {counted}"
            )
