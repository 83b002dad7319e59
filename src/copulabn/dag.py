"""Directed acyclic graphs over variable indices.

A :class:`Dag` stores one ordered parent tuple per node.  Instances are
immutable, validate themselves when built, and cache their topological order
and ancestor bit sets; a pickle holds only the two fields, so it is the same
whichever caches were read, and unpickling validates again.  Structure search
keeps its own graph state, updated in place move by move, and builds one
``Dag`` from the graph it returns.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

__all__ = ["Dag"]


@dataclass(frozen=True)
class Dag:
    """Parent lists of a directed acyclic graph.

    Attributes
    ----------
    num_vars : int
        Number of nodes; indices run from 0 to ``num_vars - 1``.
    parents : tuple of tuples
        ``parents[i]`` are node i's parent indices, in the order the
        family's copula expects them.
    """

    num_vars: int
    parents: tuple

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValidationError(f"graph needs at least one node, got {self.num_vars}")
        parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        if len(parents) != self.num_vars:
            raise ValidationError(
                f"expected {self.num_vars} parent lists, got {len(parents)}"
            )
        for i, ps in enumerate(parents):
            if len(set(ps)) != len(ps):
                raise ValidationError(f"node {i} has duplicate parents {ps}")
            for p in ps:
                if p == i:
                    raise ValidationError(f"node {i} lists itself as a parent")
                if not 0 <= p < self.num_vars:
                    raise ValidationError(f"node {i} has out-of-range parent {p}")
        object.__setattr__(self, "parents", parents)
        self.topological_order  # acyclicity check happens here

    def __reduce__(self):
        return Dag, (self.num_vars, self.parents)

    @classmethod
    def empty(cls, num_vars):
        """Graph with no edges."""
        return cls(num_vars, tuple(() for _ in range(num_vars)))

    @classmethod
    def from_edges(cls, num_vars, edges):
        """Build from (parent, child) pairs; parent order follows edge order."""
        parents = [[] for _ in range(num_vars)]
        for parent, child in edges:
            if not 0 <= child < num_vars:
                raise ValidationError(f"edge ({parent}, {child}) has out-of-range child")
            parents[child].append(parent)
        return cls(num_vars, tuple(tuple(ps) for ps in parents))

    @classmethod
    def chain(cls, num_vars):
        """0 -> 1 -> ... -> num_vars-1."""
        return cls.from_edges(num_vars, [(i, i + 1) for i in range(num_vars - 1)])

    @cached_property
    def topological_order(self):
        """Node order with every parent before its children (Kahn's algorithm,
        smallest ready index first for determinism)."""
        waiting = [len(ps) for ps in self.parents]
        children = [[] for _ in range(self.num_vars)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        ready = [i for i, count in enumerate(waiting) if not count]
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for ch in children[node]:
                waiting[ch] -= 1
                if not waiting[ch]:
                    heapq.heappush(ready, ch)
        if len(order) != self.num_vars:
            raise ValidationError("graph contains a directed cycle")
        return tuple(order)

    @cached_property
    def ancestors(self):
        """Bit set of each node's strict ancestors: bit p of ``ancestors[v]``
        is set when p ~> v."""
        sets = [0] * self.num_vars
        for node in self.topological_order:
            for p in self.parents[node]:
                sets[node] |= sets[p] | 1 << p
        return tuple(sets)

    def families_by_size(self):
        """Every node's family as a row, child first and then its parents, grouped by
        parent count: ``{k: (F, k + 1) intp array}``, sizes ascending, rows in node order."""
        groups = {}
        for node, ps in enumerate(self.parents):
            groups.setdefault(len(ps), []).append((node, *ps))
        return {k: np.array(groups[k], dtype=np.intp) for k in sorted(groups)}

    def edges(self):
        """All (parent, child) pairs, sorted."""
        return sorted((p, c) for c, ps in enumerate(self.parents) for p in ps)

    def skeleton(self):
        """Undirected edge set as frozenset of sorted pairs."""
        return frozenset(tuple(sorted((p, c))) for p, c in self.edges())

    def num_edges(self):
        return sum(len(ps) for ps in self.parents)
