"""Label-by-label growth of random bucket trees.

The sampler keeps the attraction weights in denominator-cleared integer
form, so every step draws one uniform integer below the (deterministic)
total weight and resolves it to a node in O(1) amortized time (a linear
rule, whose total is not closed, scans its nodes at every step).  The
resulting tree has exactly the distribution induced by the family's
growth rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .families import FamilySpec
from .trees import BucketNode, BucketTree, NodeCensus, iter_nodes_with_path


@dataclass
class RngStream:
    """A seeded random stream that can spawn independent child streams."""

    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.spawn_key + (index,))

    def integers(self, high) -> int:
        return int(self.generator.integers(high))


def _as_rng(rng) -> RngStream:
    if isinstance(rng, RngStream):
        return rng
    return RngStream(int(rng))


def _draw_dtype(high: int):
    """The integer dtype to draw below `high` in: int32 when it fits.

    Below 2**31 numpy's bounded int32 and int64 draws take the same 32-bit
    words and give the same numbers; int32 is cheaper to fill and compare.
    """
    return np.int32 if high < 2**31 else np.int64


# ---------------------------------------------------------------------------
# exact attraction probabilities on a static tree


def attraction_probs(spec: FamilySpec, tree: BucketTree) -> list:
    """Exact attraction probability of every bucket: [(path, node, Fraction)].

    The probabilities always sum to one; a ValueError is raised otherwise
    (which can only happen for a linear rule with a negative weight).
    """
    entries = []
    if spec.kind == families.LINEAR:
        weights = [(path, node,
                    families.linear_node_weight(spec, len(node.labels), len(node.children)))
                   for path, node in iter_nodes_with_path(tree.root)]
        total = sum(w for _, _, w in weights)
        if total <= 0:
            raise ValueError("linear growth rule has nonpositive total weight")
        entries = [(path, node, w / total) for path, node, w in weights]
    else:
        gc = families.growth_coeffs(spec)
        total = gc.total(tree.size)
        for path, node in iter_nodes_with_path(tree.root):
            w = gc.node_weight(len(node.labels), len(node.children))
            entries.append((path, node, Fraction(w, total)))
    if sum(p for _, _, p in entries) != 1:
        raise ValueError("attraction probabilities do not sum to 1")
    return entries


# ---------------------------------------------------------------------------
# the growth sampler


_CHUNK = 1 << 13


def _check_linear_states(spec: FamilySpec) -> None:
    """Raise ValueError if a bucket can reach a negative weight under the rule.

    A bucket fills through capacities 1..b at degree 0, each state reached
    only if the one before it has a positive weight; a full bucket's weight
    then moves by beta per child, so with beta < 0 the first degree whose
    weight is not positive is the last state it can reach.
    """
    for cap in range(1, spec.b + 1):
        w = families.linear_node_weight(spec, cap, 0)
        if w == 0:
            return
    if spec.lin_beta < 0:
        families.linear_node_weight(spec, spec.b, math.ceil(w / -spec.lin_beta))


class _Grower:
    """Mutable growth state in flat per-node and per-label lists.

    Node v holds cap[v] labels and has deg[v] children; parent[v] is its
    parent (-1 at the root) and where[i] is the node holding label i + 1.
    Children are numbered in the order they are born, so the tree itself is
    only materialized by build().
    """

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.b = spec.b
        if spec.kind == families.LINEAR:
            _check_linear_states(spec)
            den = 1
            for f in (spec.lin_a, spec.lin_beta, spec.lin_m):
                den = den * f.denominator // math.gcd(den, f.denominator)
            self.lin = (int(spec.lin_a * den), int(spec.lin_beta * den), int(spec.lin_m * den))
            self.gc = None
        else:
            self.gc = families.growth_coeffs(spec)
            self.lin = None
        self.cap = [1]
        self.deg = [0]
        self.parent = [-1]
        self.where = [0]
        gc = self.gc
        if gc is not None and gc.bdeg > 0:
            # weights only ever increase, so the weight units form an
            # append-only table of node indices that a draw indexes directly
            self.slots = [0] * gc.total(1)
        elif gc is not None and gc.bdeg < 0:
            # Weights fall as the degree grows.  Nodes of equal weight share
            # a group, so one uniform integer resolves to a node exactly:
            # groups[g] holds the nodes with cap - 1 + deg == g, every
            # attachment moves a node one group up, and a node leaves the
            # table once its weight reaches zero.  pos[v] is v's index in
            # its group, for swap-removal.
            self.groups: list[list[int]] = []
            self.units: list[int] = []
            while True:
                g = len(self.groups)
                unit = gc.node_weight(min(g + 1, self.b), max(0, g + 1 - self.b))
                if unit <= 0:
                    break
                self.groups.append([])
                self.units.append(unit)
            self.groups[0].append(0)
            self.pos = [0]
        elif gc is not None and not (gc.bdeg == 0 and gc.c == 0):
            raise ValueError(f"no growth sampler for the coefficients {gc}")

    @property
    def size(self) -> int:
        return len(self.where)

    # -- named families: one pre-drawn uniform integer per label -------------
    #
    # Each selection path has its own loop with the state in local names, so
    # a label costs a few list operations and no method call.

    def grow(self, draws) -> None:
        """Add one label per draw; each u must be below the current total weight."""
        gc = self.gc
        draws = np.asarray(draws)
        if gc.bdeg > 0:
            run = self._grow_by_slot
        elif gc.bdeg < 0:
            run = self._grow_by_group
        else:
            # weight a*c(v): u // a is a uniform label, where[] its node
            run, draws = self._grow_by_label, draws // gc.a
        for start in range(0, len(draws), _CHUNK):  # bounds the Python ints alive at once
            run(draws[start:start + _CHUNK].tolist())

    def _grow_by_label(self, picks: list) -> None:
        cap, deg, parent, where = self.cap, self.deg, self.parent, self.where
        b = self.b
        for i in picks:
            v = where[i]
            c = cap[v]
            if c < b:
                cap[v] = c + 1
                where.append(v)
            else:
                where.append(len(cap))
                cap.append(1)
                deg.append(0)
                parent.append(v)
                deg[v] += 1

    def _grow_by_slot(self, draws: list) -> None:
        cap, deg, parent, where, slots = self.cap, self.deg, self.parent, self.where, self.slots
        b, a, bdeg = self.b, self.gc.a, self.gc.bdeg
        for u in draws:
            v = slots[u]
            c = cap[v]
            if c < b:
                cap[v] = c + 1
                where.append(v)
                slots.extend([v] * a)
            else:
                child = len(cap)
                where.append(child)
                cap.append(1)
                deg.append(0)
                parent.append(v)
                deg[v] += 1
                slots.extend([child] * (a - bdeg))
                slots.extend([v] * bdeg)

    def _grow_by_group(self, draws: list) -> None:
        cap, deg, parent, where = self.cap, self.deg, self.parent, self.where
        groups, pos, b = self.groups, self.pos, self.b
        table = list(zip(self.units, groups))
        first, top = groups[0], len(groups)
        for u in draws:
            for unit, group in table:
                gw = unit * len(group)
                if u < gw:
                    break
                u -= gw
            else:
                raise AssertionError("selection overflow")
            v = group[u // unit]
            # swap-remove v from its group and file it one group up
            i = pos[v]
            last = group.pop()
            if last != v:
                group[i] = last
                pos[last] = i
            c = cap[v]
            g = c + deg[v]
            if g < top:
                group = groups[g]
                pos[v] = len(group)
                group.append(v)
            if c < b:
                cap[v] = c + 1
                where.append(v)
            else:
                child = len(cap)
                where.append(child)
                cap.append(1)
                deg.append(0)
                parent.append(v)
                deg[v] += 1
                pos.append(len(first))
                first.append(child)

    # -- linear rules: weights are recomputed by a scan at every step --------

    def step_linear(self, rng: RngStream) -> None:
        a, beta, m = self.lin
        weights = []
        total = 0
        for c, d in zip(self.cap, self.deg):
            w = a * (c - 1) + beta * d + m
            weights.append(w)
            total += w
        if total == 0:
            raise ValueError(f"growth rule {self.spec.describe()} has total weight 0 "
                             f"before label {self.size + 1}: no bucket can attract it")
        u = rng.integers(total)
        for v, w in enumerate(weights):
            if u < w:
                break
            u -= w
        else:
            raise AssertionError("unreachable")
        if self.cap[v] < self.b:
            self.cap[v] += 1
            self.where.append(v)
        else:
            self.where.append(len(self.cap))
            self.cap.append(1)
            self.deg.append(0)
            self.parent.append(v)
            self.deg[v] += 1

    def build(self) -> BucketTree:
        labels: list[list[int]] = [[] for _ in self.cap]
        for label, v in enumerate(self.where, start=1):
            labels[v].append(label)
        children: list[list[int]] = [[] for _ in self.cap]
        for v in range(1, len(self.cap)):
            children[self.parent[v]].append(v)
        # make the nodes in postorder, each subtree before its parent: the
        # walks that follow then read nodes in about the order they sit in
        # memory, which a leaves-first pass by index does not give
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack += children[v]
        nodes: list = [None] * len(self.cap)
        for v in reversed(order):
            nodes[v] = BucketNode(tuple(labels[v]), tuple([nodes[c] for c in children[v]]))
        return BucketTree(self.b, nodes[0])

    def census(self) -> NodeCensus:
        m: dict = {}
        n_deg: dict = {}
        for k, d in zip(self.cap, self.deg):
            if k < self.b:
                m[k] = m.get(k, 0) + 1
            else:
                n_deg[d] = n_deg.get(d, 0) + 1
        return NodeCensus(self.b, self.size, m, n_deg)


def _grown(spec: FamilySpec, n: int, rng) -> _Grower:
    if n < 1:
        raise ValueError("tree size must be >= 1")
    stream = _as_rng(rng)
    g = _Grower(spec)
    if g.gc is not None and n > 1:
        # the totals are deterministic, so all draws can be made up front
        totals = g.gc.a * np.arange(1, n, dtype=np.int64) + g.gc.total_c
        g.grow(stream.generator.integers(0, totals))
    else:
        for _ in range(n - 1):
            g.step_linear(stream)
    return g


def sample_tree(spec: FamilySpec, n: int, rng) -> BucketTree:
    """Grow one random size-n tree of the family (rng: RngStream or seed)."""
    return _grown(spec, n, rng).build()


def sample_census(spec: FamilySpec, n: int, rng) -> NodeCensus:
    """Grow a random size-n tree, returning only its bucket census."""
    return _grown(spec, n, rng).census()
