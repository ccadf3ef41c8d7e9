"""Label-by-label growth of random bucket trees.

Every growth rule, named or linear, is one `families.GrowthCoeffs`: a
bucket weighs a*c + bdeg*deg + c in denominator-cleared integers.  Each
step draws one uniform integer below the total weight and resolves it to a
node through a label, slot or weight-group table chosen from the
coefficients, in O(1) amortized time for every rule but those with
a < 0 < bdeg, which keep one weight group per degree and scan them.
When bdeg + c == 0 the totals are deterministic and every draw is made
up front; otherwise each label is drawn against the live total, which
also counts the nodes.  The resulting tree has exactly the distribution
induced by the family's growth rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .families import FamilySpec
from .trees import BucketTree, NodeCensus, _census, _collector_paused, _kids, _numbered_tree


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
    """Exact attraction probability of every bucket, in preorder:
    [(path, labels, Fraction)], path being the bucket's child indices from
    the root.

    Each bucket's weight is `gc.node_weight` over `gc.total(size, nodes)`,
    so the probabilities sum to one on every tree.  A tree with a negative
    bucket weight or a zero total, which the rule cannot grow, raises
    ValueError.
    """
    gc = families.growth_coeffs(spec)
    weights = [gc.node_weight(len(lab), d) for lab, d in zip(tree.labels, tree.degrees)]
    total = gc.total(tree.size, len(weights))
    if total <= 0 or min(weights) < 0:
        raise ValueError(f"growth rule {spec.describe()} cannot grow this tree: "
                         f"total weight {total}, least bucket weight {min(weights)}")
    paths = [()] * len(weights)  # a parent comes before its children in preorder
    for v, below in enumerate(_kids(tree.degrees)):
        for i, c in enumerate(below):
            paths[c] = (*paths[v], i)
    return [(path, lab, Fraction(w, total))
            for path, lab, w in zip(paths, tree.labels, weights)]


# ---------------------------------------------------------------------------
# the growth sampler


_CHUNK = 1 << 13


class _Grower:
    """Mutable growth state in flat per-node and per-label lists.

    Node v holds cap[v] labels and has deg[v] children; parent[v] is its
    parent (-1 at the root) and where[i] is the node holding label i + 1.
    Children are numbered in the order they are born, and build() lists the
    buckets in preorder, which is the form a BucketTree stores.
    """

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.b = spec.b
        self.gc = gc = families.growth_coeffs(spec)
        self.cap = [1]
        self.deg = [0]
        self.parent = [-1]
        self.where = [0]
        if gc.bdeg == gc.c == 0:
            # weight a*c(v): u // a is a uniform label, where[] its node
            self.path = "label"
        elif gc.a >= 0 and gc.bdeg >= 0:
            # weights only ever increase, so the weight units form an
            # append-only table of node indices that a draw indexes directly
            self.path = "slot"
            self.slots = [0] * gc.node_weight(1, 0)
        else:
            # Nodes of equal weight share a group, so one uniform integer
            # resolves to a node exactly: groups[g] holds the nodes with
            # cap - 1 + deg == g and table[g] pairs it with their weight.
            # Every attachment moves a node one group up; the first node to
            # reach a group opens it, so a chain without end works too.  A
            # node of weight 0 is never drawn again, so it stays in the last
            # group it reached.  pos[v] is v's index in its group.
            self.path = "group"
            self.groups = [[0]]
            self.table = [(gc.node_weight(1, 0), self.groups[0])]
            self.pos = [0]

    @property
    def size(self) -> int:
        return len(self.where)

    def grow(self, count: int, stream: RngStream) -> None:
        """Add `count` labels, each placed by one uniform integer below the total."""
        gc = self.gc
        # looked up per call: a bound method kept on self would be a reference cycle
        run = getattr(self, "_grow_by_" + self.path)
        if gc.bdeg + gc.c:
            # the total counts the nodes, which are random: draw label by label
            run(self._live_draws(count, stream))
            return
        if count == 0:
            return
        # the totals are deterministic, so all draws can be made up front
        totals = gc.a * np.arange(1, count + 1, dtype=np.int64) + gc.total_c
        stuck = np.flatnonzero(totals <= 0)
        if stuck.size:
            self._stuck(int(stuck[0]) + 2)
        draws = stream.generator.integers(0, totals)
        if self.path == "label":
            draws //= gc.a
        for start in range(0, count, _CHUNK):  # bounds the Python ints alive at once
            run(draws[start:start + _CHUNK].tolist())

    def _live_draws(self, count: int, stream: RngStream):
        gc, cap, where = self.gc, self.cap, self.where
        for _ in range(count):
            total = gc.total(len(where), len(cap))
            if total <= 0:
                self._stuck(len(where) + 1)
            yield stream.integers(total)

    def _stuck(self, label: int):
        raise ValueError(f"growth rule {self.spec.describe()} has total weight 0 "
                         f"before label {label}: no bucket can attract it")

    # Each selection path has its own loop with the state in local names, so
    # a label costs a few list operations and no method call.

    def _grow_by_label(self, picks) -> None:
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

    def _grow_by_slot(self, draws) -> None:
        cap, deg, parent, where, slots = self.cap, self.deg, self.parent, self.where, self.slots
        b, a, bdeg, fresh = self.b, self.gc.a, self.gc.bdeg, self.gc.node_weight(1, 0)
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
                slots.extend([child] * fresh)
                slots.extend([v] * bdeg)

    def _grow_by_group(self, draws) -> None:
        cap, deg, parent, where = self.cap, self.deg, self.parent, self.where
        groups, table, pos, b = self.groups, self.table, self.pos, self.b
        weight = self.gc.node_weight
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
            if g == top:
                groups.append([])
                table.append((weight(min(g + 1, b), max(0, g + 1 - b)), groups[g]))
                top += 1
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

    @_collector_paused
    def build(self) -> BucketTree:
        """The grown tree, its buckets listed in preorder."""
        labels: list[list[int]] = [[] for _ in self.cap]
        for label, v in enumerate(self.where, start=1):
            labels[v].append(label)
        children: list[list[int]] = [[] for _ in self.cap]
        for v in range(1, len(self.cap)):
            children[self.parent[v]].append(v)
        # valid by construction, and its size is the number of labels placed
        return _numbered_tree(self.b, list(map(tuple, labels)), children, self.size, True)

    def census(self) -> NodeCensus:
        return _census(self.b, self.size, self.cap, self.deg)


def _grown(spec: FamilySpec, n: int, rng) -> _Grower:
    if n < 1:
        raise ValueError("tree size must be >= 1")
    g = _Grower(spec)
    g.grow(n - 1, _as_rng(rng))
    return g


def sample_tree(spec: FamilySpec, n: int, rng) -> BucketTree:
    """Grow one random size-n tree of the family (rng: RngStream or seed)."""
    return _grown(spec, n, rng).build()


def sample_census(spec: FamilySpec, n: int, rng) -> NodeCensus:
    """Grow a random size-n tree, returning only its bucket census."""
    return _grown(spec, n, rng).census()
