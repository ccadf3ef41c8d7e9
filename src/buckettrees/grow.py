"""Label-by-label growth of random bucket trees.

Every growth rule, named or linear, is one `families.GrowthCoeffs`: a
bucket weighs a*c + bdeg*deg + c in denominator-cleared integers.  Each
step draws one uniform integer below the total weight.  When the weight is
a*c, no weight ever falls (`port`), or a full bucket loses one unit per
child (`ary`), the draw resolves to a pick, the label whose bucket it
chose: its parent in the b = 1 tree.  One clustering loop puts each label
in its pick's bucket while that has room, else in a new child of it, so a
grown tree is the paper's clustering of the b = 1 tree on the same draws;
pre-drawn b = 1 picks need no loop: they are the parents, kept as one
array.  Weight groups serve the other rules.  With bdeg + c == 0 the totals
are deterministic, and all draws are made up front and resolved by numpy;
else each label is drawn against the live total, which counts the nodes.  A
label costs O(1) amortized time but for live blocks (bisection), slot picks
(one sort) and rules with a < 0 < bdeg (a scan over weight groups).  The
loops keep their state in Python lists; each list becomes an array once,
when build() or the census reads it, and children are counted only then.
build() orders the buckets by numpy passes alone, in O(log depth) rounds of
ancestor doubling.  The tree has exactly the distribution of the family's
growth rule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families
from .families import FamilySpec
from .trees import BucketTree, NodeCensus, _array_tree, _census, _parents, check_count


@dataclass
class RngStream:
    """A seeded random stream that can spawn independent child streams.

    The seed follows the count rule of `check_count`: an integer >= 0.
    """

    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        self.seed = check_count(self.seed, "seed", 0)
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.spawn_key + (index,))

    def integers(self, high) -> int:
        return int(self.generator.integers(high))


def _as_rng(rng) -> RngStream:
    """rng if it is a stream, else the stream of the seed rng."""
    return rng if isinstance(rng, RngStream) else RngStream(rng)


def _draw_dtype(high: int):
    """The integer dtype to draw below `high` in: int32 when it fits.

    Below 2**31 numpy's bounded int32 and int64 draws take the same 32-bit
    words and give the same numbers; int32 is cheaper to fill and compare.
    """
    return np.int32 if high < 2**31 else np.int64


def _check_draw_bound(total: int, spec: FamilySpec, at: str) -> None:
    """Refuse a total weight past 2^63 - 1, which int64 totals and draws cannot hold."""
    if total >= 2**63:
        raise ValueError(f"growth rule {spec.describe()} has total weight {total} {at}, "
                         f"past the int64 draw bound 2^63 - 1")


# ---------------------------------------------------------------------------
# exact attraction probabilities on a static tree


def attraction_probs(spec: FamilySpec, tree: BucketTree) -> list:
    """Exact attraction probability of every bucket, in preorder:
    [(parent, labels, Fraction)], parent being the preorder index of the
    bucket's parent, -1 for the root.

    Each bucket's weight is `gc.node_weight` over `gc.total(size, nodes)`,
    so the probabilities sum to one on every tree.  A tree with a negative
    bucket weight or a zero total, which the rule cannot grow, raises
    ValueError.
    """
    families.check_tree(spec, tree)
    gc = families.growth_coeffs(spec)
    weights = [gc.node_weight(len(lab), d) for lab, d in zip(tree.labels, tree.degrees)]
    total = gc.total(tree.size, len(weights))
    if total <= 0 or min(weights) < 0:
        raise ValueError(f"growth rule {spec.describe()} cannot grow this tree: "
                         f"total weight {total}, least bucket weight {min(weights)}")
    return [(up, lab, Fraction(w, total))
            for up, lab, w in zip(_parents(tree.degrees), tree.labels, weights)]


# ---------------------------------------------------------------------------
# the growth sampler


_CHUNK = 1 << 13


class _Grower:
    """Mutable growth state in flat per-node and per-label lists.

    Node v holds cap[v] labels; parent[v] is its parent (-1 at the root) and
    where[i] is the node holding label i + 1.  At b = 1 where is the identity
    and every cap 1, so pre-drawn picks join parent as an array and leave
    cap and where unset.  Children are numbered in the order they are born;
    only the weight groups count them as they go.  `arrays()` and
    `label_nodes()` hand the state over as arrays, from which build() lists
    the buckets in preorder, the form a BucketTree stores, with no Python
    loop over nodes or labels.  `path` names how
    a draw finds its node: by a pick ("label", "block" or "slot") and one
    clustering loop, none when pre-drawn at b = 1, or by the weight groups'
    own loop ("group").
    """

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.b = spec.b
        self.gc = gc = families.growth_coeffs(spec)
        self.cap = [1]
        self.parent = [-1]
        self.where = [0]
        self.totals = [0]  # T_0 .. T_j when the totals are live, bisected for blocks
        if gc.bdeg == gc.c == 0:
            # weight a*c(v): u // a is a uniform label, the pick
            self.path = "label"
        elif gc.a >= 0 and gc.bdeg >= 0:
            # Weights only ever increase, so the weight units can stay in the
            # order they were added: label j + 1 adds the block [T_j, T_j+1),
            # T_j being the total before it.  Its first node_weight(1, 0)
            # units belong to the node label j + 1 entered and the rest to
            # its pick's, so a draw in them picks label j + 1 or pick[j].
            # The root's units [0, T_1) are block 0.  pick is an array when
            # the totals are pre-drawn.
            self.path = "block"
            self.pick = [0] if gc.bdeg + gc.c else np.zeros(1, np.intp)
        elif gc.a > 0 and gc.bdeg == -1 and gc.c == 1:
            # Each node of the b = 1 tree holds a + 1 slots (every ary rule),
            # and the totals are deterministic.  A new label takes over the
            # unit its draw landed on and the a fresh units of its block
            # [T_j, T_j+1); the root's are [0, T_1).  So a draw picks the
            # last label to draw the same unit, else the block's label.
            # units[k] is the draw of label k + 2.
            self.path = "slot"
            self.units = np.zeros(0, np.int64)
        else:
            # Only the rules no block layout can grow come here: a < 0,
            # bdeg < -1, or bdeg = -1 with live totals or with a = 0.
            # Nodes of equal weight share a group, so one uniform integer
            # resolves to a node exactly: groups[g] holds the nodes with
            # cap - 1 + deg == g and table[g] pairs it with their weight.
            # Every attachment moves a node one group up; the first node to
            # reach a group opens it, so a chain without end works too.  A
            # node of weight 0 is never drawn again, so it stays in the last
            # group it reached.  pos[v] is v's index in its group.
            self.path = "group"
            self.deg = [0]
            self.groups = [[0]]
            self.table = [(gc.node_weight(1, 0), self.groups[0])]
            self.pos = [0]

    @property
    def size(self) -> int:
        return len(self.parent) if self.b == 1 else len(self.where)

    def grow(self, count: int, stream: RngStream) -> None:
        """Add `count` labels, each placed by one uniform integer below the total."""
        gc = self.gc
        if gc.bdeg + gc.c:
            # the total counts the nodes, which are random: draw label by label
            draws = self._live_draws(count, stream)
            if self.path == "group":
                return self._grow_by_group(draws)
            return self._place(self._live_picks(draws))
        if count == 0:
            return
        # the totals T_j before labels j + 1 = size + 1 .. size + count are
        # deterministic, so all draws can be made up front; T_top is the largest
        top = self.size + count - 1 if gc.a > 0 else self.size
        _check_draw_bound(gc.total(top), self.spec, f"before label {top + 1}")
        totals = gc.a * np.arange(self.size, self.size + count, dtype=np.int64) + gc.total_c
        stuck = np.flatnonzero(totals <= 0)
        if stuck.size:
            self._stuck(self.size + int(stuck[0]) + 1, int(totals[stuck[0]]))
        draws = stream.generator.integers(0, totals)
        if self.path == "label":
            return self._place((draws // gc.a).astype(np.intp))
        if self.path == "block":
            # T_j = a*j + total_c for j >= 1, so every block but the root's
            # holds a units, and u - total_c < a throughout the root's;
            # unsigned, as u - total_c (total_c <= 0) may pass 2^63 - 1
            block, offset = np.divmod(draws.view(np.uint64) + -gc.total_c, gc.a)
            return self._place(self._block_picks(block.astype(np.intp), offset))
        if self.path == "slot":
            return self._place(self._slot_picks(draws))
        for start in range(0, count, _CHUNK):  # bounds the Python ints alive at once
            self._grow_by_group(draws[start:start + _CHUNK].tolist())

    def _place(self, picks) -> None:
        """Place the labels by their picks.  Live picks run through the
        clustering loop as they are drawn.  At b = 1 every label opens a
        node, so a pre-drawn pick array is the parents and joins the parent
        array as it is; otherwise the loop runs on it _CHUNK picks at a time."""
        if not isinstance(picks, np.ndarray):
            self._cluster(picks)
        elif self.b == 1:
            self.parent = np.concatenate((self.parent, picks))
            self.cap = self.where = None
        else:
            for start in range(0, len(picks), _CHUNK):
                self._cluster(picks[start:start + _CHUNK].tolist())

    def _block_picks(self, block: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """The picks of the next labels from their draws' blocks and offsets:
        block j's label, or pick[j] past its first node_weight(1, 0) units.
        One pick may copy another, so pointer jumping resolves all at once:
        to[k] is k once k's pick is known, else a label whose pick k's equals."""
        start = len(self.pick)
        to = np.arange(start + len(block))
        own = to[start:]  # a view: each spilled draw's label points to its block's
        own -= (offset >= self.gc.node_weight(1, 0)) * (own - block)
        while (to != (hop := to[to])).any():
            to = hop
        self.pick = np.concatenate((self.pick, block))[to]
        return self.pick[start:]

    def _slot_picks(self, draws: np.ndarray) -> np.ndarray:
        """The picks of the next labels from their draws: the last earlier
        label whose draw took the same unit, else the label of the unit's
        block, (u - total_c) // a past the root's.  One sort over every draw
        so far lists each unit's draws in label order: the default sort of
        the distinct keys u*m + k while they fit int64, else a stable sort."""
        gc, start = self.gc, len(self.units)
        units = self.units = np.concatenate((self.units, draws))
        picks = np.maximum(units - gc.total_c, 0) // gc.a
        m = len(units)
        if gc.total(self.size + len(draws) - 1) * m <= 2**63:  # every u is below that total
            ranked, order = np.divmod(np.sort(units * m + np.arange(m)), m)
        else:
            order = np.argsort(units, kind="stable")
            ranked = units[order]
        again = np.flatnonzero(ranked[1:] == ranked[:-1])
        picks[order[again + 1]] = order[again] + 1
        return picks[start:].astype(np.intp, copy=False)

    def _live_draws(self, count: int, stream: RngStream):
        """One draw per label below the live total; the block path keeps
        each total for `_live_picks` to bisect."""
        gc, cap, totals, block = self.gc, self.cap, self.totals, self.path == "block"
        for n in range(self.size, self.size + count):
            total = gc.total(n, len(cap))
            if not 0 < total < 2**63:
                self._stuck(n + 1, total)
            if block:
                totals.append(total)
            yield stream.integers(total)

    def _live_picks(self, draws):
        """The pick of each live draw, its block found by bisection over the totals so far."""
        pick, totals, fresh = self.pick, self.totals, self.gc.node_weight(1, 0)
        for u in draws:
            j = bisect_right(totals, u) - 1
            j = j if u - totals[j] < fresh else pick[j]
            pick.append(j)
            yield j

    def _stuck(self, label: int, total: int):
        _check_draw_bound(total, self.spec, f"before label {label}")
        raise ValueError(f"growth rule {self.spec.describe()} has total weight 0 "
                         f"before label {label}: no bucket can attract it")

    # Both placement loops keep the state in local names, so a label costs a
    # few list operations and no method call.

    def _cluster(self, picks) -> None:
        """Put each label in its pick's bucket while that has room, else in a
        new child of it."""
        cap, parent, where, b = self.cap, self.parent, self.where, self.b
        for i in picks:
            v = where[i]
            c = cap[v]
            if c < b:
                cap[v] = c + 1
                where.append(v)
            else:
                where.append(len(cap))
                cap.append(1)
                parent.append(v)

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

    def arrays(self) -> tuple:
        """(parent, cap, deg) as intp arrays, deg counted from parent."""
        parent = np.asarray(self.parent, dtype=np.intp)
        nodes = len(parent)
        cap = np.ones(nodes, np.intp) if self.b == 1 else np.array(self.cap, dtype=np.intp)
        return parent, cap, np.bincount(parent[1:], minlength=nodes)

    def label_nodes(self) -> np.ndarray:
        """where as an intp array."""
        return np.arange(self.size) if self.b == 1 else np.array(self.where, dtype=np.intp)

    def build(self) -> BucketTree:
        """The grown tree, its buckets listed in preorder.

        `_preorder` finds each bucket's preorder position from the parents
        by numpy passes alone.  The labels, read in order and sorted stably
        by their bucket's position, are the preorder's labels, cut per bucket.
        """
        parent, cap, deg = self.arrays()
        n, nodes = self.size, len(parent)
        pos = _preorder(parent)
        # the labels in preorder: a stable argsort of pos[where], as one sort
        # of distinct keys
        keys = pos[self.label_nodes()] * n + np.arange(n)
        flat = np.sort(keys) % n + 1
        caps = np.empty(nodes, dtype=np.intp)
        caps[pos] = cap
        degrees = np.empty(nodes, dtype=np.intp)
        degrees[pos] = deg
        # valid and canonical by construction (children in the order they opened)
        return _array_tree(self.b, flat, caps, degrees, True, True)

    def census(self) -> NodeCensus:
        _, cap, deg = self.arrays()
        return _census(self.b, self.size, cap, deg)


def _preorder(parent: np.ndarray) -> np.ndarray:
    """Each node's preorder position, from its parent (-1 at the root), when
    every node is numbered after its parent and children are visited in the
    order they are numbered.

    By ancestor doubling: up holds each node's 2^r-th ancestor in round r,
    and adding every node's size into that ancestor's makes each size count
    the subtree 2^(r+1) - 1 levels deep, so after ceil(log2 depth) rounds
    each node but the root holds its subtree size.  A child lies 1 plus its
    older siblings' sizes past its parent, and its position is the sum of
    those steps up its path, added over the same ancestor arrays.  An
    ancestor past the root reads the root, whose position is 0 and whose
    size, which the rounds overcount, is set to m.  O(m log depth) numpy
    work for m nodes.
    """
    m = len(parent)
    up = parent.copy()
    up[0] = 0
    ups, size = [], np.ones(m)  # float64 sums are exact below 2^53 nodes
    while np.count_nonzero(up):
        ups.append(up)
        size += np.bincount(up, weights=size, minlength=m)
        up = up[up]
    size[0] = m
    size = size.astype(np.intp)
    # the children grouped by parent, in birth order, and their parents: one
    # sort of distinct keys, in which the root's comes first
    index = np.arange(m)
    parent_of, kids = np.divmod(np.sort(parent * m + index)[1:], m)
    # a node's children weigh its size less 1, so under[p] sums the children
    # of the nodes before p; a child's older siblings weigh what the children
    # sorted before it do, less under[its parent]
    under = size.cumsum() - size - index
    ahead = size[kids]
    ahead = ahead.cumsum() - ahead
    pos = np.zeros(m, np.intp)
    pos[kids] = ahead - under[parent_of] + 1
    for up in ups:
        pos += pos[up]
    return pos


def _grown(spec: FamilySpec, n: int, rng) -> _Grower:
    n = check_count(n, "n")
    g = _Grower(spec)
    g.grow(n - 1, _as_rng(rng))
    return g


def sample_tree(spec: FamilySpec, n: int, rng) -> BucketTree:
    """Grow one random size-n tree of the family (rng: RngStream or seed)."""
    return _grown(spec, n, rng).build()


def sample_census(spec: FamilySpec, n: int, rng) -> NodeCensus:
    """Grow a random size-n tree, returning only its bucket census."""
    return _grown(spec, n, rng).census()
