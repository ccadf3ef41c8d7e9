"""Exhaustive exact-rational oracle over ordered bucket increasing trees.

Everything here is brute force on purpose: it enumerates every valid
ordered tree of a given size, weighs it, and derives probabilities and
statistic distributions by direct summation, so the fast closed-form code
elsewhere can be checked against it.

A tree's weight is the product of phi(out-degree) over its saturated
buckets and psi(capacity) over its unsaturated ones, so it depends only on
the tree's node signature, the multiset of its (capacity, out-degree)
pairs. Each tree's signature is found once per (b, n) by walking it; each
call then forms one exact product per signature, and the statistic pmfs
sum exact weights once per (value, signature) pair while still evaluating
the statistic on every tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import families
from .families import FamilySpec, phi, psi, total_weight_closed
from .pmf import Pmf
from .trees import BucketNode, BucketTree, canonicalize, iter_nodes

DEFAULT_MAX_N = 10

ORDERED_MODEL = "ordered-model"
UNORDERED_MODEL = "unordered-model"
UNORDERED_GROWTH = "unordered-growth"


class EnumerationBoundError(ValueError):
    pass


def _check_bound(n: int, max_n) -> None:
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if n > bound:
        raise EnumerationBoundError(
            f"n={n} exceeds the enumeration bound {bound}; "
            "pass max_n explicitly to override (memory grows factorially)")


def _ordered_partitions(items: tuple):
    """All ordered sequences of disjoint nonempty blocks covering `items`."""
    if not items:
        yield ()
        return
    s = len(items)
    for mask in range(1, 1 << s):
        block = tuple(items[i] for i in range(s) if mask >> i & 1)
        rest = tuple(items[i] for i in range(s) if not mask >> i & 1)
        for tail in _ordered_partitions(rest):
            yield (block,) + tail


def _relabel(node: BucketNode, labels: tuple) -> BucketNode:
    return BucketNode(tuple(labels[i - 1] for i in node.labels),
                      tuple(_relabel(c, labels) for c in node.children))


@lru_cache(maxsize=None)
def _structures(b: int, n: int) -> tuple:
    """All ordered bucket increasing trees on labels 1..n with bound b."""
    if n < 1:
        return ()
    if n <= b:
        # a single bucket; saturated iff n == b
        return (BucketNode(tuple(range(1, n + 1))),)
    root_labels = tuple(range(1, b + 1))
    rest = tuple(range(b + 1, n + 1))
    out = []
    for blocks in _ordered_partitions(rest):
        # cartesian product of subtree choices, one per block
        choices = [[_relabel(t, block) for t in _structures(b, len(block))]
                   for block in blocks]
        stack = [(0, ())]
        while stack:
            i, kids = stack.pop()
            if i == len(choices):
                out.append(BucketNode(root_labels, kids))
            else:
                for sub in choices[i]:
                    stack.append((i + 1, kids + (sub,)))
    return tuple(out)


def all_trees(b: int, n: int, max_n=None) -> list[BucketTree]:
    _check_bound(n, max_n)
    return [BucketTree(b, root) for root in _structures(b, n)]


@lru_cache(maxsize=None)
def _signatures(b: int, n: int) -> tuple:
    """The node signatures of `_structures(b, n)`: (signatures, index per tree).

    A signature is the sorted ((capacity, out-degree), count) multiset of a
    tree's buckets. A tree's weight is a product of one factor per bucket,
    so trees with one signature have one weight.
    """
    index: dict = {}
    of_tree = []
    for root in _structures(b, n):
        counts: dict = {}
        stack = [root]
        while stack:
            node = stack.pop()
            kids = node.children
            key = (len(node.labels), len(kids))
            counts[key] = counts.get(key, 0) + 1
            stack += kids
        of_tree.append(index.setdefault(tuple(sorted(counts.items())), len(index)))
    return tuple(index), tuple(of_tree)


def _weighed(spec: FamilySpec, n: int, max_n) -> tuple:
    """(structures, signature index per structure, weight per signature).

    Each weight is the product of phi(degree) over saturated buckets and
    psi(capacity) over unsaturated ones, as `families.tree_weight` takes it.
    """
    if spec.kind == families.LINEAR:
        raise ValueError("the linear family has no combinatorial weights to enumerate")
    _check_bound(n, max_n)
    b = spec.b
    signatures, of_tree = _signatures(b, n)
    factors: dict = {}
    weights = []
    for signature in signatures:
        w = Fraction(1)
        for key, count in signature:
            if key not in factors:
                k, d = key
                factors[key] = phi(spec, d) if k == b else psi(spec, k)
            w *= factors[key] ** count
        weights.append(w)
    return _structures(b, n), of_tree, signatures, weights


@dataclass
class WeightedTreeSet:
    spec: FamilySpec
    n: int
    items: list  # (BucketTree, Fraction weight), nonzero weights only

    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.items), Fraction(0))


def enumerate_trees(spec: FamilySpec, n: int, max_n=None) -> WeightedTreeSet:
    """All valid ordered trees of size n with their exact weights (zeros dropped)."""
    roots, of_tree, _, weights = _weighed(spec, n, max_n)
    b = spec.b
    items = [(BucketTree(b, root), weights[s]) for root, s in zip(roots, of_tree) if weights[s]]
    return WeightedTreeSet(spec, n, items)


# ---------------------------------------------------------------------------
# exact probabilities under the three measures


def _is_canonical(node: BucketNode) -> bool:
    stack = [node]
    while stack:
        kids = stack.pop().children
        mins = [c.labels[0] for c in kids]
        if mins != sorted(mins):
            return False
        stack += kids
    return True


def growth_history_probability(spec: FamilySpec, tree: BucketTree) -> Fraction:
    """Probability that the growth process builds exactly this unordered tree.

    The product over j = 2..n of the attraction probability of the node that
    received label j, evaluated on the restriction to labels < j.
    """
    # (capacity, out-degree) of the node that received each label j > 1
    state = [None] * (tree.size + 1)
    stack = [tree.root]
    while stack:
        v = stack.pop()
        for rank in range(1, len(v.labels)):
            state[v.labels[rank]] = (rank, 0)  # v was unsaturated with rank labels
        firsts = sorted(c.labels[0] for c in v.children)
        for deg, j in enumerate(firsts):
            state[j] = (tree.b, deg)  # saturated v had deg children below j
        stack += v.children
    gc = families.growth_coeffs(spec)
    prob = Fraction(1)
    node_count = 1  # nodes of the restriction to labels < j
    for j in range(2, tree.size + 1):
        cap, deg = state[j]
        w = gc.node_weight(cap, deg)
        if w == 0:  # the rule never gives j to a bucket of weight 0
            return Fraction(0)
        prob *= Fraction(w, gc.total(j - 1, node_count))
        node_count += cap == tree.b  # j opened a new bucket
    return prob


def exact_probability(spec: FamilySpec, tree: BucketTree, measure: str,
                      max_n=None) -> Fraction:
    _check_bound(tree.size, max_n)
    if measure == ORDERED_MODEL:
        w = families.tree_weight(spec, tree)
        return w / total_weight_closed(spec, tree.size)
    if measure in (UNORDERED_MODEL, UNORDERED_GROWTH):
        if not _is_canonical(tree.root):
            raise ValueError("unordered measures require the canonical ordered representative")
        if measure == UNORDERED_GROWTH:
            return growth_history_probability(spec, tree)
        w = families.tree_weight(spec, tree)
        orderings = Fraction(1)
        for node in iter_nodes(tree.root):
            f = 1
            for i in range(2, len(node.children) + 1):
                f *= i
            orderings *= f
        return w * orderings / total_weight_closed(spec, tree.size)
    raise ValueError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# statistics on static trees


def _bucket_of(root: BucketNode, label: int):
    """Return (node, subtree_size) for the bucket holding `label`."""
    for node in iter_nodes(root):
        if label in node.labels:
            sub = sum(len(m.labels) for m in iter_nodes(node))
            return node, sub
    raise ValueError(f"label {label} not in tree")


def stat_initial_bucket_size(tree: BucketTree) -> int:
    node, _ = _bucket_of(tree.root, tree.size)
    return len(node.labels)


def stat_descendants(tree: BucketTree, j: int) -> int:
    node, sub = _bucket_of(tree.root, j)
    return sub - node.labels.index(j)


def stat_out_degree(tree: BucketTree, j: int) -> int:
    node, _ = _bucket_of(tree.root, j)
    return len(node.children)


def stat_capacity_count(tree: BucketTree, k: int) -> int:
    return sum(1 for node in iter_nodes(tree.root) if len(node.labels) == k)


def stat_saturation_time(tree: BucketTree, j: int) -> int:
    node, _ = _bucket_of(tree.root, j)
    if len(node.labels) == tree.b:
        return node.labels[-1]  # buckets fill in label order
    return tree.size


_LABEL_STATISTICS = {"Y": stat_descendants, "X": stat_out_degree,
                     "tau": stat_saturation_time}


def _statistic_fn(statistic: str, b: int, n: int):
    name, _, arg = statistic.partition(":")
    name = name.strip()
    if name == "K":
        return stat_initial_bucket_size
    if name == "N":
        k = int(arg)
        if not 1 <= k <= b:
            raise ValueError(f"capacity {k} outside 1..{b}")
        return lambda t: stat_capacity_count(t, k)
    if name not in _LABEL_STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    stat = _LABEL_STATISTICS[name]
    j = int(arg)
    if not 1 <= j <= n:
        raise ValueError(f"statistic argument {j} outside 1..{n}")
    return lambda t: stat(t, j)


def exact_statistic_pmf(spec: FamilySpec, n: int, statistic: str, max_n=None) -> Pmf:
    """Exact distribution of a tree statistic by brute-force summation.

    The statistic is evaluated on every tree of nonzero weight; the trees
    are tallied by (value, signature), so the exact weights are summed once
    per pair. The statistics are invariant under reordering of children,
    so summing ordered-model probabilities gives the unordered-model
    distribution too.
    """
    fn = _statistic_fn(statistic, spec.b, n)
    roots, of_tree, _, weights = _weighed(spec, n, max_n)
    b = spec.b
    tally: dict = {}
    for root, s in zip(roots, of_tree):
        if weights[s]:
            key = (fn(BucketTree(b, root)), s)
            tally[key] = tally.get(key, 0) + 1
    mass: dict = {}
    for (v, s), count in tally.items():
        mass[v] = mass.get(v, 0) + count * weights[s]
    total = sum(mass.values())
    return Pmf({v: w / total for v, w in mass.items()}).check()


def expected_capacity_counts(spec: FamilySpec, n: int, max_n=None) -> dict:
    """Exact E[N_{n,k}] for k = 1..b under the random tree model."""
    _, of_tree, signatures, weights = _weighed(spec, n, max_n)
    trees = Counter(of_tree)
    total = Fraction(0)
    out = {k: Fraction(0) for k in range(1, spec.b + 1)}
    for s, signature in enumerate(signatures):
        w = trees[s] * weights[s]
        total += w
        for (k, _), count in signature:
            out[k] += count * w
    return {k: v / total for k, v in out.items()}


def distinct_unordered(ts: WeightedTreeSet) -> list:
    """Canonical representatives present in an ordered tree set (deduplicated)."""
    seen = {}
    for tree, _ in ts.items:
        c = canonicalize(tree)
        seen[c.root] = c
    return list(seen.values())
