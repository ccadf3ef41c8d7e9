"""Structure-preserving maps between tree families.

* clustering of ordinary increasing trees into bucket trees (surjective),
  with a chain expansion as its right inverse;
* the weight-preserving degree weights induced by clustering;
* bundled refinements of the clustering map that are genuine bijections
  (plane-oriented / three-bundled, recursive / two-bundled);
* the bijection between bucket trees with b = 2 and increasing diamonds,
  which are stored as a bucket preorder: one relabelling pass, either way.

Every map reads and writes the (labels, degrees) preorder a `BucketTree`
stores, and walks it through the child lists of `trees._kids`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain

from .enumeration import all_trees
from .families import frac_binom
from .trees import (BucketTree, BundledBucketTree, ParseError, _collector_paused,
                    _flat_tree, _fold, _kids, _nest, _NotOneTree, _numbered_tree,
                    canonicalize, check_count, check_valid)


def _require_plain(tree: BucketTree) -> None:
    if tree.b != 1:
        raise ValueError("expected an ordinary increasing tree (b = 1)")


# ---------------------------------------------------------------------------
# clustering


def _merge(v: int, b: int, labels, kids: list) -> tuple:
    """The bucket clustering makes at node v, and the nodes left below it.

    The bucket holds the b smallest labels of v's subtree.  Labels
    increase downwards, so they are the first b nodes a heap-ordered walk
    from v pops.  The nodes left below are the children of the merged
    nodes that were not merged, in (bucket position, original position)
    order.
    """
    merged, frontier = [], [(labels[v][0], v)]
    while frontier and len(merged) < b:
        u = heappop(frontier)[1]
        merged.append(u)
        for c in kids[u]:
            heappush(frontier, (labels[c][0], c))
    taken = set(merged)
    return (tuple(labels[u][0] for u in merged),
            [c for u in merged for c in kids[u] if c not in taken])


def cluster(tree: BucketTree, b: int) -> BucketTree:
    """Merge each smallest-remaining node with the b-1 next labels below it.

    Children of the merged nodes are redirected to the bucket, kept in
    (bucket position, original position) order.  Surjective but not
    injective onto the bucket trees with bound b.
    """
    _require_plain(tree)
    b = check_count(b, "clustering bound b", 2)
    check_valid(tree)
    kids = _kids(tree.degrees)
    labels, degrees, stack = [], [], [0]
    while stack:
        bucket, below = _merge(stack.pop(), b, tree.labels, kids)
        labels.append(bucket)
        degrees.append(len(below))
        stack += reversed(below)
    out = _flat_tree(b, tuple(labels), tuple(degrees), tree.size)
    check_valid(out)
    return out


def expand_chains(tree: BucketTree) -> BucketTree:
    """Replace each bucket by an increasing chain; a right inverse of cluster.

    The bucket's children hang off the deepest chain node, so clustering
    the result reproduces the original tree including child order.
    """
    check_valid(tree)
    # a chain's nodes follow each other in preorder, its last one taking
    # the bucket's children; chains of increasing buckets form a valid tree
    labels, degrees = [], []
    for held, d in zip(tree.labels, tree.degrees):
        labels += [(x,) for x in held]
        degrees += [1] * (len(held) - 1)
        degrees.append(d)
    return _flat_tree(1, tuple(labels), tuple(degrees), tree.size, True)


def weight_preserving_phi(phi1, b: int, k: int) -> Fraction:
    """Degree weight of a saturated bucket induced by clustering with b.

    phi1 is the degree-weight sequence of the unbucketed family.  The value
    aggregates, over all size-b increasing trees and all ways to spread k
    redirected edges over their b nodes, the weight of the preimages.
    """
    b, k = check_count(b, "capacity bound b"), check_count(k, "out-degree k", 0)
    base = [Fraction(phi1(i)) for i in range(b + k + 1)]

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out = Fraction(0)
    for tree in all_trees(1, b):
        degs = {held[0]: d for held, d in zip(tree.labels, tree.degrees)}
        w = Fraction(1)
        for d in degs.values():
            w *= base[d]
        if w == 0:
            continue
        inner = Fraction(0)
        for js in compositions(k, b):
            term = Fraction(1)
            for m in range(1, b + 1):
                d, j = degs[m], js[m - 1]
                if base[d] == 0:
                    term = Fraction(0)
                    break
                term *= base[d + j] / base[d] * frac_binom(Fraction(d + j), j)
            inner += term
        out += w * inner
    return out


# ---------------------------------------------------------------------------
# bundled clustering bijections (bucket size two)


@_collector_paused
def _cluster_bundled(tree: BucketTree, d: int) -> BundledBucketTree:
    """The d-bundled clustering, d = 3 or 2, in one preorder pass.

    Each node v with children takes its smallest child u into its bucket.
    The pass records the bucket's labels, its bundled children and the
    bundle sizes, so it writes the bundled tree's preorder.
    """
    check_valid(tree)
    held, kids = tree.labels, _kids(tree.degrees)
    labels, degrees, cuts, stack = [], [], [], [0]
    while stack:
        v = stack.pop()
        below = kids[v]
        if below:
            if d == 3:  # left of u, u's children, right of u
                firsts = [held[c][0] for c in below]
                i = firsts.index(min(firsts))
                u = below[i]
                cuts.append((held[v][0], (i, len(kids[u]), len(below) - i - 1)))
                below = below[:i] + kids[u] + below[i + 1:]
            else:  # canonical, so u comes first: the rest, then u's children
                u = below[0]
                cuts.append((held[v][0], (len(below) - 1, len(kids[u]))))
                below = below[1:] + kids[u]
            labels.append((held[v][0], held[u][0]))
        else:
            labels.append(held[v])
        degrees.append(len(below))
        stack += below[::-1]
    return BundledBucketTree(d, _flat_tree(2, tuple(labels), tuple(degrees), tree.size),
                             tuple(sorted(cuts)))


@_collector_paused
def _uncluster_bundled(bundled: BundledBucketTree, d: int) -> BucketTree:
    """The inverse of the d-bundled clustering, in one pass: each bucket v
    splits into its first label, which keeps v's number, and below it its
    second, which takes the next free number."""
    tree = bundled.tree
    if (tree.b, bundled.d) != (2, d):
        raise ValueError(f"expected a {d}-bundled tree with bucket size two")
    cuts, kids = dict(bundled.cuts), _kids(tree.degrees)
    held = [lab[:1] for lab in tree.labels]
    out: list = [[] for _ in held]  # children of each unclustered node

    def first(w):
        return held[w][0]

    for v, (lab, below) in enumerate(zip(tree.labels, kids)):
        k = len(below)
        if len(lab) == 1:
            if k:
                raise ValueError("unsaturated bucket with children")
            continue  # a leaf is its own preimage
        sizes = cuts.get(lab[0], ())
        if len(sizes) != d or min(sizes) < 0 or sum(sizes) != k:
            raise ValueError(f"bucket {lab}: bundle sizes {sizes} do not split "
                             f"its {k} children into {d} bundles")
        mid = len(held)
        held.append(lab[1:])
        i = sizes[0]
        if d == 3:
            m = i + sizes[1]
            out.append(below[i:m])
            out[v] = [*below[:i], mid, *below[m:]]
        else:
            out.append(sorted(below[i:], key=first))
            out[v] = sorted([mid, *below[:i]], key=first)
    result = _numbered_tree(1, held, out, tree.size)
    check_valid(result)
    return result


def cluster_three_bundled(tree: BucketTree) -> BundledBucketTree:
    """Plane-oriented trees -> three-bundled bilabelled bucket trees, bijective.

    The second label of each bucket is the smallest child; bundle one holds
    the first label's children left of it, bundle two that child's own
    children, bundle three the remainder.
    """
    _require_plain(tree)
    return _cluster_bundled(tree, 3)


def uncluster_three_bundled(tree: BundledBucketTree) -> BucketTree:
    return _uncluster_bundled(tree, 3)


def cluster_two_bundled(tree: BucketTree) -> BundledBucketTree:
    """Recursive trees -> two-bundled bucket recursive trees, bijective.

    Both sides are unordered families, so the input must be canonical and
    the bundles come out sorted by smallest label: bundle one holds the
    first label's other children, bundle two the second label's children.
    """
    _require_plain(tree)
    if canonicalize(tree) != tree:
        raise ValueError("two-bundled clustering expects the canonical representative")
    return _cluster_bundled(tree, 2)


def uncluster_two_bundled(tree: BundledBucketTree) -> BucketTree:
    return _uncluster_bundled(tree, 2)


# ---------------------------------------------------------------------------
# increasing diamonds


@dataclass(frozen=True)
class Diamond:
    """An increasing diamond, stored as the bucket preorder of its decomposition.

    A one-label node is an inner node.  A two-label node (source, sink) is
    a composite diamond, and its children are its parts, in order.
    labels[i] and degrees[i] are the labels and the part count of the i-th
    node in preorder, as in a `BucketTree`.
    """

    labels: tuple
    degrees: tuple

    @property
    def size(self) -> int:
        return sum(map(len, self.labels))

    def inner_count(self) -> int:
        return sum(len(lab) == 1 for lab in self.labels)


def check_diamond(d: Diamond) -> None:
    """Raise ValueError unless d is one well-formed increasing diamond; the
    preorder folds into the (smallest, largest) label of every subtree."""
    labels = list(chain.from_iterable(d.labels))
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in diamond")

    def span(lab, parts):
        if len(lab) == 1 and not parts:
            return lab[0], lab[0]
        if len(lab) != 2:
            raise ValueError(f"diamond node {lab}: an inner node holds one label "
                             "and no parts, a composite a (source, sink) pair")
        source, sink = lab
        if source > sink or not all(source < lo and hi < sink for lo, hi in parts):
            raise ValueError(f"source/sink {source}/{sink} are not the "
                             "extremes of their sub-diamond")
        return lab

    try:
        _fold(d.labels, d.degrees, span)
    except _NotOneTree:
        raise ValueError("diamond part counts do not describe one tree") from None


def _rest(labels: list, second: int) -> list:
    """Sorted labels without positions 0 and second (1 or -1)."""
    return labels[2:] if second == 1 else labels[1:-1]


def _relabel(labels: tuple, degrees: tuple, second: int) -> tuple:
    """The new labels, in preorder, of the same shape with each subtree
    renumbered within its own labels.

    A node moves from positions (0, -second) of its subtree's sorted labels
    to positions (0, second), and the other new labels go, in order, to the
    children holding the other old labels.  A b = 2 bucket holds the two
    smallest labels of its subtree and a diamond node the smallest and the
    largest (source and sink), so second = -1 maps a valid bucket tree to
    its diamond and 1 maps a valid diamond back.  Each node slices its
    subtree's labels: the cost is the sum of the subtree sizes.
    """
    # labels in preorder: a subtree's labels are a run starting at its first
    # label's rank, so a label lies below the last child starting at or before it
    rank = {x: i for i, x in enumerate(chain.from_iterable(labels))}
    kids = _kids(degrees)
    new: list = [None] * len(labels)
    flat = sorted(rank)
    todo = [(0, flat, flat)]
    while todo:
        v, old, fresh = todo.pop()
        new[v] = (fresh[0], fresh[second]) if len(labels[v]) == 2 else (fresh[0],)
        below = kids[v]
        if len(below) == 1:
            todo.append((below[0], _rest(old, -second), _rest(fresh, second)))
        elif below:
            starts = [rank[labels[c][0]] for c in below]
            olds, freshes = [[] for _ in below], [[] for _ in below]
            for x, y in zip(_rest(old, -second), _rest(fresh, second)):
                j = bisect_right(starts, rank[x]) - 1
                olds[j].append(x)
                freshes[j].append(y)
            todo += zip(below, olds, freshes)
    return tuple(new)


def diamond_to_bucket(d: Diamond) -> BucketTree:
    check_diamond(d)
    tree = _flat_tree(2, _relabel(d.labels, d.degrees, 1), d.degrees, d.size)
    check_valid(tree)
    return tree


def bucket_to_diamond(tree: BucketTree) -> Diamond:
    if tree.b != 2:
        raise ValueError("the diamond bijection needs bucket size two")
    check_valid(tree)
    d = Diamond(_relabel(tree.labels, tree.degrees, -1), tree.degrees)
    check_diamond(d)
    return d


# ---------------------------------------------------------------------------
# diamond text codec: (v) for inner nodes, <s t>(p1,p2,...) otherwise


def encode_diamond(d: Diamond) -> str:
    # a composite with no parts writes its empty list itself
    return _nest([("<%d %d>" if k else "<%d %d>()") % lab if len(lab) == 2 else "(%d)" % lab
                  for lab, k in zip(d.labels, d.degrees)], d.degrees)


# a label has no leading zeros, as encode_diamond writes it
_PART = re.compile(r"\((0|[1-9][0-9]*)\)|<(0|[1-9][0-9]*) (0|[1-9][0-9]*)>\(")
# the longest start of a part, maybe empty: the character past it is refused
_PART_START = re.compile(r"(?:\((?:0|[1-9][0-9]*)?"
                         r"|<(?:(?:0|[1-9][0-9]*)(?: (?:(?:0|[1-9][0-9]*)>?)?)?)?)?")


@_collector_paused
def decode_diamond(text: str) -> Diamond:
    """Parse and check the text form; a comma may follow any part."""
    labels, degrees = [], []
    open_parts = []  # preorder index of each composite whose '(' is open
    pos = 0
    while True:
        if open_parts and text.startswith(")", pos):
            open_parts.pop()
            pos += 1
        else:
            m = _PART.match(text, pos)
            if m is None:
                end = _PART_START.match(text, pos).end()
                raise ParseError("malformed part" if end > pos else "expected '(', '<' or ')'"
                                 if open_parts else "expected '(' or '<'", end)
            pos = m.end()
            if open_parts:
                degrees[open_parts[-1]] += 1
            degrees.append(0)
            try:
                labels.append((int(m[1]),) if m[1] else (int(m[2]), int(m[3])))
            except ValueError:  # the longest label is past int's digit limit
                g = max((1, 2, 3), key=lambda g: len(m[g] or ""))
                raise ParseError("label longer than int's digit limit", m.start(g)) from None
            if m[1] is None:
                open_parts.append(len(degrees) - 1)
                continue
        if not open_parts:
            break
        if text.startswith(",", pos):
            pos += 1
    if pos != len(text):
        raise ParseError("trailing input", pos)
    d = Diamond(tuple(labels), tuple(degrees))
    check_diamond(d)
    return d
