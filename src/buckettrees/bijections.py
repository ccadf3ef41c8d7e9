"""Structure-preserving maps between tree families.

* clustering of ordinary increasing trees into bucket trees (surjective),
  with a chain expansion as its right inverse;
* the weight-preserving degree weights induced by clustering;
* bundled refinements of the clustering map that are genuine bijections
  (plane-oriented / three-bundled, recursive / two-bundled);
* the bijection between bucket trees with b = 2 and increasing diamonds,
  which are stored as bucket nodes: one relabelling pass, either way.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .enumeration import all_trees
from .families import frac_binom
from .trees import (BucketNode, BucketTree, BundledBucketTree, ParseError,
                    _assemble, _build_up, _children, _collector_paused,
                    _flat_tree, canonicalize, check_valid, iter_nodes, min_label)


def _require_plain(tree: BucketTree) -> None:
    if tree.b != 1:
        raise ValueError("expected an ordinary increasing tree (b = 1)")


# ---------------------------------------------------------------------------
# clustering


def _merge(node: BucketNode, b: int) -> tuple:
    """The bucket clustering makes at node, and the nodes left below it.

    The bucket holds the b smallest labels of node's subtree.  Labels
    increase downwards, so they are the first b nodes a heap-ordered walk
    from node pops.  The nodes left below are the children of the merged
    nodes that were not merged, in (bucket position, original position)
    order.
    """
    merged, frontier = [], [(node.labels[0], node)]
    while frontier and len(merged) < b:
        v = heappop(frontier)[1]
        merged.append(v)
        for c in v.children:
            heappush(frontier, (c.labels[0], c))
    taken = set(map(id, merged))
    labels = tuple(v.labels[0] for v in merged)
    return labels, [c for v in merged for c in v.children if id(c) not in taken]


def cluster(tree: BucketTree, b: int) -> BucketTree:
    """Merge each smallest-remaining node with the b-1 next labels below it.

    Children of the merged nodes are redirected to the bucket, kept in
    (bucket position, original position) order.  Surjective but not
    injective onto the bucket trees with bound b.
    """
    _require_plain(tree)
    if b < 2:
        raise ValueError("clustering needs b >= 2")
    check_valid(tree)
    labels, degrees, stack = [], [], [tree.root]
    while stack:
        bucket, below = _merge(stack.pop(), b)
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


def _cluster_bundled(tree: BucketTree, d: int) -> BundledBucketTree:
    """The d-bundled clustering, d = 3 or 2, in one preorder pass.

    Each node v with children takes its smallest child u into its bucket.
    The pass records the bucket's labels, its bundled children and the
    bundle sizes, and the tree is assembled bottom-up at the end.
    """
    labels, degrees, cuts, stack = [], [], [], [tree.root]
    while stack:
        v = stack.pop()
        kids = v.children
        if kids:
            if d == 3:  # left of u, u's children, right of u
                firsts = [c.labels[0] for c in kids]
                i = firsts.index(min(firsts))
                u = kids[i]
                cuts.append((v.labels[0], (i, len(u.children), len(kids) - i - 1)))
                kids = kids[:i] + u.children + kids[i + 1:]
            else:  # canonical, so u comes first: the rest, then u's children
                u = kids[0]
                cuts.append((v.labels[0], (len(kids) - 1, len(u.children))))
                kids = kids[1:] + u.children
            labels.append((v.labels[0], u.labels[0]))
        else:
            labels.append(v.labels)
        degrees.append(len(kids))
        stack += kids[::-1]
    return BundledBucketTree(2, d, _assemble(labels, degrees), tuple(sorted(cuts)))


@_collector_paused
def _uncluster_bundled(tree: BundledBucketTree, d: int) -> BucketTree:
    """The inverse of the d-bundled clustering, in one postorder pass: each
    bucket splits into its first label and, below it, its second."""
    if (tree.b, tree.d) != (2, d):
        raise ValueError(f"expected a {d}-bundled tree with bucket size two")
    cuts, order, stack = dict(tree.cuts), [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += v.children
    done: list = []
    for v in reversed(order):  # v's unclustered children are on top of done
        k = len(v.children)
        if len(v.labels) == 1:
            if k:
                raise ValueError("unsaturated bucket with children")
            done.append(v)  # a leaf is its own preimage
            continue
        sizes = cuts.get(v.labels[0], ())
        if len(sizes) != d or min(sizes) < 0 or sum(sizes) != k:
            raise ValueError(f"bucket {v.labels}: bundle sizes {sizes} do not split "
                             f"its {k} children into {d} bundles")
        below = done[len(done) - k:]
        del done[len(done) - k:]
        i = sizes[0]
        if d == 3:
            m = i + sizes[1]
            mid = BucketNode(v.labels[1:], tuple(below[i:m]))
            done.append(BucketNode(v.labels[:1], (*below[:i], mid, *below[m:])))
        else:
            mid = BucketNode(v.labels[1:], _sort_by_min(below[i:]))
            done.append(BucketNode(v.labels[:1], _sort_by_min([mid, *below[:i]])))
    out = BucketTree(1, done[0])
    check_valid(out)
    return out


def _sort_by_min(nodes) -> tuple:
    return tuple(sorted(nodes, key=min_label))


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
    """An increasing diamond, stored as the bucket tree of its decomposition.

    A one-label node is an inner node.  A two-label node (source, sink) is
    a composite diamond, and its children are its parts, in order.
    """

    root: BucketNode

    @property
    def size(self) -> int:
        return sum(len(v.labels) for v in iter_nodes(self.root))

    def inner_count(self) -> int:
        return sum(len(v.labels) == 1 for v in iter_nodes(self.root))


def _span(node: BucketNode, spans: list) -> tuple:
    """(smallest, largest) label of a diamond node's subtree, which must be
    the node's own labels."""
    labels = node.labels
    if len(labels) == 1 and not spans:
        return labels[0], labels[0]
    if len(labels) != 2:
        raise ValueError(f"diamond node {labels}: an inner node holds one label "
                         "and no parts, a composite a (source, sink) pair")
    source, sink = labels
    if source > sink or not all(source < lo and hi < sink for lo, hi in spans):
        raise ValueError(f"source/sink {source}/{sink} are not the "
                         "extremes of their sub-diamond")
    return labels


def check_diamond(d: Diamond) -> None:
    labels = [x for v in iter_nodes(d.root) for x in v.labels]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in diamond")
    _build_up(d.root, _children, _span)


def _rest(labels: list, second: int) -> list:
    """Sorted labels without positions 0 and second (1 or -1)."""
    return labels[2:] if second == 1 else labels[1:-1]


@_collector_paused
def _relabel(root: BucketNode, second: int) -> BucketNode:
    """The same shape with each subtree renumbered within its own labels.

    A node moves from positions (0, -second) of its subtree's sorted labels
    to positions (0, second), and the other new labels go, in order, to the
    children holding the other old labels.  A b = 2 bucket node holds the
    two smallest labels of its subtree and a diamond node the smallest and
    the largest (source and sink), so second = -1 maps a valid bucket tree
    to its diamond and 1 maps a valid diamond back.  Each node slices its
    subtree's labels: the cost is the sum of the subtree sizes.
    """
    # labels in preorder: a subtree's labels are a run starting at its first
    # label's rank, so a label lies below the last child starting at or before it
    rank = {x: i for i, x in enumerate(x for v in iter_nodes(root) for x in v.labels)}
    new = {}  # a node's new labels, by its first old label (labels are distinct)
    labels = sorted(rank)
    todo = [(root, labels, labels)]
    while todo:
        node, old, fresh = todo.pop()
        new[node.labels[0]] = (fresh[0], fresh[second]) if len(node.labels) == 2 else (fresh[0],)
        kids = node.children
        if len(kids) == 1:
            todo.append((kids[0], _rest(old, -second), _rest(fresh, second)))
        elif kids:
            starts = [rank[c.labels[0]] for c in kids]
            olds, freshes = [[] for _ in kids], [[] for _ in kids]
            for x, y in zip(_rest(old, -second), _rest(fresh, second)):
                j = bisect_right(starts, rank[x]) - 1
                olds[j].append(x)
                freshes[j].append(y)
            todo += zip(kids, olds, freshes)
    return _build_up(root, _children,
                     lambda node, kids: BucketNode(new[node.labels[0]], tuple(kids)))


def diamond_to_bucket(d: Diamond) -> BucketTree:
    check_diamond(d)
    tree = BucketTree(2, _relabel(d.root, 1))
    check_valid(tree)
    return tree


def bucket_to_diamond(tree: BucketTree) -> Diamond:
    if tree.b != 2:
        raise ValueError("the diamond bijection needs bucket size two")
    check_valid(tree)
    d = Diamond(_relabel(tree.root, -1))
    check_diamond(d)
    return d


# ---------------------------------------------------------------------------
# diamond text codec: (v) for inner nodes, <s t>(p1,p2,...) otherwise


def _diamond_text(node: BucketNode, parts: list) -> str:
    if len(node.labels) == 1:
        return "(%d)" % node.labels
    return "<%d %d>(%s)" % (*node.labels, ",".join(parts))


def encode_diamond(d: Diamond) -> str:
    return _build_up(d.root, _children, _diamond_text)


_PART = re.compile(r"\((\d+)\)|<(\d+) (\d+)>\(")


@_collector_paused
def decode_diamond(text: str) -> Diamond:
    """Parse and check the text form; a comma may follow any part."""
    open_parts = []  # (source, sink) and parts so far of each composite whose '(' is open
    pos = 0
    while True:
        if open_parts and text.startswith(")", pos):
            labels, parts = open_parts.pop()
            node = BucketNode(labels, tuple(parts))
            pos += 1
        else:
            m = _PART.match(text, pos)
            if m is None:
                raise ParseError("expected '(' or '<'", pos)
            pos = m.end()
            if m[1] is None:
                open_parts.append(((int(m[2]), int(m[3])), []))
                continue
            node = BucketNode((int(m[1]),))
        if not open_parts:
            break
        open_parts[-1][1].append(node)
        if text.startswith(",", pos):
            pos += 1
    if pos != len(text):
        raise ParseError("trailing input", pos)
    d = Diamond(node)
    check_diamond(d)
    return d
