"""Structure-preserving maps between tree families.

* clustering of ordinary increasing trees into bucket trees (surjective),
  with a chain expansion as its right inverse;
* the weight-preserving degree weights induced by clustering;
* bundled refinements of the clustering map that are genuine bijections
  (plane-oriented / three-bundled, recursive / two-bundled);
* the bijection between increasing diamonds and bucket trees with b = 2,
  through increasing-decreasing bilabelled trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .enumeration import all_trees
from .trees import (BucketNode, BucketTree, BundledBucketTree, BundledNode,
                    _build_up, _children, _sized_tree, canonicalize, check_valid,
                    iter_nodes)


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


def _cluster(item: tuple, kids: list) -> BucketNode:
    return BucketNode(item[0], tuple(kids))


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

    def below(item: tuple) -> list:
        return [_merge(c, b) for c in item[1]]

    out = _sized_tree(b, _build_up(_merge(tree.root, b), below, _cluster), tree.size)
    check_valid(out)
    return out


def _chain(node: BucketNode, kids: list) -> BucketNode:
    labels = node.labels
    cur = BucketNode(labels[-1:], tuple(kids))
    for i in range(len(labels) - 2, -1, -1):
        cur = BucketNode((labels[i],), (cur,))
    return cur


def expand_chains(tree: BucketTree) -> BucketTree:
    """Replace each bucket by an increasing chain; a right inverse of cluster.

    The bucket's children hang off the deepest chain node, so clustering
    the result reproduces the original tree including child order.
    """
    check_valid(tree)
    # chains of a valid tree's increasing buckets form a valid increasing tree
    return _sized_tree(1, _build_up(tree.root, _children, _chain), tree.size, True)


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

    from .families import frac_binom  # local import to avoid a cycle

    out = Fraction(0)
    for tree in all_trees(1, b):
        degs = {v.labels[0]: len(v.children) for v in iter_nodes(tree.root)}
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


def _min_child_index(node: BucketNode) -> int:
    best = min(range(len(node.children)), key=lambda i: node.children[i].labels[0])
    return best


def _three_children(node: BucketNode) -> tuple:
    """The nodes that become node's bundled children: its own children with
    the smallest one replaced by that child's children."""
    kids = node.children
    if not kids:
        return ()
    i = _min_child_index(node)
    return kids[:i] + kids[i].children + kids[i + 1:]


def _three_bundled_node(node: BucketNode, below: list) -> BundledNode:
    if not node.children:
        return BundledNode(node.labels)
    i = _min_child_index(node)
    u = node.children[i]
    m = i + len(u.children)
    return BundledNode((node.labels[0], u.labels[0]),
                       (tuple(below[:i]), tuple(below[i:m]), tuple(below[m:])))


def cluster_three_bundled(tree: BucketTree) -> BundledBucketTree:
    """Plane-oriented trees -> three-bundled bilabelled bucket trees, bijective.

    The second label of each bucket is the smallest child; bundle one holds
    the first label's children left of it, bundle two that child's own
    children, bundle three the remainder.
    """
    _require_plain(tree)
    return BundledBucketTree(2, 3, _build_up(tree.root, _three_children, _three_bundled_node))


def _bundled_children(node: BundledNode) -> tuple:
    return node.children


def _unbundled_leaf(node: BundledNode) -> BucketNode:
    if any(node.bundles):
        raise ValueError("unsaturated bucket with children")
    return BucketNode(node.labels)


def _three_unbundled_node(node: BundledNode, below: list) -> BucketNode:
    if len(node.labels) == 1:
        return _unbundled_leaf(node)
    b1, b2, b3 = node.bundles
    i, m = len(b1), len(b1) + len(b2)
    mid = BucketNode((node.labels[1],), tuple(below[i:m]))
    return BucketNode((node.labels[0],), (*below[:i], mid, *below[m:]))


def uncluster_three_bundled(tree: BundledBucketTree) -> BucketTree:
    if (tree.b, tree.d) != (2, 3):
        raise ValueError("expected a three-bundled tree with bucket size two")
    out = BucketTree(1, _build_up(tree.root, _bundled_children, _three_unbundled_node))
    check_valid(out)
    return out


def _sort_by_min(nodes) -> tuple:
    return tuple(sorted(nodes, key=lambda v: v.labels[0]))


def _two_children(node: BucketNode) -> tuple:
    """The nodes that become node's bundled children: its children after the
    smallest one, then the smallest one's children (the input is canonical)."""
    kids = node.children
    return kids[1:] + kids[0].children if kids else ()


def _two_bundled_node(node: BucketNode, below: list) -> BundledNode:
    kids = node.children
    if not kids:
        return BundledNode(node.labels)
    m = len(kids) - 1
    return BundledNode((node.labels[0], kids[0].labels[0]),
                       (_sort_by_min(below[:m]), _sort_by_min(below[m:])))


def cluster_two_bundled(tree: BucketTree) -> BundledBucketTree:
    """Recursive trees -> two-bundled bucket recursive trees, bijective.

    Both sides are unordered families, so the input must be canonical and
    the bundles come out sorted by smallest label.
    """
    _require_plain(tree)
    if canonicalize(tree).root != tree.root:
        raise ValueError("two-bundled clustering expects the canonical representative")
    return BundledBucketTree(2, 2, _build_up(tree.root, _two_children, _two_bundled_node))


def _two_unbundled_node(node: BundledNode, below: list) -> BucketNode:
    if len(node.labels) == 1:
        return _unbundled_leaf(node)
    b1, b2 = node.bundles
    i = len(b1)
    u = BucketNode((node.labels[1],), _sort_by_min(below[i:]))
    return BucketNode((node.labels[0],), _sort_by_min([u, *below[:i]]))


def uncluster_two_bundled(tree: BundledBucketTree) -> BucketTree:
    if (tree.b, tree.d) != (2, 2):
        raise ValueError("expected a two-bundled tree with bucket size two")
    out = BucketTree(1, _build_up(tree.root, _bundled_children, _two_unbundled_node))
    check_valid(out)
    return out


# ---------------------------------------------------------------------------
# increasing diamonds


@dataclass(frozen=True)
class Diamond:
    """An increasing diamond, stored by its recursive decomposition.

    A size-one diamond is a single inner node.  Anything larger is a
    source label, a sink label, and an ordered sequence of sub-diamonds.
    """

    inner: Optional[int] = None
    source: Optional[int] = None
    sink: Optional[int] = None
    parts: tuple = ()

    def labels(self) -> list[int]:
        if self.inner is not None:
            return [self.inner]
        out = [self.source, self.sink]
        for p in self.parts:
            out.extend(p.labels())
        return out

    @property
    def size(self) -> int:
        return len(self.labels())

    def inner_count(self) -> int:
        if self.inner is not None:
            return 1
        return sum(p.inner_count() for p in self.parts)


def check_diamond(d: Diamond) -> None:
    labels = d.labels()
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in diamond")

    def go(x: Diamond):
        labs = x.labels()
        if x.inner is not None:
            return
        if x.source != min(labs) or x.sink != max(labs):
            raise ValueError(f"source/sink {x.source}/{x.sink} are not the "
                             "extremes of their sub-diamond")
        for p in x.parts:
            go(p)

    go(d)


def inner_node(label: int) -> Diamond:
    return Diamond(inner=label)


def composite(source: int, sink: int, parts=()) -> Diamond:
    d = Diamond(source=source, sink=sink, parts=tuple(parts))
    check_diamond(d)
    return d


# Algorithm: diamond -> increasing-decreasing bilabelled tree.  Buckets are
# raw BucketNodes holding (smallest, largest) of their subtree, or a single
# label for size-one pieces; this intermediate is *not* a valid BucketTree.


def diamond_to_incdec(d: Diamond) -> BucketNode:
    if d.inner is not None:
        return BucketNode((d.inner,))
    return BucketNode((d.source, d.sink), tuple(diamond_to_incdec(p) for p in d.parts))


def incdec_to_diamond(node: BucketNode) -> Diamond:
    if len(node.labels) == 1:
        if node.children:
            raise ValueError("size-one bucket with children")
        return inner_node(node.labels[0])
    return composite(node.labels[0], node.labels[1],
                     tuple(incdec_to_diamond(c) for c in node.children))


def _labels_sorted(node: BucketNode) -> list[int]:
    out = []
    for v in iter_nodes(node):
        out.extend(v.labels)
    return sorted(out)


def _apply_perm(node: BucketNode, perm: dict) -> BucketNode:
    return BucketNode(tuple(sorted(perm[x] for x in node.labels)),
                      tuple(_apply_perm(c, perm) for c in node.children))


def incdec_to_bucket(node: BucketNode) -> BucketNode:
    """Cycle the labels so every bucket holds the two smallest of its subtree."""
    labs = _labels_sorted(node)
    if len(labs) == 1:
        return node
    # pi fixes the smallest label and rotates the rest one step up
    perm = {labs[0]: labs[0], labs[-1]: labs[1]}
    for i in range(1, len(labs) - 1):
        perm[labs[i]] = labs[i + 1]
    permuted = _apply_perm(node, perm)
    return BucketNode(permuted.labels,
                      tuple(incdec_to_bucket(c) for c in permuted.children))


def bucket_to_incdec(node: BucketNode) -> BucketNode:
    labs = _labels_sorted(node)
    if len(labs) == 1:
        return node
    undone = BucketNode(node.labels, tuple(bucket_to_incdec(c) for c in node.children))
    # invert pi: the second-smallest goes to the top, the rest one step down
    perm = {labs[0]: labs[0], labs[1]: labs[-1]}
    for i in range(1, len(labs) - 1):
        perm[labs[i + 1]] = labs[i]
    return _apply_perm(undone, perm)


def diamond_to_bucket(d: Diamond) -> BucketTree:
    check_diamond(d)
    tree = BucketTree(2, incdec_to_bucket(diamond_to_incdec(d)))
    check_valid(tree)
    return tree


def bucket_to_diamond(tree: BucketTree) -> Diamond:
    if tree.b != 2:
        raise ValueError("the diamond bijection needs bucket size two")
    check_valid(tree)
    d = incdec_to_diamond(bucket_to_incdec(tree.root))
    check_diamond(d)
    return d


# ---------------------------------------------------------------------------
# diamond text codec: (v) for inner nodes, <s t>(p1,p2,...) otherwise


def encode_diamond(d: Diamond) -> str:
    if d.inner is not None:
        return f"({d.inner})"
    inside = ",".join(encode_diamond(p) for p in d.parts)
    return f"<{d.source} {d.sink}>({inside})"


def decode_diamond(text: str) -> Diamond:
    d, pos = _parse_diamond(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}")
    check_diamond(d)
    return d


def _parse_diamond(text: str, pos: int):
    def number(p):
        q = p
        while q < len(text) and text[q].isdigit():
            q += 1
        if q == p:
            raise ValueError(f"expected integer at position {p}")
        return int(text[p:q]), q

    if pos < len(text) and text[pos] == "(":
        label, pos = number(pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at position {pos}")
        return inner_node(label), pos + 1
    if pos < len(text) and text[pos] == "<":
        source, pos = number(pos + 1)
        if pos >= len(text) or text[pos] != " ":
            raise ValueError(f"expected ' ' at position {pos}")
        sink, pos = number(pos + 1)
        if pos + 1 >= len(text) or text[pos] != ">" or text[pos + 1] != "(":
            raise ValueError(f"expected '>(' at position {pos}")
        pos += 2
        parts = []
        while pos < len(text) and text[pos] != ")":
            part, pos = _parse_diamond(text, pos)
            parts.append(part)
            if pos < len(text) and text[pos] == ",":
                pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at position {pos}")
        return Diamond(source=source, sink=sink, parts=tuple(parts)), pos + 1
    raise ValueError(f"expected '(' or '<' at position {pos}")
