"""Bucket trees: the core combinatorial objects.

A bucket tree is a rooted ordered tree whose nodes are buckets holding
between 1 and b labels.  Labels increase inside every bucket and along
every root-to-leaf path, and every internal (non-leaf) bucket is full.
All structures here are immutable tuples, so trees can be shared freely
between workers; growth and rewriting always build new trees.

Every walk over a tree (validation, canonicalization, the codecs,
equality and hashing) is a loop over an explicit stack, so trees of any
depth work under the default recursion limit.

A tree is validated at most once.  Nodes are slotted and frozen, their
labels and children are tuples, and a tree is acyclic and never changes
after it is made, so a tree that has passed `validate` stays valid:
`check_valid` records the success on the tree object and returns at once
the next time.  A failure records nothing.  `canonicalize` only reorders
children, which keeps a tree valid, so its result comes out marked.

Building or walking a big tree allocates one container per node, and
CPython's cyclic collector would re-scan every live container many times
over while it does.  Acyclic nodes give it nothing to free, so the bulk
builders and the validation walk run with the collector paused, and put
back the state they found, on error too.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass, field
from functools import wraps
from itertools import repeat
from operator import attrgetter, is_, lt
from typing import Callable, Iterator


def _collector_paused(fn: Callable) -> Callable:
    """fn with CPython's cyclic collector paused while it runs.

    The collector's state is saved and put back in a `finally`, so an
    error, or a caller that had already paused it, leaves it as found.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(frozen=True, eq=False, slots=True)
class BucketNode:
    """One bucket: a strictly increasing label tuple plus ordered children."""

    labels: tuple[int, ...]
    children: tuple["BucketNode", ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        xs, ys = [self], [other]
        while xs:
            x = xs.pop()
            y = ys.pop()
            if x is not y:
                xc = x.children
                yc = y.children
                if x.labels != y.labels or len(xc) != len(yc):
                    return False
                xs += xc
                ys += yc
        return True

    def __hash__(self):
        # the labels and degrees in (mirrored) preorder determine the subtree
        seq, stack = [], [self]
        while stack:
            v = stack.pop()
            seq.append(v.labels)
            seq.append(len(v.children))
            stack.extend(v.children)
        return hash(tuple(seq))


@dataclass(frozen=True)
class BucketTree:
    """A bucket tree together with its capacity bound b."""

    b: int
    root: BucketNode
    size: int = field(init=False)

    # true once the tree is known to be valid: set by check_valid on success,
    # or by _sized_tree for a tree that is valid by construction
    _valid = False

    def __post_init__(self):
        size, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            size += len(node.labels)
            stack += node.children
        object.__setattr__(self, "size", size)

    def __reduce__(self):
        # through the text codec, which is iterative, so any depth pickles; a
        # tree that is not valid may not encode, and pickles field by field
        if self._valid or not validate(self):
            return _unpickle, (encode(self), self.b)
        return BucketTree, (self.b, self.root)


def _sized_tree(b: int, root: BucketNode, size: int, valid: bool = False) -> BucketTree:
    """A BucketTree whose size is already known, made without the size walk.

    valid=True marks it as checked, for a tree that is valid by construction.
    """
    tree = object.__new__(BucketTree)
    tree.__dict__.update(b=b, root=root, size=size, _valid=valid)
    return tree


@dataclass(frozen=True)
class NodeCensus:
    """Counts of unsaturated buckets by capacity and saturated buckets by out-degree."""

    b: int
    n: int
    m: dict  # capacity k in 1..b-1 -> count of unsaturated buckets
    n_deg: dict  # out-degree k >= 0 -> count of saturated buckets

    def node_sum_identity(self) -> bool:
        # n = sum k*m_k + b * sum n_k
        return self.n == sum(k * c for k, c in self.m.items()) + self.b * sum(self.n_deg.values())

    def edge_sum_identity(self) -> bool:
        # 1 = sum m_k - sum (k-1)*n_k
        return 1 == sum(self.m.values()) - sum((k - 1) * c for k, c in self.n_deg.items())


def iter_nodes(node: BucketNode) -> Iterator[BucketNode]:
    """Preorder iteration over all buckets."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def iter_nodes_with_path(node: BucketNode) -> Iterator[tuple[tuple, BucketNode]]:
    """Preorder iteration over all buckets, each with its child-index path."""
    stack = [((), node)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        kids = cur.children
        stack.extend(((*path, i), kids[i]) for i in range(len(kids) - 1, -1, -1))


@_collector_paused
def _build_up(root, children_of: Callable, make: Callable):
    """Fold a tree bottom-up: make(node, [folded children]) for every node, root last.

    Pushing the children in order and popping gives a mirrored preorder,
    whose reverse is the postorder, so each node finds its folded children
    in order on top of the result stack.
    """
    # nodes and degrees go in two lists: a tuple per node would be a
    # garbage-collected allocation that triggers collections over the tree
    order, degrees, stack = [], [], [root]
    while stack:
        node = stack.pop()
        kids = children_of(node)
        order.append(node)
        degrees.append(len(kids))
        stack += kids
    done: list = []
    for node, d in zip(reversed(order), reversed(degrees)):
        if d:
            kids = done[-d:]
            del done[-d:]
        else:
            kids = []
        done.append(make(node, kids))
    return done[0]


@_collector_paused
def _assemble(labels: list, degrees: list) -> BucketNode:
    """The tree whose buckets, listed in the mirrored preorder that
    `_build_up` walks, hold labels[i] and have degrees[i] children: built
    as `_build_up` builds, with no call per node but the constructor's."""
    done: list = []
    for lab, d in zip(reversed(labels), reversed(degrees)):
        if d:
            kids = tuple(done[-d:])
            del done[-d:]
            done.append(BucketNode(lab, kids))
        else:
            done.append(BucketNode(lab))
    return done[0]


_children = attrgetter("children")


def _where(link) -> str:
    """Render a (parent link, child index) chain as the path 'i/j/...' or 'root'."""
    path = []
    while link:
        link, i = link
        path.append(str(i))
    return "/".join(reversed(path)) or "root"


@_collector_paused
def validate(tree: BucketTree) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    Violations name the offending node by its child-index path from the root.
    """
    b = tree.b
    if b < 1:
        return ["capacity bound b must be >= 1"]
    violations = []
    all_labels: list = []
    # each entry carries its node's link (parent link, child index), from
    # which the path is rendered only when a violation is reported
    stack = [(tree.root, ())]
    while stack:
        node, link = stack.pop()
        labels, kids = node.labels, node.children
        k = len(labels)
        all_labels += labels
        where = None
        if not (k == 1 and labels[0] >= 1
                or 1 < k <= b and labels[0] >= 1 and all(map(lt, labels, labels[1:]))):
            where = _where(link)
            if not 1 <= k <= b:
                violations.append(f"{where}: bucket capacity {k} outside 1..{b}")
            if any(x < 1 for x in labels):
                violations.append(f"{where}: labels must be positive")
            if any(x >= y for x, y in zip(labels, labels[1:])):
                violations.append(f"{where}: bucket labels not strictly increasing")
        if not kids:
            continue
        if k != b:
            where = where or _where(link)
            violations.append(f"{where}: internal node unsaturated (capacity {k} < {b})")
        if labels:
            top = max(labels)
            for i, child in enumerate(kids):
                if child.labels and min(child.labels) <= top:
                    where = where or _where(link)
                    violations.append(f"{where}/{i}: child label {min(child.labels)} "
                                      f"not above parent maximum {top}")
        stack.extend(zip(reversed(kids), zip(repeat(link), range(len(kids) - 1, -1, -1))))
    n = len(all_labels)
    if sorted(all_labels) != list(range(1, n + 1)):
        violations.append(f"label multiset is not {{1..{n}}}")
    return violations


def check_valid(tree: BucketTree) -> None:
    """Raise ValueError listing the violations of an invalid tree.

    A tree that passes is marked, and later calls on it return at once.
    """
    if tree._valid:
        return
    violations = validate(tree)
    if violations:
        raise ValueError("invalid bucket tree: " + "; ".join(violations))
    object.__setattr__(tree, "_valid", True)


def min_label(node: BucketNode) -> int:
    # labels increase along paths, so the subtree minimum sits in the root bucket
    return node.labels[0]


def _canon_node(node: BucketNode, kids: list) -> BucketNode:
    kids.sort(key=min_label)
    if all(map(is_, kids, node.children)):
        return node  # already canonical: share the subtree
    return BucketNode(node.labels, tuple(kids))


def canonicalize(tree: BucketTree) -> BucketTree:
    """Canonical ordered representative: children sorted by smallest contained label."""
    check_valid(tree)
    # reordering children keeps every invariant, so the result is valid too
    return _sized_tree(tree.b, _build_up(tree.root, _children, _canon_node), tree.size, True)


def census(tree: BucketTree) -> NodeCensus:
    check_valid(tree)
    b = tree.b
    m: dict = {}
    n_deg: dict = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        k = len(node.labels)
        if k < b:
            m[k] = m.get(k, 0) + 1
        else:
            d = len(node.children)
            n_deg[d] = n_deg.get(d, 0) + 1
        stack.extend(reversed(node.children))  # preorder, so the counts fill in that order
    return NodeCensus(b, tree.size, m, n_deg)


# ---------------------------------------------------------------------------
# text codec: {1,2}({3},{4,5})


def encode(tree: BucketTree) -> str:
    parts = []
    # tails[i] closes the subtree of nodes[i]: ',' before a next sibling,
    # else one ')' per subtree it ends
    nodes, tails = [tree.root], [""]
    while nodes:
        node = nodes.pop()
        tail = tails.pop()
        kids = node.children
        if kids:
            parts.append("{%s}(" % ",".join(map(str, node.labels)))
            nodes += reversed(kids)
            tails.append(")" + tail)
            tails += repeat(",", len(kids) - 1)
        else:
            parts.append("{%s}%s" % (",".join(map(str, node.labels)), tail))
    return "".join(parts)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_BUCKET = re.compile(r"\{(\d+(?:,\d+)*)\}")
_DIGITS = re.compile(r"\d+")


def _bucket_error(text: str, pos: int) -> ParseError:
    """The error for a bucket that does not start cleanly at pos."""
    if not text.startswith("{", pos):
        return ParseError("expected '{'", pos)
    pos += 1
    while True:
        m = _DIGITS.match(text, pos)
        if m is None:
            return ParseError("expected integer", pos)
        pos = m.end()
        if not text.startswith(",", pos):
            return ParseError("expected '}'", pos)
        pos += 1


def decode(text: str, b: int) -> BucketTree:
    """Parse the canonical text form and validate the result."""
    tree = _sized_tree(b, *_parse(text))
    check_valid(tree)
    return tree


def _unpickle(text: str, b: int) -> BucketTree:
    # the text was encoded from a valid tree, so it is not validated again
    return _sized_tree(b, *_parse(text), True)


@_collector_paused
def _parse(text: str) -> tuple:
    """(root, label count) of the canonical text form."""
    end = len(text)
    pos = size = 0
    open_nodes = []  # (labels, children so far) of each node whose '(' is open
    root = None
    while root is None:
        m = _BUCKET.match(text, pos)
        if m is None:
            raise _bucket_error(text, pos)
        labels = tuple(map(int, m.group(1).split(",")))
        size += len(labels)
        pos = m.end()
        if pos < end and text[pos] == "(":
            open_nodes.append((labels, []))
            pos += 1
            continue
        node = BucketNode(labels)
        # attach the finished node, closing every parent it completes
        while open_nodes:
            open_nodes[-1][1].append(node)
            if pos < end and text[pos] == ",":
                pos += 1
                break
            if pos >= end or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            labels, kids = open_nodes.pop()
            node = BucketNode(labels, tuple(kids))
        else:
            root = node
    if pos != end:
        raise ParseError("trailing input", pos)
    return root, size


# ---------------------------------------------------------------------------
# structured-document codec (one object per node), for machine interchange


def to_doc(tree: BucketTree) -> dict:
    return {"b": tree.b, "root": _build_up(tree.root, _children, _node_doc)}


def _node_doc(node: BucketNode, kids: list) -> dict:
    return {"labels": list(node.labels), "children": kids}


def _doc_children(doc: dict) -> list:
    return doc.get("children", [])


def _node_from_doc(doc: dict, kids: list) -> BucketNode:
    return BucketNode(tuple(int(x) for x in doc["labels"]), tuple(kids))


def from_doc(doc: dict) -> BucketTree:
    tree = BucketTree(int(doc["b"]), _build_up(doc["root"], _doc_children, _node_from_doc))
    check_valid(tree)
    return tree


# ---------------------------------------------------------------------------
# bundled trees: children partitioned into a fixed number of ordered bundles


@dataclass(frozen=True)
class BundledBucketTree:
    """A bucket tree whose saturated buckets split their children into d
    ordered, possibly empty bundles.

    root is a plain bucket tree.  cuts holds one (first label, bundle
    sizes) pair per saturated bucket, sorted by label, so two bundled trees
    are equal, and hash equal, iff their trees and bundle boundaries are.
    """

    b: int
    d: int  # bundles per saturated bucket
    root: BucketNode
    cuts: tuple
