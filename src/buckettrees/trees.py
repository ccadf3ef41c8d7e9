"""Bucket trees: the core combinatorial objects.

A bucket tree is a rooted ordered tree whose nodes are buckets holding
between 1 and b labels.  Labels increase inside every bucket and along
every root-to-leaf path, and every internal (non-leaf) bucket is full.

A `BucketTree` stores the preorder of its buckets in the form its maker
had.  The tuple form is `labels[i]`, the label tuple of the i-th bucket,
and `degrees[i]`, its number of children; the oracle's lists,
`canonicalize`, the bijections, `from_doc` and `BucketTree(b, root)` make
it.  The array form is three read-only integer arrays: every label in
preorder, each bucket's capacity and each bucket's out-degree.  Only the
grower and `decode` make it, so the grow -> encode -> decode ->
canonicalize -> census pipeline builds no label tuple.  `encode` and the
census read either form as it is.  Tuples never become arrays; an array
tree builds its tuple view on first read and keeps it, for validation,
canonicalization, hashing and the node view, and equality reads the
arrays when both trees hold them.  How the tuple form nests is read by
four helpers only: `_nest` writes it as text, `_fold` folds it children
first, and `_kids` and `_parents` give each bucket's children and parent;
`encode` finds where the array form's subtrees end from the prefix sums
of (degree - 1).  `root`, the same tree as `BucketNode` objects, is a view
built on first use and kept.  No walk recurses, so trees of any depth work.

A tree never changes after it is made, so a tree that has passed
`validate` stays valid: `check_valid` marks it and returns at once the
next time, and trees that are valid by construction come out marked.  In
the same way a tree can know its canonical form: `canonicalize` returns
a known one at once and records one it computes, grown trees and
decoded canonical trees come out marked canonical, and the oracle's tree
lists carry each tree's canonical form.  A pickled copy drops that mark.

CPython's cyclic collector would re-scan every live container many times
over while a big tree is built, and acyclic trees give it nothing to
free, so the bulk builders pause it and put back the state they found,
on error too.

`check_count`, the one rule for every count argument, lives here, in the
lowest module, so every layer makes the same decision with one message.
"""

from __future__ import annotations

import gc
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import wraps
from itertools import chain, islice, product
from math import inf
from operator import itemgetter, lt
from typing import Callable

import numpy as np


def check_count(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """value as an int, if it is an integer in lo..hi (hi=None: no upper bound).

    The one rule for every count argument: a size, a label, a bound, a
    degree, a number of steps or of samples.  numpy integers count; a bool,
    though an int in Python, does not.  Anything else raises ValueError
    naming the argument by `name`, whose last word is its symbol.
    """
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise ValueError(f"{name} must be {span} and an integer, not {name.split()[-1]}={value!r}")


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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class BucketNode:
    """One bucket: a strictly increasing label tuple plus ordered children."""

    labels: tuple[int, ...]
    children: tuple["BucketNode", ...] = ()

    # a subtree is determined by its preorder, which a loop reads at any depth
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(_preorder(self))

    def __reduce__(self):
        return _assemble, _preorder(self)

    def __repr__(self):
        # the dataclass's text, written from the preorder as `_nest` writes a
        # tree, but a one-child tuple closes as ",)": a leaf closes each parent
        # whose last child it ends
        parts = []
        left = []  # [children still to write, children in all] per open bucket
        for labels, d in zip(*_preorder(self)):
            if d:
                parts.append(f"BucketNode(labels={labels!r}, children=(")
                left.append([d, d])
                continue
            parts.append(f"BucketNode(labels={labels!r}, children=())")
            while left:
                left[-1][0] -= 1
                if left[-1][0]:
                    parts.append(", ")
                    break
                parts.append(",))" if left.pop()[1] == 1 else "))")
        return "".join(parts)


def _preorder(root: BucketNode) -> tuple:
    """(labels, degrees) of the buckets of root's subtree, in preorder."""
    labels, degrees, stack = [], [], [root]
    while stack:
        node = stack.pop()
        kids = node.children
        labels.append(node.labels)
        degrees.append(len(kids))
        stack += reversed(kids)
    return tuple(labels), tuple(degrees)


@dataclass(frozen=True, init=False, eq=False, repr=False, slots=True)
class BucketTree:
    """A bucket tree with its capacity bound b, stored as its bucket preorder.

    labels[i] holds the labels of the i-th bucket in preorder and
    degrees[i] is its number of children; size is the label count.  A tree
    made in array form (by the grower or `decode`) holds those arrays in
    _arrays and builds labels and degrees on their first read (see
    `_ArrayTree`); a tree made in tuple form never builds arrays.  Two
    trees are equal, and hash equal, iff their b, labels and degrees are.
    """

    b: int
    labels: tuple
    degrees: tuple
    size: int
    _valid: bool  # known to be valid
    # None (unknown), True (canonical) or the canonical tree, never self
    _canonical: BucketTree | bool | None
    _root: BucketNode | None
    _arrays: tuple | None  # (labels in preorder, capacities, degrees), or None in tuple form

    def __init__(self, b: int, root: BucketNode):
        labels, degrees = _preorder(root)
        _flat_tree(b, labels, degrees, sum(map(len, labels)), root=root, into=self)

    @property
    def root(self) -> BucketNode:
        """The tree as BucketNode objects, built on first use and kept."""
        if self._root is None:
            object.__setattr__(self, "_root", _assemble(self.labels, self.degrees))
        return self._root

    def __eq__(self, other):
        if not isinstance(other, BucketTree):
            return NotImplemented
        if self._arrays is not None and other._arrays is not None:
            return self.b == other.b and all(map(np.array_equal, self._arrays, other._arrays))
        return (self.b, self.labels, self.degrees) == (other.b, other.labels, other.degrees)

    def __hash__(self):
        return hash((self.b, self.labels, self.degrees))

    def __repr__(self):
        return f"BucketTree(b={self.b!r}, labels={self.labels!r}, degrees={self.degrees!r})"

    def __reduce__(self):
        # either form pickles at any depth; the node view is rebuilt on use
        if self._arrays is not None:
            return _array_tree, (self.b, *self._arrays, self._valid)
        return _flat_tree, (self.b, self.labels, self.degrees, self.size, self._valid)


class _ArrayTree(BucketTree):
    """A BucketTree made in array form: its labels and degrees slots stay
    unset until their first read, which builds them.  The lookup hook that
    does so slows every attribute read, so only this class has it, and
    reads on a tree made in tuple form stay plain slot reads."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for a slot not yet set
        if name not in ("labels", "degrees"):
            raise AttributeError(f"'BucketTree' object has no attribute {name!r}")
        flat, caps, degrees = self._arrays
        _put_labels(self, _bucket_labels(flat, caps))
        _put_degrees(self, tuple(degrees.tolist()))
        return getattr(self, name)


@_collector_paused
def _bucket_labels(flat: np.ndarray, caps: np.ndarray) -> tuple:
    """The label tuple of each bucket of a preorder in array form: the
    buckets of capacity k, in order, as k-tuples zipped from k label columns,
    for each k in turn in one list, which one itemgetter puts back in
    preorder over the inverse of the stable sort of the capacities."""
    order = caps.argsort(kind="stable")
    starts = (np.cumsum(caps) - caps)[order]
    rows: list = []
    done = 0
    for k, count in enumerate(np.bincount(caps).tolist()):
        if count:
            first = starts[done:done + count]
            rows += zip(*[flat[first + i].tolist() for i in range(k)])
            done += count
    if len(rows) == 1:
        return tuple(rows)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    return itemgetter(*place.tolist())(rows)


def _flat_tree(b: int, labels: tuple, degrees: tuple, size: int, valid: bool = False,
               root: BucketNode | None = None, into: BucketTree | None = None) -> BucketTree:
    """The BucketTree of a preorder in tuple form whose label count is known.

    valid=True marks it as checked, for a tree that is valid by construction.
    """
    tree = object.__new__(BucketTree) if into is None else into
    _put_b(tree, b)
    _put_labels(tree, labels)
    _put_degrees(tree, degrees)
    _put_size(tree, size)
    _put_valid(tree, valid)
    _put_canonical(tree, None)
    _put_root(tree, root)
    _put_arrays(tree, None)
    return tree


def _array_tree(b: int, flat: np.ndarray, caps: np.ndarray, degrees: np.ndarray,
                valid: bool = False, canonical: bool | None = None) -> BucketTree:
    """The BucketTree of a preorder in array form: flat holds every label in
    preorder, caps each bucket's capacity (at least 1) and degrees its number
    of children.  The arrays become read-only; labels and degrees are left
    unset until read.  valid=True marks the tree as checked and canonical=True
    as canonical, for a tree that is so by construction."""
    for array in (flat, caps, degrees):
        array.flags.writeable = False
    tree = object.__new__(_ArrayTree)
    _put_b(tree, b)
    _put_size(tree, len(flat))
    _put_valid(tree, valid)
    _put_canonical(tree, canonical)
    _put_root(tree, None)
    _put_arrays(tree, (flat, caps, degrees))
    return tree


# the slot setters of a frozen tree's fields, each called by name: a loop over
# them would cost the oracle, which makes thousands of small trees, more time
(_put_b, _put_labels, _put_degrees, _put_size, _put_valid, _put_canonical, _put_root,
 _put_arrays) = (getattr(BucketTree, name).__set__ for name in (
    "b", "labels", "degrees", "size", "_valid", "_canonical", "_root", "_arrays"))


def _mark_canonical(tree: BucketTree, canonical: BucketTree) -> None:
    """Record canonical as the canonical form of the valid tree `tree`."""
    object.__setattr__(tree, "_canonical", True if canonical is tree else canonical)


def _numbered_tree(b: int, held, kids: list, size: int, valid: bool = False) -> BucketTree:
    """The BucketTree of buckets numbered in any order, bucket 0 the root:
    held[v] is the label tuple of bucket v and kids[v] its children in order."""
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += reversed(kids[v])
    return _flat_tree(b, tuple([held[v] for v in order]),
                      tuple([len(kids[v]) for v in order]), size, valid)


def _kids(degrees) -> list:
    """The children of each bucket of a preorder, in order."""
    kids, pending = [], []  # each bucket once per child still to come
    for v, d in enumerate(degrees):
        if pending:
            kids[pending.pop()].append(v)
        kids.append([])
        if d:
            pending += [v] * d
    return kids


def _parents(degrees) -> list:
    """The parent of each bucket of a preorder; the root's is -1."""
    up, pending = [], [-1]  # each bucket once per child still to come
    for v, d in enumerate(degrees):
        up.append(pending.pop())
        if d:
            pending += [v] * d
    return up


def _nest(texts, degrees) -> str:
    """The nested text of a preorder whose buckets write as texts: '(' opens
    a bucket's children, ',' separates siblings and ')' closes the last child."""
    parts = []
    left = []  # children still to write, per bucket whose '(' is open
    for text, d in zip(texts, degrees):
        if d:
            parts.append(text + "(")
            left.append(d)
            continue
        parts.append(text)
        # a leaf ends its parent's subtree when it is the last child, and so on up
        while left:
            left[-1] -= 1
            if left[-1]:
                parts.append(",")
                break
            left.pop()
            parts.append(")")
    return "".join(parts)


class _NotOneTree(ValueError):
    """Degrees that do not describe exactly one tree."""


def _fold(labels, degrees, join: Callable):
    """join(labels[v], the values of v's children in order) at the root, made
    children first: read backwards, a preorder puts each bucket just after its
    children, the first one last, on the stack of finished values.  Raises
    _NotOneTree when the degrees do not describe exactly one tree."""
    done: list = []
    if len(labels) == len(degrees):
        for lab, d in zip(reversed(labels), reversed(degrees)):
            if not 0 <= d <= len(done):
                break
            kids = done[-1:-d - 1:-1]
            del done[len(done) - d:]
            done.append(join(lab, kids))
        else:
            if len(done) == 1:
                return done[0]
    raise _NotOneTree("degrees do not describe one tree")


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


@_collector_paused
def _assemble(labels, degrees) -> BucketNode:
    """The BucketNode view of the tree whose bucket preorder is (labels, degrees)."""
    return _fold(labels, degrees, lambda lab, kids: BucketNode(lab, tuple(kids)))


@_collector_paused
def validate(tree: BucketTree) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    A bound b that is not a count raises the ValueError of `check_count`.

    Violations name the offending bucket by its child-index path from the
    root and come in preorder, a bucket's own before those of its children.
    """
    b = check_count(tree.b, "capacity bound b")
    held, kids = tree.labels, _kids(tree.degrees)
    lows = [min(lab, default=inf) for lab in held]
    violations = []
    for v, (labels, below) in enumerate(zip(held, kids)):
        k = len(labels)
        # increasing labels from 1 up, full if internal, every child's labels above
        if ((k == 1 and labels[0] >= 1
             or 1 < k <= b and labels[0] >= 1 and all(map(lt, labels, labels[1:])))
                and not (below and (k != b or min(map(lows.__getitem__, below)) <= labels[-1]))):
            continue
        # v's path alone (all the paths together are quadratic in a path's depth): in
        # preorder, v lies below the last child that comes at or before it
        path, u = [], 0
        while u != v:
            path.append(bisect_right(kids[u], v) - 1)
            u = kids[u][path[-1]]
        where = "/".join(map(str, path)) or "root"
        violations += [f"{where}: {text}" for bad, text in (
            (not 1 <= k <= b, f"bucket capacity {k} outside 1..{b}"),
            (any(x < 1 for x in labels), "labels must be positive"),
            (not all(map(lt, labels, labels[1:])), "bucket labels not strictly increasing"),
            (below and k != b, f"internal node unsaturated (capacity {k} < {b})")) if bad]
        top = max(labels, default=-inf)
        violations += [f"{where}/{i}: child label {lows[c]} not above parent maximum {top}"
                       for i, c in enumerate(below) if lows[c] <= top]
    all_labels = list(chain.from_iterable(tree.labels))
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


def canonicalize(tree: BucketTree) -> BucketTree:
    """Canonical ordered representative: children sorted by smallest contained label.

    A tree whose canonical form is known, as every grown, every enumerated
    and every decoded canonical one's is, gets it at once; a computed one is
    recorded on the tree.  A canonical tree is returned as it is; any other
    has its preorder rebuilt with each bucket's children in that order.
    """
    known = tree._canonical
    if known is not None:
        return tree if known is True else known
    check_valid(tree)
    labels = tree.labels
    up = _parents(tree.degrees)
    latest = [0] * len(up)  # first label of each bucket's latest child so far
    for lab, p in zip(islice(labels, 1, None), islice(up, 1, None)):
        if lab[0] < latest[p]:
            break
        latest[p] = lab[0]
    else:
        _mark_canonical(tree, tree)
        return tree
    kids: list = [[] for _ in up]
    for v in sorted(range(1, len(up)), key=lambda v: labels[v][0]):
        kids[up[v]].append(v)  # in order of first labels
    # reordering children keeps every invariant, so the result is valid too
    out = _numbered_tree(tree.b, labels, kids, tree.size, True)
    _mark_canonical(out, out)
    _mark_canonical(tree, out)
    return out


def census(tree: BucketTree) -> NodeCensus:
    """The census of a valid tree, counted from its arrays or its tuples, as
    made; an invalid tree raises the ValueError of `check_valid`."""
    check_valid(tree)
    if tree._arrays is None:
        return _census(tree.b, tree.size, [*map(len, tree.labels)], tree.degrees)
    _, caps, degrees = tree._arrays
    return _census(tree.b, tree.size, caps, degrees)


def _census(b: int, n: int, caps, degrees) -> NodeCensus:
    """The census of buckets of the given capacities and out-degrees (arrays
    or sequences), each count filed in the order its key first occurs."""
    caps, degrees = np.asarray(caps, np.intp), np.asarray(degrees, np.intp)
    full = caps >= b
    return NodeCensus(b, n, _tally(caps[~full]), _tally(degrees[full]))


def _tally(keys: np.ndarray) -> dict:
    """The count of each value of the nonnegative keys, in the order it first occurs."""
    counts = np.bincount(keys)
    first = np.full(len(counts), len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    seen = np.flatnonzero(counts)
    seen = seen[first[seen].argsort()]
    return dict(zip(seen.tolist(), counts[seen].tolist()))


# ---------------------------------------------------------------------------
# text codec: {1,2}({3},{4,5})


_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)  # a label of d digits is below _POWERS[d - 1]


def encode(tree: BucketTree) -> str:
    """The text form of a valid tree, written from the form it was made in: a
    tuple tree's buckets by one "{%s,...,%s}" format per bucket size, nested
    by `_nest`; an array tree in a few numpy passes, each label's digits, each
    bucket's '{', '}' and ',', then '(' after an internal bucket and, after a
    leaf, one ')' per subtree it ends and a ',' unless it is the last bucket.
    An invalid tree raises the ValueError of `check_valid`."""
    check_valid(tree)
    if tree._arrays is None:
        labels = tree.labels
        formats = ["{" + ",".join(["%s"] * k) + "}" for k in range(max(map(len, labels)) + 1)]
        return _nest([formats[len(lab)] % lab for lab in labels], tree.degrees)
    flat, caps, degrees = tree._arrays
    k = len(caps)
    internal = degrees > 0
    # subtree ends: with P the prefix sums of (degree - 1), bucket v's subtree
    # ends at the first x >= v where P(x) = P(v - 1) - 1, P falling one at a
    # time; found for the internal buckets, sorted, as only their count per
    # end is needed: each is one ')' after the leaf it ends at
    rises = degrees - 1
    steps = rises.cumsum()
    index = np.arange(k)
    keys = (steps + 1) * k + index
    keys.sort()  # by P, then in preorder
    starts = ((steps - rises) * k + index)[internal]
    starts.sort()
    closes = np.bincount(keys[keys.searchsorted(starts)] % k, minlength=k)
    tail = np.where(internal, 1, closes + 1)  # '(', or the ')'s and the ','
    tail[-1] -= 1  # no ',' after the last bucket
    digits = _POWERS.searchsorted(flat, side="right") + 1
    last = caps.cumsum() - 1  # each bucket's last label
    first = last + 1 - caps
    width = digits + 1  # a label and the ',' or '}' after it
    width[first] += 1  # the bucket's '{'
    width[last] += tail
    past = width.cumsum()
    at = past - width  # where each label's digits start
    at[first] += 1
    out = np.full(int(past[-1]), ord(")"), np.uint8)  # every ')' in place
    out[at[first] - 1] = ord("{")
    stop = at + digits
    out[stop] = ord(",")
    out[stop[last]] = ord("}")
    after = stop[last] + 1
    out[after[internal]] = ord("(")
    out[(after + closes)[~internal][:-1]] = ord(",")
    # the digits, last first: each pass writes one digit of the labels left;
    # a valid tree's labels are at most its size
    values, at = flat.astype(np.int32 if tree.size < 2**31 else np.int64), stop - 1
    while values.size:
        rest = values // 10
        out[at] = (values - 10 * rest).astype(np.uint8) + 48  # 48 is '0'
        more = rest > 0
        values, at = rest[more], at[more] - 1
    return out.tobytes().decode("ascii")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(message, pos)  # both args, so a pickled copy is rebuilt from them
        self.pos = pos

    def __str__(self) -> str:
        return "{} at position {}".format(*self.args)


# the byte classes 0..8: '0', the other digits ('d'), '}', ',', '(', ')', any
# other byte ('x'), '{', and the byte 0xFF, which no ASCII text holds, as the
# mark put at either end of a text ('|'); so the digits are the classes below
# 2, and '{' and the marks, which bound the buckets, the classes from 7 up
_CLASSES = "0d},()x{|"
_CLASS = np.full(256, _CLASSES.index("x"), np.uint16)
_CLASS[np.frombuffer(b"0123456789},(){\xff", np.uint8)] = [0] + [1] * 9 + [2, 3, 4, 5, 7, 8]


def _triples() -> np.ndarray:
    """Whether classes x, y, z may stand side by side, at 81 x + 9 y + z."""
    digit = "0d"
    # a label's digits, then ',' or '}'; a bucket's '}', then '(', ',', ')'
    # or the end; '(' and the ',' before a sibling, then '{'
    after = {"0": "0d,}", "d": "0d,}", "{": "0d", "}": "(,)|", ",": "0d{", "(": "{",
             ")": "),|", "x": "", "|": "{"}
    ok = np.zeros(9 ** 3, bool)
    for (i, x), (j, y), (m, z) in product(enumerate(_CLASSES), repeat=3):
        ok[81 * i + 9 * j + m] = (y in after[x] and z in after[y]
                                  # a ',' lies between two labels or between a bucket and a '{'
                                  and (y != "," or (x in digit) == (z in digit))
                                  # no leading zeros, as encode writes a label: a 0 stands alone
                                  and not (y == "0" and x not in digit and z in digit))
    return ok


_TRIPLES = _triples()
_HORNER_DIGITS = 18  # the longest label read in int64: 10^18 - 1 < 2^63


def _refused(cls: np.ndarray, ok: np.ndarray) -> ParseError:
    """The error of a text the grammar refuses, from its classes cls, marks
    included, and the verdict ok of each class triple: the first refused
    character, with a message read from the class just before it."""
    opened = np.cumsum(cls == 4) - np.cumsum(cls == 5)  # '(' less ')' up to each index
    # a failing triple refuses its last character (the triple before refuses the
    # middle one, and the first character must be '{'), and so do a ')' with no
    # '(' open, the end with one open, and a ',' after a bucket with none open
    refused = np.r_[False, cls[1] != 7, ~ok] | (opened < 0) | (cls == 8) & (opened > 0)
    refused[1:] |= (cls[1:] == 3) & (cls[:-1] > 1) & (opened[1:] == 0)
    i = int(refused.argmax())  # one past the refused character's position
    before = _CLASSES[cls[i - 1]]
    if before in "0d":
        message = "expected '}'"
    elif before in "})":
        message = "expected ')'" if opened[i - 1] > 0 else "trailing input"
    elif before == "{" or before == "," and cls[i - 2] < 2:  # a ',' after a label
        message = "expected integer"
    else:  # '(', the ',' before a sibling, or the start
        message = "expected '{'"
    return ParseError(message, i - 1)


def decode(text: str, b: int) -> BucketTree:
    """Parse the canonical text form and validate the result, in a few array
    passes over its bytes; the tree keeps the label, capacity and degree
    arrays, and a valid canonical tree comes out marked canonical.

    ParseError names the first character the grammar refuses, and the
    first digit of a label past int's digit limit; a bound b that is not a
    count raises the ValueError of `check_count`, and a tree that breaks an
    invariant that of `check_valid`.
    """
    # the text between two marks: an index here is one past its position; a
    # character past ASCII reads as one '?', so a position counts characters
    chars = np.frombuffer(b"\xff" + text.encode("ascii", "replace") + b"\xff", np.uint8)
    cls = _CLASS[chars]
    bounds = (cls >= 7).nonzero()[0]  # the first mark, each '{', the last mark
    buckets = bounds[1:-1]
    digit = cls < 2
    edges = (digit[1:] != digit[:-1]).nonzero()[0]  # just before and at the end of each label
    starts, last = edges[::2] + 1, edges[1::2]  # each label's first and last digit
    opens, closes = (cls == 4).nonzero()[0], (cls == 5).nonzero()[0]
    # a bucket's depth: the '(' before it less the ')' before it
    depth = opens.searchsorted(buckets) - closes.searchsorted(buckets)
    # the grammar refuses a first character other than '{', a triple of classes,
    # unbalanced brackets, or a bucket other than the root outside every bracket
    ok = _TRIPLES[cls[:-2] * 81 + cls[1:-1] * 9 + cls[2:]]
    if (cls[1] != 7 or not ok.all() or len(opens) != len(closes)
            or (depth[1:] < 1).any()):
        raise _refused(cls, ok)
    k, n = len(buckets), len(starts)
    # a bucket's parent is the last earlier bucket one level up
    keys = depth * k + np.arange(k)
    order = np.sort(keys)  # the buckets by depth, then in preorder
    up = order[order.searchsorted(keys[1:] - k) - 1] % k  # of each bucket but the root
    degrees = np.bincount(up, minlength=k)
    first = starts.searchsorted(bounds[1:])  # each bucket's first label, then n
    caps = first[1:] - first[:-1]
    b = check_count(b, "capacity bound b")
    lengths = last + 1 - starts
    width = int(lengths.max())
    if width > _HORNER_DIGITS:
        flat = []
        for i, j in zip(starts.tolist(), last.tolist()):
            try:
                flat.append(int(text[i - 1:j]))
            except ValueError:  # past int's digit limit, if it has one
                raise ParseError("label longer than int's digit limit", i - 1) from None
        flat = np.array(flat, object)
        valid = False  # no tree of n labels has a label of 19 digits
    else:
        flat = chars[last].astype(np.int64) - 48  # Horner from the last digit; 48 is '0'
        for i in range(1, width):
            flat += np.where(lengths > i, chars[last - i].astype(np.int64) - 48, 0) * 10 ** i
        rises = flat[1:] > flat[:-1]
        rises[first[1:-1] - 1] = True  # where one bucket ends and the next begins
        heads = flat[first[:-1]]
        # the invariants validate checks, in bulk: capacities, full internal
        # buckets, increasing buckets, heap order, the label multiset
        valid = bool(caps.max() <= b and (caps[degrees > 0] == b).all()
                     and rises.all() and (flat[first[up + 1] - 1] < heads[1:]).all()
                     and flat.min() == 1 and flat.max() == n
                     and np.count_nonzero(np.bincount(flat)) == n)
    canonical = None
    if valid:
        # each sibling list is a run of the buckets by depth, in order
        below = order[1:] % k
        heads, siblings = heads[below], up[below - 1]
        if ((heads[1:] > heads[:-1]) | (siblings[1:] != siblings[:-1])).all():
            canonical = True
    tree = _array_tree(b, flat, caps, degrees, valid, canonical)
    check_valid(tree)  # an invalid tree raises, its violations named by validate
    return tree


# ---------------------------------------------------------------------------
# structured-document codec (one object per node), for machine interchange


@_collector_paused
def to_doc(tree: BucketTree) -> dict:
    return {"b": tree.b, "root": _fold(tree.labels, tree.degrees, lambda lab, kids: {
        "labels": list(lab), "children": kids})}


def _doc_field(doc, name: str, kind: type, default=None):
    """doc[name], which must be a `kind`; default stands in for a missing field."""
    if type(doc) is not dict:
        raise ValueError(f"tree document: a node must be an object, not {type(doc).__name__}")
    value = doc.get(name, default)
    if type(value) is not kind:
        raise ValueError(f"tree document: field {name!r} must be a {kind.__name__}, "
                         f"not {type(value).__name__}" if name in doc else
                         f"tree document: missing field {name!r}")
    return value


@_collector_paused
def from_doc(doc: dict) -> BucketTree:
    """The validated tree of a document; a missing or ill-typed field
    raises ValueError naming it."""
    b = _doc_field(doc, "b", int)
    labels, degrees, stack = [], [], [_doc_field(doc, "root", dict)]
    while stack:
        node = stack.pop()
        held = _doc_field(node, "labels", list)
        if not all(type(x) is int for x in held):
            raise ValueError(f"tree document: field 'labels' must hold integers, not {held}")
        kids = _doc_field(node, "children", list, [])
        labels.append(tuple(held))
        degrees.append(len(kids))
        stack += reversed(kids)
    tree = _flat_tree(b, tuple(labels), tuple(degrees), sum(map(len, labels)))
    check_valid(tree)
    return tree


# ---------------------------------------------------------------------------
# bundled trees: children partitioned into a fixed number of ordered bundles


@dataclass(frozen=True)
class BundledBucketTree:
    """A bucket tree whose saturated buckets split their children into d
    ordered, possibly empty bundles.

    tree is the plain bucket tree, with b = 2.  cuts holds one (first
    label, bundle sizes) pair per saturated bucket, sorted by label, so two
    bundled trees are equal, and hash equal, iff their trees and bundle
    boundaries are.
    """

    d: int  # bundles per saturated bucket
    tree: BucketTree
    cuts: tuple
