"""Exhaustive exact-rational oracle over ordered bucket increasing trees.

Everything here is brute force on purpose: it visits every valid tree of
a given size, weighs it, and derives probabilities and statistic
distributions by direct summation, so the fast closed-form code elsewhere
can be checked against it. The tree lists visit every ordered tree. The
statistic pmfs and expected counts visit each tree once up to sibling
order, counting its prod(deg!) orderings, since every statistic and every
weight is the same on all of them: (n-1)! trees at b = 1 stand for the
(2n-3)!! ordered ones.

Every ordered tree on labels 1..n has exactly one insertion sequence:
label j either joins an unsaturated bucket or opens a new bucket in one of
the deg + 1 child gaps of a saturated one (Bergeron, Flajolet & Salvy
1992). `_Walk` runs depth first over those choices on flat per-bucket
lists, undoing each step on the way back, and calls a visitor at every
complete tree with the number of ordered trees it stands for. The
statistic pmfs read each statistic from that flat state and build no
tree. For the tree lists the walk also keeps the preorder of its bucket
numbers, so each tree is read off at its leaf of the walk in two passes;
the lists are cached per (b, n), and each listed tree carries its
canonical form, the one tree of its class of orderings that the counted
walk visits, so `canonicalize` returns it at once.

A tree's weight is the product of phi(out-degree) over its saturated
buckets and psi(capacity) over its unsaturated ones, so it depends only on
the tree's node signature, the multiset of its (capacity, out-degree)
pairs. The walk keeps the signature as one integer; each call forms one
exact product per signature and sums exact weights once per (value,
signature) pair. A family enters only through those weights, so the
counted walk's tally of (value, signature) -> orderings is cached per
(b, n, statistic name, argument), as the tree lists are per (b, n): each
statistic is walked once per process and key, and every family with that
b weighs the same tally with its own weights, formed per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from . import families
from .families import FamilySpec, phi, psi, total_weight_closed
from .pmf import Pmf
from .trees import (BucketTree, _collector_paused, _flat_tree, _kids, _mark_canonical,
                    canonicalize, check_count, check_valid)

DEFAULT_MAX_N = 10

ORDERED_MODEL = "ordered-model"
UNORDERED_MODEL = "unordered-model"
UNORDERED_GROWTH = "unordered-growth"


class EnumerationBoundError(ValueError):
    pass


def _check_bound(n: int, max_n) -> int:
    """n as an int, checked against the enumeration bound max_n."""
    n = check_count(n, "n")
    bound = DEFAULT_MAX_N if max_n is None else check_count(max_n, "max_n")
    if n > bound:
        raise EnumerationBoundError(
            f"n={n} exceeds the enumeration bound {bound}; pass max_n, or --max-n on "
            "the command line, to override: the tree count, and so the time of every "
            "oracle call and the memory of the tree lists, grows factorially")
    return n


class _Walk:
    """The flat state of a depth-first walk over insertion sequences.

    Buckets are numbered in the order they open, so every child's number is
    above its parent's. `labels[v]` holds bucket v's label tuple, `kids[v]`
    its child buckets in order, `holder[j]` the bucket of label j (index 0
    is unused) and, in an ordered run, `order` the bucket numbers in
    preorder.
    """

    def __init__(self, b: int, n: int):
        self.b, self.n = b, n
        self.labels, self.kids, self.holder, self.order = [(1,)], [[]], [0, 0], [0]

    def run(self, visit, marked: int = 0, ordered: bool = False) -> None:
        """Call visit(signature, y, count, key) at each tree, with the state complete.

        With `ordered`, every ordered tree is visited with count 1 and `order` is
        kept: a new bucket enters it just before the child whose gap it takes, or
        in the last gap just after its parent's last descendant. Otherwise a new
        child of a full bucket of degree d takes only the last of its d + 1 gaps
        and multiplies the count by d + 1, so each tree is visited once up to
        sibling order (children in label order) with its prod(deg!) orderings as
        its count; the signature and every statistic here ignore sibling order.

        The signature is the sum over buckets of (n+1)**(capacity + degree - 1).
        The exponent numbers the (capacity, degree) pairs, since only full
        buckets have children, and no pair occurs n + 1 times, so the
        signature determines the node signature. The key is the sum over
        labels j > 1 of v_j * (n+1)**j, v_j the bucket that j joined or
        opened a child under, so the trees with one key are the orderings of
        one tree. The ordered walk visits the canonical one, whose every new
        child took its parent's last gap, last of them; the counted walk
        visits it alone. y counts the labels from `marked` on in the subtree
        of the bucket that took `marked`, its descendants Y_{n,marked}; it
        stays 0 when marked is 0.
        """
        b, n = self.b, self.n
        if n < 1:
            return
        labels, kids, holder, order = self.labels, self.kids, self.holder, self.order
        power = [(n + 1) ** c for c in range(b + n)]
        single = [(j,) for j in range(n + 1)]
        inside = [marked == 1]  # per bucket: in the subtree of marked's bucket

        def place(j, sig, y, count, key):
            if j > n:
                visit(sig, y, count, key)
                return
            mark = j == marked
            for v in range(len(labels)):
                held = labels[v]
                c = len(held)
                into = mark or inside[v]  # j is a descendant of marked
                k = key + v * power[j]
                if c < b:  # j joins bucket v
                    labels[v] = held + single[j]
                    holder.append(v)
                    inside[v], was = into, inside[v]
                    place(j + 1, sig + power[c] - power[c - 1], y + into, count, k)
                    inside[v] = was
                    holder.pop()
                    labels[v] = held
                    continue
                # j opens bucket u in the child gaps of full bucket v
                gaps = kids[v]
                d = len(gaps)
                u = len(labels)
                labels.append(single[j])
                kids.append([])
                inside.append(into)
                holder.append(u)
                s = sig + power[b + d] - power[b + d - 1] + 1
                if not ordered:
                    gaps.append(u)
                    place(j + 1, s, y + into, count * (d + 1), k)
                    gaps.pop()
                else:
                    w = v  # v's last descendant
                    while kids[w]:
                        w = kids[w][-1]
                    for g, at in enumerate([*map(order.index, gaps), order.index(w) + 1]):
                        gaps.insert(g, u)
                        order.insert(at, u)
                        place(j + 1, s, y + into, count, k)
                        del order[at]
                        del gaps[g]
                holder.pop()
                inside.pop()
                kids.pop()
                labels.pop()

        place(2, 1, int(marked == 1), 1, 0)  # label 1 opened the root bucket

    @classmethod
    def at(cls, tree: BucketTree) -> "_Walk":
        """The state the walk holds at `tree`, buckets numbered in preorder."""
        walk = cls(tree.b, tree.size)
        walk.labels = list(tree.labels)
        walk.kids = _kids(tree.degrees)
        walk.holder = [0] * (tree.size + 1)
        for v, held in enumerate(tree.labels):
            for label in held:
                walk.holder[label] = v
        return walk


def _pairs(signature: int, n: int):
    """(code, count) per (capacity, degree) pair of a walk signature; the
    code is capacity + degree - 1."""
    code = 0
    while signature:
        signature, count = divmod(signature, n + 1)
        if count:
            yield code, count
        code += 1


def _weights(spec: FamilySpec, n: int, signatures) -> dict:
    """The exact weight of each signature.

    Each weight is the product of phi(degree) over saturated buckets and
    psi(capacity) over unsaturated ones, as `families.tree_weight` takes it.
    """
    b = spec.b
    out = {}
    for signature in signatures:
        w = Fraction(1)
        for code, count in _pairs(signature, n):
            w *= (phi(spec, code - b + 1) if code >= b - 1 else psi(spec, code + 1)) ** count
        out[signature] = w
    return out


def _check_oracle(spec: FamilySpec, n: int, max_n) -> int:
    families.require_named(spec)
    return _check_bound(n, max_n)


@lru_cache(maxsize=None)
@_collector_paused
def _trees(b: int, n: int) -> tuple:
    """(trees, signature index per tree, signatures) of every ordered tree
    on labels 1..n with bound b, in the order of the walk, each tree marked
    with its canonical form: the last tree visited with its key."""
    walk = _Walk(b, n)
    held, below, order = walk.labels.__getitem__, walk.kids.__getitem__, walk.order
    trees, keys, of_tree, index = [], [], [], {}

    def visit(signature, y, count, key):
        trees.append(_flat_tree(b, tuple(map(held, order)), tuple(map(len, map(below, order))),
                                n, True))
        keys.append(key)
        of_tree.append(index.setdefault(signature, len(index)))

    walk.run(visit, ordered=True)
    last = dict(zip(keys, trees))
    for tree, key in zip(trees, keys):
        _mark_canonical(tree, last[key])
    return tuple(trees), tuple(of_tree), tuple(index)


def all_trees(b: int, n: int, max_n=None) -> list[BucketTree]:
    b = check_count(b, "capacity bound b")
    return list(_trees(b, _check_bound(n, max_n))[0])


@dataclass
class WeightedTreeSet:
    spec: FamilySpec
    n: int
    items: list  # (BucketTree, Fraction weight), nonzero weights only

    def total_weight(self) -> Fraction:
        """The sum of the weights in `items`, in integers: each numerator
        scaled to the lcm of the distinct denominators, then one division."""
        weights = [w for _, w in self.items]
        dens = [w.denominator for w in weights]
        common = lcm(*set(dens))
        return Fraction(sum(w.numerator * (common // d) for w, d in zip(weights, dens)), common)


@_collector_paused
def enumerate_trees(spec: FamilySpec, n: int, max_n=None) -> WeightedTreeSet:
    """All valid ordered trees of size n with their exact weights (zeros dropped)."""
    n = _check_oracle(spec, n, max_n)
    trees, of_tree, signatures = _trees(spec.b, n)
    weights = list(_weights(spec, n, signatures).values())
    nonzero = [w != 0 for w in weights]  # one test per signature, not per tree
    items = [(tree, weights[s]) for tree, s in zip(trees, of_tree) if nonzero[s]]
    return WeightedTreeSet(spec, n, items)


# ---------------------------------------------------------------------------
# exact probabilities under the three measures


def growth_history_probability(spec: FamilySpec, tree: BucketTree) -> Fraction:
    """Probability that the growth process builds exactly this unordered tree.

    The product over j = 2..n of the attraction probability of the node that
    received label j, evaluated on the restriction to labels < j.
    """
    families.check_tree(spec, tree)
    # (capacity, out-degree) of the node that received each label j > 1
    state = [None] * (tree.size + 1)
    labels = tree.labels
    for held, below in zip(labels, _kids(tree.degrees)):
        for rank in range(1, len(held)):
            state[held[rank]] = (rank, 0)  # the bucket was unsaturated with rank labels
        firsts = sorted(labels[c][0] for c in below)
        for deg, j in enumerate(firsts):
            state[j] = (tree.b, deg)  # the saturated bucket had deg children below j
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


def exact_probability(spec: FamilySpec, tree: BucketTree, measure: str) -> Fraction:
    families.check_tree(spec, tree)
    if measure == ORDERED_MODEL:
        w = families.tree_weight(spec, tree)
        return w / total_weight_closed(spec, tree.size)
    if measure in (UNORDERED_MODEL, UNORDERED_GROWTH):
        if canonicalize(tree) != tree:
            raise ValueError("unordered measures require the canonical ordered representative")
        if measure == UNORDERED_GROWTH:
            return growth_history_probability(spec, tree)
        w = families.tree_weight(spec, tree)
        orderings = prod(map(factorial, tree.degrees))
        return w * orderings / total_weight_closed(spec, tree.size)
    raise ValueError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# statistics, read from the walk's flat state


def _reader(walk: _Walk, name: str, arg: int):
    """The statistic at the walk's current tree, as a function of its Y counter."""
    b, n, labels, kids, holder = walk.b, walk.n, walk.labels, walk.kids, walk.holder
    if name == "K":  # the capacity of the bucket that took label n
        return lambda y: len(labels[holder[n]])
    if name == "N":
        return lambda y: sum(len(held) == arg for held in labels)
    if name == "X":
        return lambda y: len(kids[holder[arg]])
    if name == "tau":
        def tau(y):
            held = labels[holder[arg]]
            return held[-1] if len(held) == b else n  # buckets fill in label order
        return tau
    return lambda y: y


def _parse_statistic(statistic: str, b: int, n: int) -> tuple:
    """(name, argument) of a statistic such as 'K', 'N:k' or 'Y:j'."""
    if not isinstance(statistic, str):
        raise ValueError(f"statistic must be a string such as 'K' or 'Y:3', not {statistic!r}")
    name, colon, arg = statistic.partition(":")
    name = name.strip()
    if name not in ("K", "N", "Y", "X", "tau"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if name == "K" and colon:
        raise ValueError(f"statistic {statistic!r}: K takes no argument")
    if name == "K":
        return name, 0
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(f"statistic {statistic!r}: {name} needs an integer argument, "
                         f"as in {name}:1") from None
    # a capacity k in 1..b for N, else a label j in 1..n
    return name, check_count(value, *(("capacity k", 1, b) if name == "N" else ("label j", 1, n)))


def tree_statistic(tree: BucketTree, statistic: str) -> int:
    """One statistic of one valid tree, named as for `exact_statistic_pmf`,
    read from the state the walk holds at the tree."""
    check_valid(tree)
    name, arg = _parse_statistic(statistic, tree.b, tree.size)
    walk = _Walk.at(tree)
    y = 0
    if name == "Y":  # the labels from arg on in the subtree of arg's bucket
        stack = [walk.holder[arg]]
        while stack:
            v = stack.pop()
            y += sum(label >= arg for label in walk.labels[v])
            stack += walk.kids[v]
    return _reader(walk, name, arg)(y)


@lru_cache(maxsize=None)
def _tally(b: int, n: int, name: str, arg: int) -> tuple:
    """((value, signature), orderings) pairs of one statistic over every tree
    on labels 1..n with bound b, in the order the counted walk first meets
    each pair. No family enters: the same tally serves every b-family."""
    walk = _Walk(b, n)
    value = _reader(walk, name, arg)
    tally: dict = {}

    def visit(signature, y, count, key):
        slot = (value(y), signature)
        tally[slot] = tally.get(slot, 0) + count

    walk.run(visit, marked=arg if name == "Y" else 0)
    return tuple(tally.items())


def exact_statistic_pmf(spec: FamilySpec, n: int, statistic: str, max_n=None) -> Pmf:
    """Exact distribution of a tree statistic by brute-force summation.

    The walk visits every tree once up to sibling order and reads the
    statistic from its flat state; the trees are tallied by (value,
    signature), each with its count of orderings, so the exact weights are
    summed once per pair. The tally holds no weight, so it is cached per
    (b, n, statistic name, argument), a Y:j tally per j; each call checks
    its arguments, then forms its family's weights of the cached tally's
    signatures and sums them. The statistics are invariant under reordering
    of children, so summing ordered-model probabilities gives the
    unordered-model distribution too.
    """
    n = _check_oracle(spec, n, max_n)
    tally = _tally(spec.b, n, *_parse_statistic(statistic, spec.b, n))
    weights = _weights(spec, n, {s for (_, s), _ in tally})
    mass: dict = {}
    for (v, s), count in tally:
        if weights[s]:
            mass[v] = mass.get(v, 0) + count * weights[s]
    total = sum(mass.values())
    return Pmf({v: w / total for v, w in mass.items()}).check()


def expected_capacity_counts(spec: FamilySpec, n: int, max_n=None) -> dict:
    """Exact E[N_{n,k}] for k = 1..b under the random tree model: the means
    of the N:k laws, whose tallies are cached per (b, n, k) and shared by
    every family with that b, as for `exact_statistic_pmf`."""
    return {k: exact_statistic_pmf(spec, n, f"N:{k}", max_n).mean()
            for k in range(1, spec.b + 1)}


def distinct_unordered(ts: WeightedTreeSet) -> list:
    """Canonical representatives present in an ordered tree set (deduplicated),
    in the order each first appears in the set, which callers that pick
    trees by index rely on."""
    seen = {}
    for tree, _ in ts.items:
        c = canonicalize(tree)
        seen[c] = c
    return list(seen.values())
