"""The brute-force oracle: totals, measures, and statistic pmfs."""

import math
import pickle
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckettrees import enumeration, families, verify
from buckettrees.dist_desc import pmf_tau, pmf_X, pmf_Y
from buckettrees.dist_k import pmf_K_exact
from buckettrees.enumeration import (EnumerationBoundError, ORDERED_MODEL,
                                     UNORDERED_GROWTH, UNORDERED_MODEL, all_trees,
                                     distinct_unordered, enumerate_trees,
                                     exact_probability, exact_statistic_pmf,
                                     expected_capacity_counts,
                                     growth_history_probability, tree_statistic)
from buckettrees.trees import (BucketNode, BucketTree, _numbered_tree, canonicalize, decode,
                               encode, validate)


def iter_nodes(node):
    """The nodes of node's subtree in preorder."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def test_all_trees_are_valid():
    for n in range(1, 6):
        for tree in all_trees(2, n):
            assert validate(tree) == []


def test_totals_match_closed_form():
    for spec in (families.recursive(2), families.ary(2, 2), families.port(2, 1)):
        for n in range(1, 7):
            assert (enumerate_trees(spec, n).total_weight()
                    == families.total_weight_closed(spec, n))


def test_exact_probability_examples():
    spec = families.recursive(2)
    chain = decode("{1,2}({3,4})", 2)
    fork = decode("{1,2}({3},{4})", 2)
    assert exact_probability(spec, chain, UNORDERED_GROWTH) == Fraction(1, 3)
    assert exact_probability(spec, chain, UNORDERED_MODEL) == Fraction(1, 3)
    assert exact_probability(spec, fork, UNORDERED_MODEL) == Fraction(2, 3)
    assert exact_probability(spec, fork, UNORDERED_GROWTH) == Fraction(2, 3)


def test_ordered_probabilities_sum_to_one():
    for spec in (families.recursive(2), families.port(2, 1)):
        for n in range(1, 6):
            ts = enumerate_trees(spec, n)
            total = ts.total_weight()
            assert sum(w for _, w in ts.items) == total
            probs = [exact_probability(spec, t, "ordered-model") for t, _ in ts.items]
            assert sum(probs) == 1


def test_unordered_probabilities_sum_to_one():
    spec = families.recursive(2)
    for n in range(1, 6):
        reps = distinct_unordered(enumerate_trees(spec, n))
        assert sum(exact_probability(spec, t, UNORDERED_MODEL) for t in reps) == 1


def test_unordered_measure_requires_canonical():
    tree = decode("{1,2}({4},{3})", 2)
    with pytest.raises(ValueError, match="canonical"):
        exact_probability(families.recursive(2), tree, UNORDERED_MODEL)


def test_statistic_pmf_K_example():
    pmf = exact_statistic_pmf(families.recursive(2), 4, "K")
    assert pmf.mass == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_statistic_pmf_argument_checks():
    spec = families.recursive(2)
    with pytest.raises(ValueError):
        exact_statistic_pmf(spec, 4, "Y:5")
    with pytest.raises(ValueError):
        exact_statistic_pmf(spec, 4, "Z:1")
    with pytest.raises(ValueError):
        exact_statistic_pmf(spec, 4, "N:3")
    with pytest.raises(ValueError, match="capacity k must be in 1..2 and an integer, not k=0"):
        exact_statistic_pmf(spec, 4, "N:0")
    with pytest.raises(ValueError, match="label j must be in 1..4 and an integer, not j=0"):
        exact_statistic_pmf(spec, 4, "tau:0")
    # a tree's capacity count refuses the capacities its pmf refuses
    tree = decode("{1,2}({3},{4,5})", 2)
    for k in (0, -1, 3):
        message = rf"capacity k must be in 1\.\.2 and an integer, not k={k}"
        with pytest.raises(ValueError, match=message):
            exact_statistic_pmf(spec, 5, f"N:{k}")
        with pytest.raises(ValueError, match=message):
            tree_statistic(tree, f"N:{k}")


@pytest.mark.parametrize("statistic, message", [
    ("Y", "statistic 'Y': Y needs an integer argument"),
    ("Y:", "statistic 'Y:': Y needs an integer argument"),
    ("X:a", "statistic 'X:a': X needs an integer argument"),
    ("N:1.5", "statistic 'N:1.5': N needs an integer argument"),
    ("tau", "statistic 'tau': tau needs an integer argument"),
    ("K:3", "statistic 'K:3': K takes no argument"),
    ("K:", "statistic 'K:': K takes no argument"),
])
def test_a_malformed_statistic_is_named_in_the_error(statistic, message):
    with pytest.raises(ValueError) as info:
        exact_statistic_pmf(families.recursive(2), 4, statistic)
    assert str(info.value).startswith(message)


def test_capacity_statistic_is_checked_against_b_not_n():
    # a size-2 tree of bound 3 is one unsaturated bucket: no full bucket
    assert exact_statistic_pmf(families.recursive(3), 2, "N:3").mass == {0: 1}
    assert exact_statistic_pmf(families.recursive(3), 2, "N:2").mass == {1: 1}


def test_expected_capacity_counts_sum():
    # sum_k k * E[N_k] = n
    for spec in (families.recursive(2), families.ary(2, 3), families.port(2, 1)):
        for n in range(1, 6):
            counts = expected_capacity_counts(spec, n)
            assert sum(k * v for k, v in counts.items()) == n


def test_enumeration_bound_guard():
    with pytest.raises(EnumerationBoundError):
        all_trees(1, 11)
    with pytest.raises(EnumerationBoundError):
        enumerate_trees(families.recursive(2), 12)
    # the bound is an argument, not a constant
    with pytest.raises(EnumerationBoundError):
        all_trees(1, 4, max_n=3)
    assert len(all_trees(1, 4, max_n=4)) > 0


def _oracle_calls(n):
    spec = families.recursive(2)
    return (lambda: all_trees(2, n), lambda: enumerate_trees(spec, n),
            lambda: expected_capacity_counts(spec, n),
            lambda: exact_statistic_pmf(spec, n, "K"))


@pytest.mark.parametrize("n", [0, -1])
def test_oracle_rejects_n_below_one(n):
    for call in _oracle_calls(n):
        with pytest.raises(ValueError, match="n must be >= 1") as caught:
            call()
        assert not isinstance(caught.value, EnumerationBoundError)


@pytest.mark.parametrize("n", [4.0, "4"])
def test_oracle_rejects_a_non_integer_n(n):
    message = f"n must be >= 1 and an integer, not n={n!r}"
    for call in _oracle_calls(n):
        with pytest.raises(ValueError, match=message) as caught:
            call()
        assert not isinstance(caught.value, EnumerationBoundError)


def test_oracle_takes_a_numpy_integer_n():
    np = pytest.importorskip("numpy")
    for call in _oracle_calls(np.int64(4)):
        call()


def test_enumerate_rejects_linear():
    with pytest.raises(ValueError):
        enumerate_trees(families.linear(2, 1, 0, 1), 3)


def test_total_weight_sums_the_items_as_fractions_do():
    for spec in verify.family_grid():
        for n in range(1, 7):
            ts = enumerate_trees(spec, n)
            assert ts.total_weight() == sum((w for _, w in ts.items), Fraction(0))
            ts.items.pop()  # the total reads the list as it stands
            assert ts.total_weight() == sum((w for _, w in ts.items), Fraction(0)), \
                (spec.describe(), n)
    assert enumeration.WeightedTreeSet(families.recursive(1), 1, []).total_weight() == 0
    # no denominator divides another
    tree = all_trees(1, 1)[0]
    items = [(tree, Fraction(1, 2)), (tree, Fraction(1, 3)), (tree, Fraction(2, 9))]
    assert enumeration.WeightedTreeSet(families.recursive(1), 1, items).total_weight() \
        == Fraction(19, 18)


def _counted_runs(monkeypatch):
    """A list that gets one entry per _Walk.run, with the tally cache emptied."""
    runs = []
    run = enumeration._Walk.run

    def counted(walk, *args, **kwargs):
        runs.append((walk.b, walk.n))
        return run(walk, *args, **kwargs)

    monkeypatch.setattr(enumeration._Walk, "run", counted)
    enumeration._tally.cache_clear()
    return runs


def test_families_with_one_bound_share_one_walk_per_statistic(monkeypatch):
    runs = _counted_runs(monkeypatch)
    for statistic in ("K", "N:2"):
        del runs[:]
        for spec in (families.recursive(2), families.port(2, 1), families.ary(2, 3)):
            exact_statistic_pmf(spec, 6, statistic)
        assert runs == [(2, 6)], statistic
    del runs[:]
    expected_capacity_counts(families.port(2, 3), 6)  # N:2 is cached, N:1 is not
    assert runs == [(2, 6)]
    del runs[:]
    exact_statistic_pmf(families.recursive(1), 6, "K")  # another b is another walk
    assert runs == [(1, 6)]


def test_each_descendant_label_is_its_own_walk(monkeypatch):
    runs = _counted_runs(monkeypatch)
    spec = families.recursive(2)
    for j in (2, 3, 2, 3):
        exact_statistic_pmf(spec, 6, f"Y:{j}")
    assert runs == [(2, 6), (2, 6)]


def test_cached_tallies_give_the_pmfs_of_fresh_walks(monkeypatch):
    cached = {}
    for spec in verify.family_grid():
        for n in range(1, 7):
            for statistic, _ in _statistic_fns(spec.b, n):
                exact_statistic_pmf(spec, n, statistic)  # the second call below is a hit
                cached[spec, n, statistic] = exact_statistic_pmf(spec, n, statistic)
    monkeypatch.setattr(enumeration, "_tally", enumeration._tally.__wrapped__)
    for (spec, n, statistic), pmf in cached.items():
        fresh = exact_statistic_pmf(spec, n, statistic)
        assert list(pmf.mass.items()) == list(fresh.mass.items()), \
            (spec.describe(), n, statistic)


def test_a_cache_hit_checks_its_arguments_first():
    spec = families.recursive(2)
    exact_statistic_pmf(spec, 5, "K")
    exact_statistic_pmf(spec, 5, "Y:2")
    expected_capacity_counts(spec, 5)
    for statistic in ("K", "Y:2"):
        with pytest.raises(EnumerationBoundError):
            exact_statistic_pmf(spec, 5, statistic, max_n=4)
    with pytest.raises(EnumerationBoundError):
        expected_capacity_counts(spec, 5, max_n=4)
    with pytest.raises(ValueError, match="needs a named family, not 'linear'"):
        exact_statistic_pmf(families.linear(2, 1, 0, 1), 5, "K")
    with pytest.raises(ValueError, match="needs a named family, not 'linear'"):
        expected_capacity_counts(families.linear(2, 1, 0, 1), 5)
    with pytest.raises(ValueError, match="statistic 'K:2': K takes no argument"):
        exact_statistic_pmf(spec, 5, "K:2")
    with pytest.raises(ValueError, match="statistic 'Y:2.5': Y needs an integer argument"):
        exact_statistic_pmf(spec, 5, "Y:2.5")


def test_unordered_measure_on_a_deep_path():
    depth = 3000
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    path = BucketTree(1, node)
    spec = families.recursive(1)
    expected = Fraction(1, math.factorial(depth - 1))
    assert exact_probability(spec, path, UNORDERED_MODEL) == expected
    assert exact_probability(spec, path, ORDERED_MODEL) == expected
    # a fork at the bottom of the path whose children are out of order
    node = BucketNode((depth - 2,), (BucketNode((depth,)), BucketNode((depth - 1,))))
    for label in range(depth - 3, 0, -1):
        node = BucketNode((label,), (node,))
    with pytest.raises(ValueError, match="canonical"):
        exact_probability(spec, BucketTree(1, node), UNORDERED_MODEL)



def _quadratic_growth_history(spec, tree):
    """growth_history_probability as it was before it became linear in the
    tree size, kept as the reference for it."""
    def weight(cap, deg):
        if spec.kind == families.LINEAR:
            return families.linear_node_weight(spec, cap, deg)
        return Fraction(families.growth_coeffs(spec).node_weight(cap, deg))

    def total(n, node_count):
        if spec.kind == families.LINEAR:
            return (spec.lin_a * (n - node_count) + spec.lin_beta * (node_count - 1)
                    + spec.lin_m * node_count)
        return Fraction(families.growth_coeffs(spec).total(n))

    holder, parent = {}, {}
    for node in iter_nodes(tree.root):
        for lab in node.labels:
            holder[lab] = node
        for c in node.children:
            parent[c] = node
    prob = Fraction(1)
    for j in range(2, tree.size + 1):
        v = holder[j]
        rank = v.labels.index(j)
        if rank > 0:
            cap, deg = rank, 0
        else:
            cap, deg = tree.b, sum(1 for c in parent[v].children if c.labels[0] < j)
        node_count = len({id(holder[x]) for x in range(1, j)})
        prob *= weight(cap, deg) / total(j - 1, node_count)
    return prob


def _path(b, n):
    """The path whose buckets hold b consecutive labels each."""
    starts = list(range(1, n + 1, b))
    node = BucketNode(tuple(range(starts[-1], n + 1)))
    for s in reversed(starts[:-1]):
        node = BucketNode(tuple(range(s, s + b)), (node,))
    return BucketTree(b, node)


def _star(b, n):
    return BucketTree(b, BucketNode(tuple(range(1, b + 1)),
                                    tuple(BucketNode((j,)) for j in range(b + 1, n + 1))))


_LINEAR_RULES = {1: families.linear(1, 0, 1, 1), 2: families.linear(2, 1, 1, 1),
                 3: families.linear(3, 1, 2, 1)}


def test_growth_history_matches_quadratic_reference():
    for spec in verify.family_grid():
        for n in range(1, 7):
            for tree in distinct_unordered(enumerate_trees(spec, n)):
                for rule in (spec, _LINEAR_RULES[spec.b]):
                    assert (growth_history_probability(rule, tree)
                            == _quadratic_growth_history(rule, tree))
    for b, specs in ((1, [families.recursive(1), families.port(1, 1), _LINEAR_RULES[1]]),
                     (2, [families.recursive(2), families.ary(2, 3), _LINEAR_RULES[2]])):
        for tree in (_path(b, 300), _star(b, 300)):
            for spec in specs:
                assert (growth_history_probability(spec, tree)
                        == _quadratic_growth_history(spec, tree))


def test_growth_history_on_a_deep_path_and_a_wide_star():
    n = 2000
    odd = math.prod(range(1, 2 * n - 2, 2))  # (2n-3)!!
    # recursive: every label joins one of j - 1 equal nodes
    for tree in (_path(1, n), _star(1, n)):
        assert growth_history_probability(families.recursive(1), tree) == \
            Fraction(1, math.factorial(n - 1))
    # port(1, 1): a node of out-degree d weighs d + 1 out of 2(j - 1) - 1
    assert growth_history_probability(families.port(1, 1), _path(1, n)) == Fraction(1, odd)
    assert growth_history_probability(families.port(1, 1), _star(1, n)) == \
        Fraction(math.factorial(n - 1), odd)
    assert exact_probability(families.recursive(1), _star(1, n), UNORDERED_GROWTH) == \
        Fraction(1, math.factorial(n - 1))

# ---------------------------------------------------------------------------
# the per-tree summation the oracle used before it grouped trees by node
# signature, kept as the reference for its weights and sums

def _per_tree_weight(spec, root, phi_cache, psi_cache):
    w = Fraction(1)
    b = spec.b
    for node in iter_nodes(root):
        k = len(node.labels)
        if k == b:
            d = len(node.children)
            if d not in phi_cache:
                phi_cache[d] = families.phi(spec, d)
            w *= phi_cache[d]
        else:
            if k not in psi_cache:
                psi_cache[k] = families.psi(spec, k)
            w *= psi_cache[k]
        if w == 0:
            return w
    return w


def _per_tree_items(spec, n):
    phi_cache, psi_cache, items = {}, {}, []
    for tree in all_trees(spec.b, n):
        w = _per_tree_weight(spec, tree.root, phi_cache, psi_cache)
        if w != 0:
            items.append((tree, w))
    return items


def _per_tree_pmf(items, fn):
    total = sum((w for _, w in items), Fraction(0))
    mass = {}
    for tree, w in items:
        v = fn(tree)
        mass[v] = mass.get(v, Fraction(0)) + w
    return {v: w / total for v, w in mass.items()}


def _per_tree_capacity_counts(spec, items):
    total = sum((w for _, w in items), Fraction(0))
    out = {k: Fraction(0) for k in range(1, spec.b + 1)}
    for tree, w in items:
        for node in iter_nodes(tree.root):
            out[len(node.labels)] += w
    return {k: v / total for k, v in out.items()}


def _statistic_fns(b, n):
    names = ["K"] + [f"N:{k}" for k in range(1, b + 1)]
    for name in ("Y", "X", "tau"):
        names += [f"{name}:{j}" for j in range(1, n + 1)]
    for statistic in names:
        yield statistic, lambda t, statistic=statistic: tree_statistic(t, statistic)


# (kept, all) trees where a (b, d)-ary family gives some trees weight 0
ZERO_WEIGHT_DROPS = {("ary:b=1,d=2", 5): (39, 105), ("ary:b=2,d=2", 6): (53, 77)}


def test_oracle_matches_per_tree_reference():
    for spec in verify.family_grid():
        for n in range(1, 7):
            items = _per_tree_items(spec, n)
            if (spec.describe(), n) in ZERO_WEIGHT_DROPS:
                assert (len(items), len(all_trees(spec.b, n))) == \
                    ZERO_WEIGHT_DROPS[spec.describe(), n]
            got = enumerate_trees(spec, n).items
            assert [(encode(t), w) for t, w in got] == [(encode(t), w) for t, w in items]
            counts = expected_capacity_counts(spec, n)
            want = _per_tree_capacity_counts(spec, items)
            assert list(counts.items()) == list(want.items())
            for statistic, fn in _statistic_fns(spec.b, n):
                mass = exact_statistic_pmf(spec, n, statistic).mass
                assert list(mass.items()) == list(_per_tree_pmf(items, fn).items()), \
                    (spec.describe(), n, statistic)


_NAMED_FAMILIES = st.one_of(
    st.builds(families.recursive, st.integers(1, 8)),
    st.builds(families.ary, st.integers(1, 8), st.integers(2, 6)),
    st.builds(families.port, st.integers(1, 8),
              st.builds(Fraction, st.integers(1, 12), st.integers(1, 5))))


@settings(max_examples=80, deadline=None)
@given(spec=_NAMED_FAMILIES)
def test_oracle_matches_the_closed_forms_over_the_family_space(spec):
    for n in range(1, 7):
        assert enumerate_trees(spec, n).total_weight() == families.total_weight_closed(spec, n)
        assert exact_statistic_pmf(spec, n, "K").mass == pmf_K_exact(spec, n).mass, n
        for j in range(1, n + 1):
            for name, law in (("Y", pmf_Y), ("tau", pmf_tau), ("X", pmf_X)):
                assert (exact_statistic_pmf(spec, n, f"{name}:{j}").mass
                        == law(spec, n, j).mass), (n, name, j)


def _walk_tallies(b, n, ordered):
    """(visits, Counter of (statistic, value, signature) -> trees covered) of one walk
    kind; statistic None tallies the signature alone."""
    visits = 0
    tallies: Counter = Counter()

    def tally(walk, statistic, value, marked):
        def visit(signature, y, count, key):
            nonlocal visits
            visits += statistic is None
            tallies[statistic, value(y), signature] += count
        walk.run(visit, marked=marked, ordered=ordered)

    tally(enumeration._Walk(b, n), None, lambda y: None, 0)
    for statistic, _ in _statistic_fns(b, n):
        name, arg = enumeration._parse_statistic(statistic, b, n)
        walk = enumeration._Walk(b, n)
        tally(walk, statistic, enumeration._reader(walk, name, arg),
              arg if name == "Y" else 0)
    return visits, tallies


@pytest.mark.parametrize("b, top", [(1, 7), (2, 8), (3, 8)])
def test_counted_walk_matches_the_ordered_walk(b, top):
    """Walking each tree once up to sibling order with its count of orderings
    tallies every statistic and signature as the walk over every ordered tree does."""
    for n in range(1, top + 1):
        ordered_visits, ordered = _walk_tallies(b, n, True)
        visits, counted = _walk_tallies(b, n, False)
        assert counted == ordered, (b, n)
        assert ordered_visits == len(all_trees(b, n))
        if b == 1:  # (n-1)! increasing trees stand for (2n-3)!! ordered ones
            assert visits == math.factorial(n - 1)
            assert ordered_visits == math.prod(range(1, 2 * n - 2, 2))


def _unmarked(tree):
    """A copy of tree with no canonical mark: pickling drops it."""
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and copy._canonical is None
    return copy


def test_tree_list_marks_agree_with_a_fresh_canonicalization():
    for b in (1, 2, 3):
        for n in range(1, 8):
            for tree in all_trees(b, n):
                assert tree._canonical is not None and tree._canonical is not tree
                assert canonicalize(tree) == canonicalize(_unmarked(tree)), (b, encode(tree))


def test_distinct_unordered_matches_unmarked_copies_in_order():
    for spec in verify.family_grid():
        for n in range(1, 8):
            ts = enumerate_trees(spec, n)
            want = list(dict.fromkeys(canonicalize(_unmarked(t)) for t, _ in ts.items))
            assert distinct_unordered(ts) == want, (spec.describe(), n)


@pytest.mark.parametrize("b, top", [(1, 7), (2, 8), (3, 8)])
def test_the_counted_walk_visits_the_canonical_trees(b, top):
    """The counted walk visits the canonical member of each class of
    orderings, in the order the ordered walk does, with the class size as
    its count."""
    for n in range(1, top + 1):
        ordered = all_trees(b, n)
        sizes = Counter(map(canonicalize, ordered))
        walk = enumeration._Walk(b, n)
        visited = []

        def visit(signature, y, count, key):
            visited.append((_numbered_tree(b, walk.labels, walk.kids, n), count))

        walk.run(visit)
        assert [t for t, _ in visited] == [t for t in ordered if canonicalize(t) is t], (b, n)
        assert [c for _, c in visited] == [sizes[t] for t, _ in visited], (b, n)


@pytest.mark.parametrize("b", [0, -1, True, False, 2.5, "2", None])
def test_all_trees_refuses_a_bound_that_is_not_a_positive_integer(b):
    message = f"capacity bound b must be >= 1 and an integer, not b={b!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        all_trees(b, 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        families.FamilySpec(families.RECURSIVE, b)


def test_oracle_imports_no_fast_route():
    """The oracle shares no code with the routes it checks."""
    import ast
    import pathlib
    source = pathlib.Path(enumeration.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("buckettrees").lstrip(".")
            names = [base] if base else [alias.name for alias in node.names]
        else:
            continue
        imported |= {name.removeprefix("buckettrees.").split(".")[0] for name in names}
    assert "families" in imported
    assert not imported & {"grow", "dist_k", "dist_desc", "spectral", "urns", "montecarlo"}


# ---------------------------------------------------------------------------
# the oracle as it was before the insertion walk, kept as the reference for
# its tree lists and statistics: trees built from ordered partitions of the
# labels below the root, each statistic found by scanning the built tree


def _ordered_partitions(items):
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


def _relabel(node, labels):
    return BucketNode(tuple(labels[i - 1] for i in node.labels),
                      tuple(_relabel(c, labels) for c in node.children))


@lru_cache(maxsize=None)
def _structures(b, n):
    """All ordered bucket increasing trees on labels 1..n with bound b."""
    if n < 1:
        return ()
    if n <= b:
        return (BucketNode(tuple(range(1, n + 1))),)
    root_labels = tuple(range(1, b + 1))
    rest = tuple(range(b + 1, n + 1))
    out = []
    for blocks in _ordered_partitions(rest):
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


def _bucket_of(root, label):
    """(node, labels in its subtree) for the bucket holding `label`."""
    for node in iter_nodes(root):
        if label in node.labels:
            return node, sum(len(m.labels) for m in iter_nodes(node))
    raise ValueError(f"label {label} not in tree")


def _ref_descendants(tree, j):
    node, sub = _bucket_of(tree.root, j)
    return sub - node.labels.index(j)


def _ref_saturation_time(tree, j):
    node, _ = _bucket_of(tree.root, j)
    return node.labels[-1] if len(node.labels) == tree.b else tree.size


def _reference_statistics(b, n):
    """(name, per-tree statistic) for K, every N:k and every j of Y, X, tau."""
    yield "K", lambda t: len(_bucket_of(t.root, n)[0].labels)
    for k in range(1, b + 1):
        yield f"N:{k}", lambda t, k=k: sum(len(v.labels) == k for v in iter_nodes(t.root))
    for j in range(1, n + 1):
        yield f"Y:{j}", lambda t, j=j: _ref_descendants(t, j)
        yield f"X:{j}", lambda t, j=j: len(_bucket_of(t.root, j)[0].children)
        yield f"tau:{j}", lambda t, j=j: _ref_saturation_time(t, j)


def test_tree_lists_match_the_partition_reference():
    for b in (1, 2, 3):
        for n in range(1, (6 if b == 1 else 7) + 1):
            got = [t.root for t in all_trees(b, n)]
            want = _structures(b, n)
            assert len(set(got)) == len(got), (b, n)  # no duplicates
            assert Counter(got) == Counter(want), (b, n)
            assert all(t.size == n and t.b == b for t in all_trees(b, n))
    for n in range(2, 8):
        assert len(all_trees(1, n)) == math.prod(range(1, 2 * n - 2, 2))  # (2n-3)!!


def test_statistics_match_the_partition_reference():
    for spec in verify.family_grid():
        for n in range(1, (6 if spec.b == 1 else 7) + 1):
            items = []
            for root in _structures(spec.b, n):
                tree = BucketTree(spec.b, root)
                w = families.tree_weight(spec, tree)
                if w:
                    items.append((tree, w))
            assert (expected_capacity_counts(spec, n)
                    == _per_tree_capacity_counts(spec, items)), (spec.describe(), n)
            for statistic, fn in _reference_statistics(spec.b, n):
                assert (exact_statistic_pmf(spec, n, statistic).mass
                        == _per_tree_pmf(items, fn)), (spec.describe(), n, statistic)


def test_tree_statistics_match_the_reference_scan():
    for b, n in ((1, 5), (2, 6), (3, 6)):
        for tree in all_trees(b, n):
            for statistic, fn in _reference_statistics(b, n):
                assert tree_statistic(tree, statistic) == fn(tree), (encode(tree), statistic)
    with pytest.raises(ValueError, match="label j must be in 1..3 and an integer, not j=4"):
        tree_statistic(decode("{1,2}({3})", 2), "Y:4")


@pytest.mark.parametrize("root, violation", [
    (BucketNode((1, 3)), "label multiset is not {1..2}"),
    (BucketNode((1,), (BucketNode((2,)),)), "root: internal node unsaturated (capacity 1 < 2)")])
def test_a_tree_statistic_of_an_invalid_tree_raises_check_valids_error(root, violation):
    with pytest.raises(ValueError, match=re.escape(f"invalid bucket tree: {violation}") + "$"):
        tree_statistic(BucketTree(2, root), "K")


def test_statistic_pmfs_build_no_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the statistic path built a tree")

    monkeypatch.setattr(BucketNode, "__init__", refuse)
    monkeypatch.setattr(BucketTree, "__init__", refuse)
    monkeypatch.setattr(enumeration, "_flat_tree", refuse)
    spec = families.recursive(2)
    for statistic in ("K", "N:1", "Y:3", "X:2", "tau:2"):
        assert exact_statistic_pmf(spec, 6, statistic).total() == 1
    assert sum(k * v for k, v in expected_capacity_counts(spec, 6).items()) == 6
