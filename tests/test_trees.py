"""Tree structure, validation, canonicalization, census, and codecs."""

import gc
import hashlib
import inspect
import pickle
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckettrees import bijections, enumeration, families, grow, trees, verify
from buckettrees.trees import (BucketNode, BucketTree, ParseError,
                               canonicalize, census, check_valid, decode, encode,
                               from_doc, to_doc, validate)


def test_encode_decode_round_trip():
    text = "{1,2}({3,4}({5}),{6})"
    tree = decode(text, 2)
    assert encode(tree) == text
    assert tree.size == 6


def test_decode_single_bucket():
    tree = decode("{1}", 1)
    assert tree.root == BucketNode((1,))
    assert tree.size == 1


# "{²}": str.isdigit accepts superscripts but int() does not; "{١}": int() reads
# Arabic-Indic digits, but a label is ASCII digits so that every text round-trips;
# "{1},{2}" and "{1}({2})),{3}": a bucket outside every bracket, at depth 0 and -1;
# the rest, one per message and the class before the refused character
@pytest.mark.parametrize("bad", ["", "{1}x", "{}", "{1}(", "{1}({2}", "({1})", "{1,}",
                                 "{\u00b2}", "{1\u00b2}", "{\u0661}", "{1}({\u0662})",
                                 "{1},{2}", "{1}({2})),{3}", "{1}}", "{1}({2}}", "{1}({2})(",
                                 "{1,2{", "{1}(,", "{1}({2},)", "{1}({2})x", "\u00e9{1}",
                                 "{1}(\u00e9{2})", "(", "{", "{1x", "{1}({2},{3}", "{1}({2}),",
                                 "{1}(" * 3 + "{2}" + ")" * 4])
def test_decode_rejects_malformed(bad):
    with pytest.raises(ParseError):
        decode(bad, 1)
    assert _outcome(decode, bad, 1) == _outcome(_ref_decode, bad, 1)


def test_decode_validates():
    # structurally parseable but invalid: internal node unsaturated
    with pytest.raises(ValueError, match="internal node unsaturated"):
        decode("{1}({2})", 2)


# encode writes no leading zeros, so a zero-padded label would decode to a
# tree whose text differs from the one read
@pytest.mark.parametrize("text, pos", [("{01}", 2), ("{1}({02})", 6), ("{1,2}({3,04})", 10),
                                       ("{00}", 2)])
def test_decode_refuses_zero_padded_labels(text, pos):
    with pytest.raises(ParseError, match="expected '}'") as info:
        decode(text, 2)
    assert info.value.pos == pos
    assert _outcome(decode, text, 2) == _outcome(_ref_decode, text, 2)


_HUGE = "7" * 4400  # past int's digit limit of 4300
_PAST_THE_DIGIT_LIMIT = [
    ("{" + "1" * 5000 + "}", 1, 1),
    ("{1}({" + "2" * 4301 + "})", 1, 5),
    ("{1,2,3," + _HUGE + "}", 2, 7),
    ("{1," + _HUGE + "}({" + _HUGE + ",8" + _HUGE + "})", 2, 3),  # the first of three
]


@pytest.mark.parametrize("text, b, pos", _PAST_THE_DIGIT_LIMIT)
def test_decode_a_label_past_the_digit_limit_is_a_parse_error(text, b, pos):
    with pytest.raises(ParseError, match="label longer than int.s digit limit") as err:
        decode(text, b)
    assert err.value.pos == pos


@pytest.mark.parametrize("text, b", [(text, b) for text, b, _ in _PAST_THE_DIGIT_LIMIT])
def test_decode_reads_every_label_when_int_has_no_digit_limit(text, b):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        # no tree of n labels has a label of 4301 digits
        with pytest.raises(ValueError, match=r"invalid bucket tree: .*label multiset is not"):
            decode(text, b)
        assert _outcome(decode, text, b) == _outcome(_ref_decode, text, b)
    finally:
        sys.set_int_max_str_digits(limit)


def test_validate_unsaturated_internal():
    tree = BucketTree(2, BucketNode((1,), (BucketNode((2,)),)))
    problems = validate(tree)
    assert any("internal node unsaturated" in p for p in problems)


def test_validate_label_order():
    tree = BucketTree(2, BucketNode((2, 1)))
    assert any("not strictly increasing" in p for p in validate(tree))
    tree = BucketTree(2, BucketNode((1, 4), (BucketNode((2,)),)))
    assert any("not above parent maximum" in p for p in validate(tree))


def test_validate_label_multiset():
    tree = BucketTree(1, BucketNode((1,), (BucketNode((3,)),)))
    assert any("label multiset" in p for p in validate(tree))


def test_validate_accepts_valid():
    assert validate(decode("{1,2}({3},{4,5}({6}))", 2)) == []


def test_canonicalize_sorts_children():
    tree = decode("{1,2}({4},{3})", 2)
    canon = canonicalize(tree)
    assert encode(canon) == "{1,2}({3},{4})"
    # idempotent
    assert canonicalize(canon).root == canon.root


def _unmarked(tree):
    """A copy of tree with no canonical mark: pickling drops it."""
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and copy._canonical is None
    return copy


def test_canonicalize_records_its_answer():
    tree = decode("{1,2}({5},{3,4}({7},{6}))", 2)
    assert tree._canonical is None
    canon = canonicalize(tree)
    assert tree._canonical is canon and canon._canonical is True
    assert canonicalize(tree) is canon and canonicalize(canon) is canon
    # a canonical tree is marked True, never with a reference to itself
    plain = decode("{1,2}({3},{4})", 2)
    assert canonicalize(plain) is plain and plain._canonical is True
    assert _unmarked(tree)._canonical is None and _unmarked(canon)._canonical is None


def test_grown_trees_come_out_marked_canonical():
    for spec in _KINDS + [families.linear(1, 0, -1, 1), families.linear(2, 1, 1, 1)]:
        for n, seed in ((1, 0), (7, 1), (60, 2), (400, 3)):
            tree = grow.sample_tree(spec, n, seed)
            assert tree._canonical is True
            assert canonicalize(tree) is tree
            assert canonicalize(tree) == canonicalize(_unmarked(tree)), spec.describe()


def test_census_counts_and_identities():
    cen = census(decode("{1,2}({3},{4})", 2))
    assert cen.m == {1: 2}
    assert cen.n_deg == {2: 1}
    assert cen.node_sum_identity()
    assert cen.edge_sum_identity()


def test_doc_codec_round_trip():
    tree = decode("{1,2}({3,4}({5}),{6})", 2)
    doc = to_doc(tree)
    assert doc["b"] == 2
    assert from_doc(doc).root == tree.root


def test_kids_lists_children_in_preorder():
    tree = decode("{1,2}({3,4}({5}),{6})", 2)
    assert [held[0] for held in tree.labels] == [1, 3, 5, 6]
    assert trees._kids(tree.degrees) == [[1, 3], [2], [], []]
    assert trees._kids((0,)) == [[]]
    assert trees._kids((3, 0, 1, 0, 0)) == [[1, 2, 4], [], [3], [], []]


def test_the_nesting_helpers_read_one_preorder():
    degrees = (3, 0, 1, 0, 0)  # a root with children 1, 2 and 4; 3 under 2
    names = ("r", "a", "b", "c", "d")
    assert trees._parents(degrees) == [-1, 0, 0, 2, 0]
    assert trees._parents((0,)) == [-1]
    assert trees._nest(names, degrees) == "r(a,b(c),d)"
    assert trees._nest(["x"], (0,)) == "x"
    assert trees._fold(names, degrees, lambda x, kids: x + "".join(kids)) == "rabcd"
    for labels, bad in ((names, (3, 0, 1, 0)), (names, (2, 0, 1, 0, 0)),
                        (names, (4, 0, 1, 0, 0)), (names, (3, 0, -1, 0, 0)), ((), ())):
        with pytest.raises(ValueError, match="do not describe one tree"):
            trees._fold(labels, bad, lambda x, kids: x)


_KINDS = [families.recursive(1), families.recursive(2), families.recursive(3),
          families.ary(2, 2), families.port(2, 1)]


def _decoded_mark(tree):
    """The canonical mark decode gives the text of tree, and the mark it
    should give: True for a canonical tree, None for any other."""
    fresh = _unmarked(tree)
    return decode(encode(tree), tree.b)._canonical, True if canonicalize(fresh) == fresh else None


@pytest.mark.parametrize("b", [1, 2, 3])
def test_decode_marks_exactly_the_canonical_trees(b):
    for n in range(1, 8):
        for tree in enumeration.all_trees(b, n):
            got, want = _decoded_mark(tree)
            assert got is want, encode(tree)


def _shuffled(node, rng):
    """node with each sibling list shuffled, each list with probability 1/2."""
    kids = [_shuffled(child, rng) for child in node.children]
    if rng.random() < 0.5:
        rng.shuffle(kids)
    return BucketNode(node.labels, tuple(kids))


@pytest.mark.parametrize("spec", _KINDS + [families.ary(2, 3), families.port(3, 2)],
                         ids=lambda spec: spec.describe())
def test_decode_marks_shuffled_grown_trees_as_canonicalize_finds_them(spec):
    rng = random.Random(36)
    marks = set()
    for n, seed in ((5, 1), (30, 2), (300, 3), (2000, 4)):
        grown = grow.sample_tree(spec, n, seed)
        for node in (grown.root, _shuffled(grown.root, rng), _shuffled(grown.root, rng)):
            got, want = _decoded_mark(BucketTree(spec.b, node))
            assert got is want, (n, seed)
            marks.add(got)
    assert marks == {True, None}


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_KINDS), n=st.integers(1, 40), seed=st.integers(0, 2 ** 31))
def test_grown_trees_round_trip_both_codecs(spec, n, seed):
    tree = grow.sample_tree(spec, n, seed)
    check_valid(tree)
    assert decode(encode(tree), spec.b).root == tree.root
    assert from_doc(to_doc(tree)).root == tree.root


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(_KINDS), n=st.integers(1, 30), seed=st.integers(0, 2 ** 31))
def test_census_identities_on_random_trees(spec, n, seed):
    cen = census(grow.sample_tree(spec, n, seed))
    assert cen.n == n
    assert cen.node_sum_identity()
    assert cen.edge_sum_identity()


# ---------------------------------------------------------------------------
# deep trees: every walk is iterative

DEPTH = 3000


def _path(depth: int) -> BucketNode:
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    return node


def _path_text(depth: int) -> str:
    return "".join(f"{{{i}}}(" for i in range(1, depth)) + f"{{{depth}}}" + ")" * (depth - 1)


def test_deep_path_through_every_walk():
    tree = BucketTree(1, _path(DEPTH))
    text = _path_text(DEPTH)
    assert tree.size == DEPTH
    assert validate(tree) == []
    assert encode(tree) == text
    back = decode(text, 1)
    assert back == tree and back.root == tree.root
    assert hash(back.root) == hash(tree.root) and hash(back) == hash(tree)
    assert BucketTree(1, _path(DEPTH - 1)).root != tree.root
    assert canonicalize(tree).root == tree.root
    cen = census(tree)
    assert (cen.m, cen.n_deg) == ({}, {0: 1, 1: DEPTH - 1})
    assert from_doc(to_doc(tree)) == tree


def test_deep_path_violation_names_its_path():
    node = BucketNode((DEPTH,), (BucketNode((1,)),))
    for label in range(DEPTH - 1, 0, -1):
        node = BucketNode((label,), (node,))
    where = "/".join(["0"] * (DEPTH - 1))
    assert validate(BucketTree(1, node)) == [
        f"{where}/0: child label 1 not above parent maximum {DEPTH}",
        f"label multiset is not {{1..{DEPTH + 1}}}"]


def test_deep_path_violations_at_both_ends_name_their_paths():
    # the root holds 0 and the bottom bucket (DEPTH, 1): one violation at the
    # top, three at the bottom, the heap one named from the bottom's parent
    labels = ((0,), *((x,) for x in range(2, DEPTH)), (DEPTH, 1))
    tree = trees._flat_tree(1, labels, (1,) * (DEPTH - 1) + (0,), DEPTH + 1)
    bottom = "/".join(["0"] * (DEPTH - 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)  # no walk may recurse
    tracemalloc.start()
    try:
        found = validate(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    # memory linear in the size: every bucket's path would take 36 MB here
    assert peak < 8e6
    assert found == [
        "root: labels must be positive",
        f"{bottom}: child label 1 not above parent maximum {DEPTH - 1}",
        f"{bottom}: bucket capacity 2 outside 1..1",
        f"{bottom}: bucket labels not strictly increasing",
        f"label multiset is not {{1..{DEPTH + 1}}}"]
    assert bottom.count("0") == DEPTH - 1 and tree._root is None


@pytest.mark.parametrize("cut", [1, 5, DEPTH * 3, -DEPTH // 2, -1])
def test_deep_truncated_text_is_a_parse_error(cut):
    text = _path_text(DEPTH)
    with pytest.raises(ParseError):
        decode(text[:cut], 1)


@pytest.mark.parametrize("pos, char", [(DEPTH * 2, "x"), (DEPTH * 4, "("), (DEPTH * 3, ",")])
def test_deep_corrupted_text_is_a_parse_error(pos, char):
    text = _path_text(DEPTH)
    with pytest.raises(ParseError):
        decode(text[:pos] + char + text[pos + 1:], 1)


def test_decoded_size_is_the_label_count(monkeypatch):
    deep = _path_text(DEPTH)

    def refuse(*args):
        raise AssertionError("decode flattened a node tree to size it")

    monkeypatch.setattr(BucketTree, "__init__", refuse)  # decode makes no size walk
    assert decode(deep, 1).size == DEPTH
    assert decode("{1,2}({3,4}({5}),{6})", 2).size == 6
    assert decode(text="{1,2}({3})", b=2).size == 3  # the collector pause keeps the signature


def test_decode_a_deep_path():
    depth = 10 ** 5
    tree = decode(_path_text(depth), 1)
    assert tree.size == depth and tree.labels == tuple((i,) for i in range(1, depth + 1))
    assert tree.degrees == (1,) * (depth - 1) + (0,)
    # depth * buckets reaches 10^10, past int32: the parents' sort keys are int64
    assert tree._canonical is True and canonicalize(tree) is tree


def test_decode_cost_does_not_grow_with_depth():
    # a path and a star of 10^5 labels: depth 10^5 - 1 against depth 1
    n = 10 ** 5
    path = _path_text(n)
    star = "{1}(" + ",".join(f"{{{i}}}" for i in range(2, n + 1)) + ")"
    times = {path: [], star: []}
    for _ in range(3):
        for text in times:
            start = time.perf_counter()
            assert decode(text, 1).size == n
            times[text].append(time.perf_counter() - start)
    assert min(times[path]) <= 2 * min(times[star])


def test_refusing_a_text_costs_no_more_than_decoding_it():
    # a path of 10^5 labels whose last ')' is corrupted: the refused character
    # is found from the classes decode already has, not by a second parse
    n = 10 ** 5
    text = _path_text(n)
    bad = text[:-1] + "x"
    times = {text: [], bad: []}
    for _ in range(3):
        for t in times:
            start = time.perf_counter()
            try:
                decode(t, 1)
            except ParseError as exc:
                assert t is bad and exc.pos == len(text) - 1
            times[t].append(time.perf_counter() - start)
    assert min(times[bad]) <= 2 * min(times[text])


def _ref_encode(tree):
    """The encoder before bucket templates: each bucket's labels joined by ','."""
    parts = []
    left = []
    for labels, d in zip(tree.labels, tree.degrees):
        if d:
            parts.append("{%s}(" % ",".join(map(str, labels)))
            left.append(d)
            continue
        parts.append("{%s}" % ",".join(map(str, labels)))
        while left:
            left[-1] -= 1
            if left[-1]:
                parts.append(",")
                break
            left.pop()
            parts.append(")")
    return "".join(parts)


@pytest.mark.parametrize("spec", verify.family_grid() + [families.linear(2, 1, 1, 1)],
                         ids=lambda s: s.describe())
def test_large_trees_round_trip_without_a_validation_walk(spec, walks):
    tree = grow.sample_tree(spec, 2 * 10 ** 4, 20)
    text = encode(tree)
    assert text == _ref_encode(tree)
    assert decode(text, spec.b) == tree
    assert walks == []


# ---------------------------------------------------------------------------
# one stored form: the bucket preorder, with the nodes as a view


def _same_form(tree):
    assert (tree.labels, tree.degrees) == trees._preorder(tree.root)
    assert tree.size == sum(map(len, tree.labels))


def test_every_producer_stores_the_preorder_of_its_nodes():
    spec = families.recursive(2)
    grown = grow.sample_tree(spec, 300, 4)
    messy = decode("{1,2}({5},{3,4}({7},{6}))", 2)
    produced = [grown, decode(encode(grown), 2), from_doc(to_doc(grown)), messy,
                BucketTree(2, messy.root), canonicalize(messy),
                pickle.loads(pickle.dumps(grown)), pickle.loads(pickle.dumps(messy))]
    produced += enumeration.all_trees(2, 5)
    produced += [t for t, _ in enumeration.enumerate_trees(families.port(1, 1), 5).items]
    for tree in enumeration.all_trees(1, 5):
        produced += [bijections.cluster(tree, 2), bijections.expand_chains(tree)]
    for tree in produced:
        _same_form(tree)
    assert canonicalize(grown) is grown  # a grown tree is canonical already
    assert encode(canonicalize(messy)) == "{1,2}({3,4}({6},{7}),{5})"


def test_the_codec_pipeline_builds_no_node(monkeypatch):
    def refuse(*args):
        raise AssertionError("a BucketNode was built")

    monkeypatch.setattr(BucketNode, "__init__", refuse)
    for spec in _KINDS + [families.linear(1, 0, -1, 1)]:
        tree = grow.sample_tree(spec, 400, 2)
        cen = census(canonicalize(decode(encode(tree), spec.b)))
        assert cen.n == 400 and cen.node_sum_identity()
    assert census(canonicalize(decode("{1,2}({4},{3})", 2))).m == {1: 2}


# one rule per selection path of the grower: label picks, pre-drawn and live
# block picks, slot picks and weight groups (the path rule among them)
_PATHS = _KINDS + [families.linear(2, 1, 1, 1), families.linear(3, -1, 1, 3),
                   families.linear(1, 0, -1, 1)]


def test_the_timed_pipeline_builds_no_label_tuple(monkeypatch):
    def refuse(*args):
        raise AssertionError("a label tuple was built")

    monkeypatch.setattr(trees, "_bucket_labels", refuse)
    for spec in _PATHS:
        tree = grow.sample_tree(spec, 400, 2)
        back = decode(encode(tree), spec.b)
        cen = census(canonicalize(back))
        assert cen.n == 400 and cen.node_sum_identity()
        assert back == tree and not _tuples_built(tree) and not _tuples_built(back)


@pytest.mark.parametrize("root", [BucketNode((3, 1)), BucketNode(())])
def test_encode_refuses_an_invalid_tree(root):
    # a decreasing bucket and an empty one: decode refuses both texts too
    with pytest.raises(ValueError, match="invalid bucket tree"):
        encode(BucketTree(2, root))


def _tuples_built(tree):
    """Whether tree holds its label and degree tuples, read past their lazy build."""
    try:
        BucketTree.labels.__get__(tree)
    except AttributeError:
        return False
    return True


def _ref_build(grower):
    """The grown tree in tuple form, from per-bucket label and child lists."""
    parent = grower.arrays()[0].tolist()
    held = [[] for _ in parent]
    for label, v in enumerate(grower.label_nodes().tolist(), start=1):
        held[v].append(label)
    kids = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)
    return trees._numbered_tree(grower.b, list(map(tuple, held)), kids, grower.size)


def _ref_census(tree):
    """The census counted over the tuple form, each key where it first occurs."""
    caps = list(map(len, tree.labels))
    return trees.NodeCensus(tree.b, tree.size, dict(Counter(k for k in caps if k < tree.b)),
                            dict(Counter(d for k, d in zip(caps, tree.degrees) if k >= tree.b)))


def _forms_agree(flat, tupled):
    """Array-form trees flat and tuple-form trees tupled of one tree: the
    same text and census, key order included, from either form, and equal,
    hash-equal trees and twins."""
    text, cen = _ref_encode(tupled[0]), repr(_ref_census(tupled[0]))
    for tree in flat:
        assert not _tuples_built(tree)
        assert encode(tree) == text and repr(census(tree)) == cen
        assert tree == flat[0] and not _tuples_built(tree)  # compared as arrays
    for tree in tupled:
        assert tree._arrays is None
        assert encode(tree) == text and repr(census(tree)) == cen
    for tree in flat + tupled:
        twin = from_doc(to_doc(tree))
        assert twin._arrays is None
        assert tree == twin == tupled[0] and hash(tree) == hash(twin) == hash(tupled[0])


@pytest.mark.parametrize("spec", verify.family_grid() + [families.linear(2, 1, 1, 1),
                                                          families.linear(3, -1, 1, 3)],
                         ids=lambda s: s.describe())
def test_array_and_tuple_forms_agree_on_grown_trees(spec):
    for n in (1, 2, 10, 10 ** 3, 2 * 10 ** 4):
        grower = grow._grown(spec, n, n)
        reference = _ref_build(grower)
        text = _ref_encode(reference)
        _forms_agree([grower.build(), decode(text, spec.b)], [reference, _ref_decode(text, spec.b)])


@pytest.mark.parametrize("b", [1, 2, 3])
def test_array_and_tuple_forms_agree_on_every_small_tree(b):
    for n in range(1, 7):
        for tree in enumeration.all_trees(b, n):
            # a fresh tuple-form copy with no check or view memoised; the cached
            # list's trees are tuple trees too, and a tuple tree never gains arrays
            fresh = trees._flat_tree(b, tree.labels, tree.degrees, tree.size)
            _forms_agree([decode(_ref_encode(tree), b)], [fresh])


def test_a_deep_array_tree_pickles_without_its_view():
    tree = grow.sample_tree(families.linear(1, 0, -1, 1), DEPTH, 0)
    back = pickle.loads(pickle.dumps(tree))
    assert back._valid and back._arrays is not None
    assert not any(array.flags.writeable for array in back._arrays)
    assert back == tree and encode(back) == encode(tree)
    assert not _tuples_built(tree) and not _tuples_built(back)
    assert back.degrees == (1,) * (DEPTH - 1) + (0,)


@pytest.mark.parametrize("b, n", [(1, DEPTH), (2, 10 ** 4)])
def test_a_deep_path_through_every_flat_operation_and_the_nodes(b, n):
    """A path of n labels, b per bucket: every flat operation, and the
    node view, at depth n / b."""
    buckets = [tuple(range(i, i + b)) for i in range(1, n + 1, b)]
    node = BucketNode(buckets[-1])
    for held in reversed(buckets[:-1]):
        node = BucketNode(held, (node,))
    tree = BucketTree(b, node)
    text = "".join("{%s}(" % ",".join(map(str, h)) for h in buckets[:-1])
    text += "{%s}" % ",".join(map(str, buckets[-1])) + ")" * (len(buckets) - 1)
    assert validate(tree) == [] and encode(tree) == text
    back = decode(text, b)
    assert back == tree and hash(back) == hash(tree) and back.size == n
    assert canonicalize(back) is back
    assert census(back).n_deg == {0: 1, 1: len(buckets) - 1}
    assert pickle.loads(pickle.dumps(back)) == tree
    assert from_doc(to_doc(back)) == tree
    assert back.root == node and trees._preorder(back.root) == (back.labels, back.degrees)
    spec = families.recursive(b)
    assert (families.tree_weight(spec, back)
            == families.phi(spec, 1) ** (len(buckets) - 1) * families.phi(spec, 0))
    assert enumeration.tree_statistic(back, "Y:1") == n
    assert enumeration.tree_statistic(back, f"X:{n}") == 0
    chains = bijections.expand_chains(back)
    assert chains.size == n and bijections.cluster(chains, b) == back if b > 1 else chains == back


def _tuple_makers():
    """(maker, tree) for a tree in tuple form from each maker but the grower and decode."""
    grown = grow.sample_tree(families.recursive(2), 200, 7)
    kids, rng = trees._kids(grown.degrees), random.Random(7)
    for below in kids:
        rng.shuffle(below)
    shuffled = trees._numbered_tree(2, grown.labels, kids, grown.size)
    assert shuffled != grown
    yield from (("oracle list", tree) for tree in enumeration.all_trees(2, 5))
    yield "canonicalize", canonicalize(shuffled)
    yield "from_doc", from_doc(to_doc(grown))
    yield "BucketTree(b, root)", BucketTree(2, grown.root)
    yield "cluster", bijections.cluster(grow.sample_tree(families.recursive(1), 200, 7), 3)
    yield "expand_chains", bijections.expand_chains(grown)


def test_a_tuple_tree_is_encoded_and_counted_from_its_tuples():
    for maker, tree in _tuple_makers():
        assert tree._arrays is None, maker
        assert encode(tree) == _ref_encode(tree), maker
        assert repr(census(tree)) == repr(_ref_census(tree)), maker
        assert tree._arrays is None, maker


def test_the_tuple_form_of_a_big_grown_tree_encodes_to_its_text():
    grown = grow.sample_tree(families.port(3, 2), 10 ** 4, 3)
    tupled = trees._flat_tree(3, grown.labels, grown.degrees, grown.size)
    assert encode(tupled) == encode(grown)
    assert repr(census(tupled)) == repr(census(grown))
    assert tupled._arrays is None


def test_a_deep_tuple_path_encodes_without_recursion():
    tree = BucketTree(1, _path(DEPTH))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)  # no walk may recurse
    try:
        text, cen = encode(tree), census(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert text == _path_text(DEPTH) and cen.n_deg == {1: DEPTH - 1, 0: 1}
    assert tree._arrays is None


# sha256 over n = 1, 10, 10^3, 5*10^4 (seed n) of each grown tree's codec
# string and census, as the node-based trees of the previous release gave them;
# the ary rules with d >= 3 were recorded again when they moved from half
# blocks to slot picks, whose seeded trees differ
_RECORDED = {
    "recursive:b=1": "19a22d3a6ee44677",
    "recursive:b=2": "86145683995c0ed6",
    "recursive:b=3": "f59b010aa6944f15",
    "ary:b=1,d=2": "1b13b54c424f0b26",
    "ary:b=1,d=3": "0f43257ffe6724de",
    "ary:b=2,d=2": "2252601ee4b43e96",
    "ary:b=2,d=3": "c92ae3a9944accb7",
    "port:b=1,alpha=1": "59580ff4d4cc5230",
    "port:b=1,alpha=2": "b4bfdb0ed06e3732",
    "port:b=2,alpha=1": "a6feea65d5454409",
    "port:b=2,alpha=2": "24a54660e6a33d78",
    "linear:b=2,a=1,beta=1,m=1": "586756269e536b22",
    "linear:b=3,a=-1,beta=1,m=3": "4ed43cca726dd8b7",
}


@pytest.mark.parametrize("spec", verify.family_grid() + [families.linear(2, 1, 1, 1),
                                                          families.linear(3, -1, 1, 3)],
                         ids=lambda s: s.describe())
def test_seeded_trees_and_censuses_match_recorded_values(spec):
    h = hashlib.sha256()
    for n in (1, 10, 10 ** 3, 5 * 10 ** 4):
        tree = grow.sample_tree(spec, n, n)
        cen = census(tree)
        h.update(encode(tree).encode())
        h.update(repr((cen.m, cen.n_deg)).encode())
    assert h.hexdigest()[:16] == _RECORDED[spec.describe()]


@pytest.mark.parametrize("doc, field", [
    ({"b": 1}, "'root'"),
    ({"root": {"labels": [1]}}, "'b'"),
    ({"b": "1", "root": {"labels": [1]}}, "'b'"),
    ({"b": 1, "root": {"children": []}}, "'labels'"),
    ({"b": 1, "root": {"labels": 1}}, "'labels'"),
    ({"b": 1, "root": {"labels": [1, None]}}, "'labels'"),
    ({"b": 1, "root": {"labels": [1], "children": 5}}, "'children'"),
    ({"b": 1, "root": {"labels": [1], "children": [5]}}, "a node must be an object"),
    ([], "a node must be an object"),
    # a field present as null is ill-typed, not missing
    ({"b": None, "root": {"labels": [1]}}, "field 'b' must be a int, not NoneType"),
    ({"b": 1, "root": None}, "field 'root' must be a dict, not NoneType"),
    ({"b": 1, "root": {"labels": None}}, "field 'labels' must be a list, not NoneType"),
    ({"b": 1, "root": {"labels": [1], "children": None}},
     "field 'children' must be a list, not NoneType"),
])
def test_a_malformed_document_is_a_value_error_naming_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        from_doc(doc)


# ---------------------------------------------------------------------------
# a tree is validated once; the collector is paused only while trees are built


@pytest.fixture
def walks(monkeypatch):
    """The trees given to the validation walk since the fixture was set up."""
    calls = []
    walk = trees.validate

    def counted(tree):
        calls.append(tree)
        return walk(tree)

    monkeypatch.setattr(trees, "validate", counted)
    return calls


def test_decode_canonicalize_census_validates_once(walks):
    text = encode(grow.sample_tree(families.recursive(2), 300, 5))
    cen = census(canonicalize(decode(text, 2)))
    assert cen.n == 300
    assert len(walks) == 0  # decode checks the invariants in its own pass


def test_hand_built_tree_is_validated_on_first_census(walks):
    tree = BucketTree(2, BucketNode((1, 2), (BucketNode((4,)), BucketNode((3,)))))
    census(tree)
    assert walks == [tree]
    census(tree)
    canonicalize(tree)
    assert walks == [tree]
    # public validate() always walks
    assert trees.validate(tree) == []
    assert len(walks) == 2


def test_invalid_tree_raises_on_every_call(walks):
    tree = BucketTree(2, BucketNode((1,), (BucketNode((2,)),)))
    for fn in (check_valid, check_valid, canonicalize, canonicalize, census, census):
        with pytest.raises(ValueError, match="internal node unsaturated"):
            fn(tree)
    assert len(walks) == 6


def _parse_error():
    with pytest.raises(ParseError):
        decode("{1}({2}", 1)


def _invalid_canonicalize():
    with pytest.raises(ValueError):
        canonicalize(BucketTree(1, BucketNode((2,), (BucketNode((1,)),))))


def _sample():
    grow.sample_tree(families.port(2, 1), 200, 3)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", [_parse_error, _invalid_canonicalize, _sample])
def test_collector_state_is_restored(case, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        case()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_bulk_builds_and_the_validation_walk_pause_the_collector():
    """With a threshold of 50 allocations, each of these would start the
    collector many times over if it ran with the collector on."""
    grower = grow._grown(families.recursive(2), 2000, 1)
    text = encode(grower.build())
    tree = decode(text, 2)
    calls = [(grower.build,), (decode, text, 2), (validate, tree),
             (trees._assemble, tree.labels, tree.degrees), (from_doc, to_doc(tree)),
             (to_doc, tree),
             (enumeration._trees.__wrapped__, 1, 5),
             (enumeration.enumerate_trees, families.port(1, 1), 6)]
    enumeration._trees(1, 6)  # warm, so the call builds the weighted items alone
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info)

    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    gc.set_threshold(50)
    try:
        for fn, *args in calls:
            gc.collect()  # the count of allocations restarts from 0
            del starts[:]
            fn(*args)
            # read before anything allocates: the first allocation after the
            # collector is put back starts it, since the count kept rising
            during = len(starts)
            assert during == 0, fn.__qualname__
            assert gc.isenabled()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)


def test_nodes_are_slotted_and_frozen():
    node = decode("{1,2}({3,4}({5}),{6})", 2).root
    assert not hasattr(node, "__dict__")
    with pytest.raises(FrozenInstanceError):
        node.labels = (7,)
    back = pickle.loads(pickle.dumps(node))
    assert back == node and hash(back) == hash(node)
    deep, again = _path(DEPTH), _path(DEPTH)
    assert deep == again and hash(deep) == hash(again)
    assert deep != _path(DEPTH - 1)


def test_a_deep_node_pickles():
    node = _path(DEPTH)
    back = pickle.loads(pickle.dumps(node))
    assert back == node and back is not node
    assert back.children[0].children[0].labels == (3,)


def test_node_repr_is_the_dataclass_text_at_any_depth():
    node = decode("{1,2}({3,4}({5}),{6})", 2).root
    assert repr(node) == ("BucketNode(labels=(1, 2), children=("
                          "BucketNode(labels=(3, 4), children=("
                          "BucketNode(labels=(5,), children=()),)), "
                          "BucketNode(labels=(6,), children=())))")
    assert eval(repr(node)) == node
    text = repr(BucketTree(1, _path(DEPTH)).root)
    assert text.startswith("BucketNode(labels=(1,), children=(BucketNode(labels=(2,), ")
    assert text.endswith("BucketNode(labels=(3000,), children=())" + ",))" * (DEPTH - 1))


def test_deep_tree_pickles():
    tree = grow.sample_tree(families.linear(1, 0, -1, 1), DEPTH, 0)
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree and back.size == DEPTH and back._valid
    hand_built = BucketTree(1, _path(DEPTH))  # valid, not yet validated
    assert pickle.loads(pickle.dumps(hand_built)) == hand_built


def test_invalid_tree_pickles_as_it_is():
    for root in (BucketNode((2, 1)), BucketNode(())):
        tree = BucketTree(2, root)
        back = pickle.loads(pickle.dumps(tree))
        assert back == tree and validate(back)


# ---------------------------------------------------------------------------
# equivalence with the recursive walks these replaced, kept as references


def _ref_iter_nodes_with_path(node, path=()):
    yield path, node
    for i, c in enumerate(node.children):
        yield from _ref_iter_nodes_with_path(c, path + (i,))


def _ref_validate(tree):
    violations = []
    b = tree.b
    if b < 1:
        raise ValueError(f"capacity bound b must be >= 1 and an integer, not b={b}")
    all_labels = []
    for path, node in _ref_iter_nodes_with_path(tree.root):
        where = "/".join(map(str, path)) or "root"
        k = len(node.labels)
        if not 1 <= k <= b:
            violations.append(f"{where}: bucket capacity {k} outside 1..{b}")
        if any(x < 1 for x in node.labels):
            violations.append(f"{where}: labels must be positive")
        if any(x >= y for x, y in zip(node.labels, node.labels[1:])):
            violations.append(f"{where}: bucket labels not strictly increasing")
        if node.children and k != b:
            violations.append(f"{where}: internal node unsaturated (capacity {k} < {b})")
        for i, child in enumerate(node.children):
            if child.labels and node.labels and min(child.labels) <= max(node.labels):
                violations.append(f"{where}/{i}: child label {min(child.labels)} "
                                  f"not above parent maximum {max(node.labels)}")
        all_labels.extend(node.labels)
    n = len(all_labels)
    if sorted(all_labels) != list(range(1, n + 1)):
        violations.append(f"label multiset is not {{1..{n}}}")
    return violations


def _ref_parse_int(text, pos):
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
        if text[start] == "0":  # a label has no leading zeros: a 0 stands alone
            break
    if pos == start:
        raise ParseError("expected integer", pos)
    return int(text[start:pos]), pos


def _ref_parse_node(text, pos):
    if pos >= len(text) or text[pos] != "{":
        raise ParseError("expected '{'", pos)
    pos += 1
    labels = []
    while True:
        value, pos = _ref_parse_int(text, pos)
        labels.append(value)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        break
    if pos >= len(text) or text[pos] != "}":
        raise ParseError("expected '}'", pos)
    pos += 1
    children = []
    if pos < len(text) and text[pos] == "(":
        pos += 1
        while True:
            child, pos = _ref_parse_node(text, pos)
            children.append(child)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(text) or text[pos] != ")":
            raise ParseError("expected ')'", pos)
        pos += 1
    return BucketNode(tuple(labels), tuple(children)), pos


def _ref_decode(text, b):
    node, pos = _ref_parse_node(text, 0)
    if pos != len(text):
        raise ParseError("trailing input", pos)
    tree = BucketTree(b, node)
    check_valid(tree)
    return tree


def _outcome(fn, *args):
    try:
        return "tree", fn(*args).root
    except ParseError as exc:
        return "parse", str(exc), exc.pos
    except ValueError as exc:
        return "invalid", str(exc)


def _mutable(node):
    return [list(node.labels), [_mutable(c) for c in node.children]]


def _frozen(node):
    return BucketNode(tuple(node[0]), tuple(_frozen(c) for c in node[1]))


def _preorder(node):
    out = [node]
    for c in node[1]:
        out.extend(_preorder(c))
    return out


_MUTATIONS = ("swap", "drop", "add", "set", "move")


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(_KINDS), n=st.integers(1, 30), seed=st.integers(0, 2 ** 31),
       data=st.data())
def test_validate_matches_recursive_reference(spec, n, seed, data):
    root = _mutable(grow.sample_tree(spec, n, seed).root)
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = _preorder(root)
        pick = st.integers(0, len(nodes) - 1)
        node = nodes[data.draw(pick)]
        kind = data.draw(st.sampled_from(_MUTATIONS))
        if kind == "swap":  # swapped labels, across buckets or inside one
            other = nodes[data.draw(pick)]
            if node[0] and other[0]:
                i = data.draw(st.integers(0, len(node[0]) - 1))
                j = data.draw(st.integers(0, len(other[0]) - 1))
                node[0][i], other[0][j] = other[0][j], node[0][i]
        elif kind == "drop" and node[0]:  # unsaturated internal node or empty bucket
            node[0].pop(data.draw(st.integers(0, len(node[0]) - 1)))
        elif kind == "add":  # capacity above b, duplicate or out-of-range label
            node[0].append(data.draw(st.integers(-1, n + 2)))
        elif kind == "set" and node[0]:  # nonpositive or reused label
            node[0][data.draw(st.integers(0, len(node[0]) - 1))] = data.draw(st.integers(-1, n))
        elif kind == "move" and len(nodes) > 1:  # a subtree moved under another bucket
            child = nodes[data.draw(st.integers(1, len(nodes) - 1))]
            if not any(v is node for v in _preorder(child)):
                holder = next(v for v in nodes if any(c is child for c in v[1]))
                holder[1][:] = [c for c in holder[1] if c is not child]
                node[1].insert(data.draw(st.integers(0, len(node[1]))), child)
    b = data.draw(st.sampled_from([spec.b, spec.b, spec.b, spec.b + 1, spec.b - 1]))
    tree = BucketTree(b, _frozen(root))
    try:
        expected = _ref_validate(tree)
    except ValueError as exc:  # a bound b below 1 is refused before any invariant
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            validate(tree)
    else:
        assert validate(tree) == expected


@pytest.mark.parametrize("text, b", [
    ("{2,1}", 2), ("{1,2}", 1), ("{1,2}({3})", 3), ("{2}({1})", 1), ("{1}({3})", 1),
    ("{1}({1})", 1), ("{1,2}({3,4}({6}),{3})", 2), ("{0}({1})", 1), ("{1}", 0),
    ("{1}({" + "9" * 19 + "})", 1), ("{1,2}({3," + "9" * 25 + "})", 2)])
def test_decode_names_each_broken_invariant_as_the_reference_does(text, b):
    # one invariant broken each: order in a bucket, capacity, saturation, heap
    # order, a label above n, a repeated label (twice: with and without a
    # label above n), a label below 1, bound b, and a label above n past
    # int64 but below int's digit limit (19 and 25 digits)
    outcome = _outcome(decode, text, b)
    assert outcome[0] == "invalid"
    assert outcome == _outcome(_ref_decode, text, b)


@settings(max_examples=600, deadline=None)
@given(spec=st.sampled_from(_KINDS), n=st.integers(1, 25), seed=st.integers(0, 2 ** 31),
       data=st.data())
def test_decode_matches_recursive_reference(spec, n, seed, data):
    text = encode(grow.sample_tree(spec, n, seed))
    # label edits keep the grammar and break one invariant or none
    for _ in range(data.draw(st.integers(0, 2))):
        labels = list(re.finditer("[0-9]+", text))
        i = data.draw(st.integers(0, len(labels) - 1))
        m = labels[i]
        kind = data.draw(st.sampled_from(("label", "add", "swap")))
        if kind == "label":  # another number: 0, above n or reused, maybe zero-padded
            number = data.draw(st.sampled_from([0, n + 1]) | st.integers(1, n))
            digits = data.draw(st.sampled_from(["%d", "0%d"])) % number
            text = text[:m.start()] + digits + text[m.end():]
        elif kind == "add":  # n + 1 after m: an overfull bucket or a heap-order break
            text = text[:m.end()] + ",%d" % (n + 1) + text[m.end():]
        elif i + 1 < len(labels):  # m and the next label trade places
            after = labels[i + 1]
            text = (text[:m.start()] + after[0] + text[m.end():after.start()] + m[0]
                    + text[after.end():])
    # character edits mostly break the grammar
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(0, len(text)))
        # "é" and the full-width "５" are not ASCII: a position counts characters
        char = data.draw(st.sampled_from("{}(),0123456789x é５"))
        kind = data.draw(st.sampled_from(("truncate", "delete", "insert", "replace")))
        if kind == "truncate":
            text = text[:pos]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        elif kind == "insert":
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + char + text[pos + 1:]
    b = data.draw(st.sampled_from([spec.b - 1, spec.b, spec.b + 1] if spec.b > 1
                                  else [spec.b, spec.b + 1]))
    assert _outcome(decode, text, b) == _outcome(_ref_decode, text, b)
