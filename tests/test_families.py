"""Weight sequences, closed-form totals, growth coefficients, parsing."""

import hashlib
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckettrees import enumeration, families, grow, spectral, verify
from buckettrees.families import (FamilySpec, ary, frac_binom, growth_coeffs,
                                  kappa, linear, parse_family, phi, port,
                                  psi, recursive, total_weight_closed,
                                  tree_weight)
from buckettrees.trees import BucketNode, BucketTree, canonicalize, decode


def test_phi_recursive():
    # b=2: phi_k = 2^k / k!
    import math
    for k in range(6):
        assert phi(recursive(2), k) == Fraction(2 ** k, math.factorial(k))


def test_phi_ary():
    # (1,2)-ary: phi_k = C(2, k)
    assert [phi(ary(1, 2), k) for k in range(4)] == [1, 2, 1, 0]


def test_phi_port():
    # (2,1)-PORT: phi_k = C(k+2, k)
    for k in range(6):
        assert phi(port(2, 1), k) == frac_binom(k + 2, k)


def test_psi_recursive():
    import math
    for b in (2, 3, 4):
        for k in range(1, b):
            assert psi(recursive(b), k) == math.factorial(k - 1)
    with pytest.raises(ValueError):
        psi(recursive(2), 2)  # psi only covers unsaturated capacities


def test_every_tree_reader_refuses_a_tree_of_another_bound():
    # one check for the four: the family's b, then a valid tree
    spec = recursive(3)
    readers = [lambda t: tree_weight(spec, t), lambda t: grow.attraction_probs(spec, t),
               lambda t: enumeration.growth_history_probability(spec, t)]
    readers += [lambda t, m=m: enumeration.exact_probability(spec, t, m)
                for m in (enumeration.ORDERED_MODEL, enumeration.UNORDERED_MODEL,
                          enumeration.UNORDERED_GROWTH)]
    for read in readers:
        with pytest.raises(ValueError,
                           match=r"^tree capacity bound b=2 does not match the family's b=3$"):
            read(canonicalize(enumeration.all_trees(2, 4)[0]))
        with pytest.raises(ValueError, match="internal node unsaturated"):
            read(BucketTree(3, BucketNode((1, 2), (BucketNode((3,)),))))


def test_tree_weight_examples():
    spec = recursive(2)
    assert tree_weight(spec, decode("{1,2}({3,4})", 2)) == 2
    # phi_2 * psi_1^2 = 2 * 1 * 1
    assert tree_weight(spec, decode("{1,2}({3},{4})", 2)) == 2


def test_total_weight_closed_examples():
    assert total_weight_closed(recursive(2), 4) == 6
    assert total_weight_closed(ary(2, 2), 3) == 6
    assert total_weight_closed(port(2, 1), 4) == 15


def test_total_weight_double_factorial():
    # (2,1)-PORT totals are (2n-3)!!
    import math
    for n in range(1, 9):
        assert total_weight_closed(port(2, 1), n) == math.prod(range(2 * n - 3, 0, -2))


def test_kappa_values():
    assert kappa(recursive(3)) == 0
    assert kappa(ary(2, 3)) == Fraction(1, 2)
    assert kappa(port(2, 1)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        kappa(linear(2, 1, 0, 1))


def test_growth_coeffs():
    assert growth_coeffs(recursive(2)) == families.GrowthCoeffs(1, 0, 0, 0)
    assert growth_coeffs(ary(2, 3)) == families.GrowthCoeffs(2, -1, 1, 1)
    assert growth_coeffs(port(2, 1)) == families.GrowthCoeffs(2, 1, -1, -1)
    # rational alpha clears denominators: alpha = 1/2 gives alpha+1 = 3/2
    assert growth_coeffs(port(2, Fraction(1, 2))) == families.GrowthCoeffs(3, 2, -2, -2)


def test_linear_growth_coeffs():
    # weight a(c-1) + beta*deg + m, cleared to (A, B, M): (A, B, M - A, -B)
    assert growth_coeffs(linear(2, 1, Fraction(-2, 3), 1)) == families.GrowthCoeffs(3, -2, 0, 2)
    gc = growth_coeffs(linear(2, 1, 1, 1))
    # five labels in three buckets: a(n - N) + beta(N - 1) + m N
    assert (gc.total(5, 3), gc.node_weight(2, 1)) == (1 * 2 + 1 * 2 + 1 * 3, 3)
    # each named family is the linear rule with m = a - beta
    for b in (1, 2, 3):
        assert growth_coeffs(linear(b, 1, 0, 1)) == growth_coeffs(recursive(b))
        assert growth_coeffs(linear(b, 2, -1, 3)) == growth_coeffs(ary(b, 3))
        alpha = Fraction(1, 2)
        assert growth_coeffs(linear(b, alpha + 1, 1, alpha)) == growth_coeffs(port(b, alpha))


def test_growth_coeffs_conservation_identities():
    # bdeg + c = 0 and total_c = -bdeg make the node-weight sum telescope
    for spec in (recursive(2), ary(2, 2), ary(3, 3), port(2, 1), port(3, 2)):
        gc = growth_coeffs(spec)
        assert gc.bdeg + gc.c == 0
        assert gc.total_c == -gc.bdeg


def test_frac_binom():
    assert frac_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert frac_binom(4, 4) == 1       # C(lam+n-2, n-1) at lam=1, n=5
    assert frac_binom(1, 3) == 0       # C(lam+n-2, n-1) at lam=-2, n=4
    assert frac_binom(5, -1) == 0


def _complex_binom(x, m):
    """The complex binomial frac_binom absorbed, kept as its reference."""
    if m < 0:
        return 0j
    out = complex(1)
    for i in range(m):
        out *= (x - i) / (i + 1)
    return out


def test_frac_binom_complex():
    z = frac_binom(0.5 + 0j, 2)
    assert type(z) is complex and z == pytest.approx(-1 / 8)
    assert frac_binom(4 + 0j, 4) == pytest.approx(1)   # C(lam+n-2, n-1), lam=1, n=5
    assert frac_binom(1 + 0j, 3) == 0                  # C(lam+n-2, n-1), lam=-2, n=4
    assert frac_binom(2 + 1j, 2) == pytest.approx((1 + 3j) / 2)
    assert frac_binom(3 + 0j, -1) == 0
    # on the indicial roots, where pmf_K evaluates it, the same floats bit for bit
    for spec in verify.family_grid() + [recursive(5), port(4, Fraction(1, 3)), ary(6, 3)]:
        for lam in spectral.family_roots(spec).roots:
            for m in range(spec.b + 1):
                assert complex(frac_binom(lam + spec.b - 1, m)) == _complex_binom(
                    lam + spec.b - 1, m)


@settings(max_examples=50, deadline=None)
@given(num=st.integers(-8, 8), den=st.integers(1, 5), m=st.integers(0, 8))
def test_frac_binom_pascal(num, den, m):
    x = Fraction(num, den)
    assert frac_binom(x, m) + frac_binom(x, m + 1) == frac_binom(x + 1, m + 1)


def test_parse_family():
    assert parse_family("recursive:b=2") == recursive(2)
    assert parse_family("ary:b=2,d=3") == ary(2, 3)
    assert parse_family("port:b=3,alpha=1/2") == port(3, Fraction(1, 2))
    assert parse_family("linear:b=2,a=1,beta=0,m=1") == linear(2, 1, 0, 1)
    assert parse_family("recursive").b == 1


@pytest.mark.parametrize("bad", ["nope:b=2", "ary:b=2", "recursive:b=2,x=1",
                                 "ary:b=2,d", "port:b=2,alpha=-1",
                                 "recursive:b=2,b=3", "ary:d=3,b=2,d=4"])
def test_parse_family_rejects(bad):
    with pytest.raises(ValueError):
        parse_family(bad)


@pytest.mark.parametrize("text, message", [
    ("recursive:b=x", "family parameter b=x is not an integer"),
    ("ary:b=2,d=2.5", "family parameter d=2.5 is not an integer"),
    ("port:b=2,alpha=x", "family parameter alpha=x is not a rational number"),
    ("port:b=2,alpha=1/0", "family parameter alpha=1/0 is not a rational number"),
    ("linear:b=2,a=1,beta=y,m=1", "family parameter beta=y is not a rational number"),
    ("recursive:b=2,b=3", "family parameter b is given twice"),
    ("ary:d=3,b=2,d=4", "family parameter d is given twice"),
])
def test_parse_family_names_the_parameter_that_does_not_parse(text, message):
    with pytest.raises(ValueError) as err:
        parse_family(text)
    assert str(err.value) == message


def test_spec_validation():
    # each refusal names the field: b and d ints, alpha and a, beta, m rationals
    for make, field in [(lambda: FamilySpec("recursive", 0), "b=0"),
                        (lambda: recursive(2.5), "b=2.5"),
                        (lambda: ary(2, 1), "d=1"),
                        (lambda: ary(2, 2.5), "d=2.5"),
                        (lambda: FamilySpec("ary", 2), "d=None"),
                        (lambda: port(2, 0), "alpha=0"),
                        (lambda: FamilySpec("port", 2, alpha=1.5), "alpha=1.5"),
                        (lambda: FamilySpec("linear", 2, lin_a=1.0, lin_beta=0, lin_m=1), "a=1.0"),
                        (lambda: FamilySpec("linear", 2, lin_a=1, lin_beta=0), "m=None"),
                        # a kind takes only its own parameters
                        (lambda: FamilySpec("recursive", 2, d=5),
                         "recursive family takes no parameter d=5"),
                        (lambda: FamilySpec("recursive", 2, lin_a=1),
                         "recursive family takes no parameter lin_a=1"),
                        (lambda: FamilySpec("ary", 2, d=3, alpha=Fraction(1, 2)),
                         "ary family takes no parameter alpha=1/2"),
                        (lambda: FamilySpec("port", 2, d=3, alpha=1),
                         "port family takes no parameter d=3"),
                        (lambda: FamilySpec("linear", 2, d=3, lin_a=1, lin_beta=0, lin_m=1),
                         "linear family takes no parameter d=3")]:
        with pytest.raises(ValueError, match=re.escape(field)):
            make()
    # the constructors read floats through Fraction
    assert port(2, 1.5) == port(2, Fraction(3, 2))
    assert linear(2, 1.0, 0.5, 1) == linear(2, 1, Fraction(1, 2), 1)


@pytest.mark.parametrize("make, field", [(lambda: recursive(True), "b=True"),
                                         (lambda: ary(False, 2), "b=False"),
                                         (lambda: port(True, 1), "b=True"),
                                         (lambda: ary(2, True), "d=True"),
                                         (lambda: FamilySpec("port", 2, alpha=True), "alpha=True"),
                                         (lambda: FamilySpec("linear", 2, lin_a=True, lin_beta=0,
                                                             lin_m=1), "a=True"),
                                         (lambda: FamilySpec("linear", 2, lin_a=1, lin_beta=False,
                                                             lin_m=1), "beta=False"),
                                         (lambda: FamilySpec("linear", 2, lin_a=1, lin_beta=0,
                                                             lin_m=True), "m=True")])
def test_a_bool_is_no_integer_parameter(make, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        make()


def test_custom_kind_is_unknown():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec("custom", 2)
    with pytest.raises(ValueError, match="unknown family kind"):
        parse_family("custom:b=2")


def test_describe_round_trips():
    for spec in (recursive(3), ary(2, 3), port(2, Fraction(1, 2)),
                 linear(2, 1, 0, 1)):
        assert parse_family(spec.describe()) == spec


def test_weights_rejects_linear():
    # a linear rule has a growth rule only, no combinatorial weights
    with pytest.raises(ValueError, match="no combinatorial weights"):
        phi(linear(2, 1, 0, 1), 0)
    with pytest.raises(ValueError, match="no combinatorial weights"):
        psi(linear(2, 1, 0, 1), 1)


# The paper's closed forms, one per kind, as families.py wrote them before
# every named family became one (A, eps) pair: the reference its products
# are held to.  psi_k has the form of T_k.
def _ref_kappa(spec):
    if spec.kind == "recursive":
        return Fraction(0)
    if spec.kind == "ary":
        return Fraction(1, spec.d - 1)
    return Fraction(-1, 1) / (spec.alpha + 1)


def _ref_total(spec, n):
    f = math.factorial(n - 1)
    if spec.kind == "recursive":
        return Fraction(f)
    if spec.kind == "ary":
        d = spec.d
        return f * (d - 1) ** (n - 1) * frac_binom(Fraction(n - 1) + Fraction(1, d - 1), n - 1)
    a1 = spec.alpha + 1
    return f * a1 ** (n - 1) * frac_binom(Fraction(n - 1) - 1 / a1, n - 1)


def _ref_phi(spec, k):
    b = spec.b
    if spec.kind == "recursive":
        return Fraction(math.factorial(b - 1) * b ** k, math.factorial(k))
    if spec.kind == "ary":
        return _ref_total(spec, b) * frac_binom(b * (spec.d - 1) + 1, k)
    a1 = spec.alpha + 1
    return _ref_total(spec, b) * frac_binom(a1 * b - 2 + k, k)


def _ref_rule(spec):
    """(a, beta, m) of the growth rule a*(c-1) + beta*deg + m."""
    if spec.kind == "recursive":
        return 1, 0, 1
    if spec.kind == "ary":
        return spec.d - 1, -1, spec.d
    return spec.alpha + 1, 1, spec.alpha


_ALPHAS = [Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(7, 3), 5]
_CLOSED_FORM_GRID = [spec for b in range(1, 7) for spec in
                     [recursive(b)] + [ary(b, d) for d in range(2, 6)]
                     + [port(b, alpha) for alpha in _ALPHAS]]

# sha256 of every value below, recorded with the per-kind closed forms
_CLOSED_FORM_DIGEST = "93e110d9f6746246fcbd084fdf7642e630ea22767c70da7d723e9e204d22056b"


def test_weights_equal_the_papers_closed_forms():
    h, count = hashlib.sha256(), 0
    for spec in _CLOSED_FORM_GRID:
        values = [("kappa", 0, kappa(spec), _ref_kappa(spec))]
        values += [("phi", k, phi(spec, k), _ref_phi(spec, k)) for k in range(15)]
        values += [("psi", k, psi(spec, k), _ref_total(spec, k)) for k in range(1, spec.b)]
        values += [("T", n, total_weight_closed(spec, n), _ref_total(spec, n))
                   for n in range(1, 25)]
        for name, arg, got, want in values:
            assert type(got) is Fraction and got == want, (spec.describe(), name, arg)
            h.update(f"{spec.describe()} {name} {arg} {got}\n".encode())
        count += len(values)
        gc = growth_coeffs(spec)
        assert gc == growth_coeffs(linear(spec.b, *_ref_rule(spec))), spec.describe()
        h.update(f"{spec.describe()} growth {gc}\n".encode())
    assert count == 2805
    assert h.hexdigest() == _CLOSED_FORM_DIGEST
