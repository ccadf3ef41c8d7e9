"""The exact/floating pmf container."""

from fractions import Fraction

import pytest

from buckettrees.pmf import Pmf, mixture, point_mass


def test_point_mass():
    pm = point_mass(3)
    assert pm.exact and pm[3] == 1 and pm[4] == 0
    assert pm.check() is pm


def test_check_rejects_bad_totals():
    with pytest.raises(ValueError):
        Pmf({1: Fraction(1, 2)}).check()
    with pytest.raises(ValueError):
        Pmf({1: 0.4, 2: 0.4}).check()
    with pytest.raises(ValueError):
        Pmf({1: -0.1, 2: 1.1}).check()


def test_exact_check_across_denominators():
    thirds = {1: Fraction(1, 6), 2: Fraction(1, 3), 3: Fraction(1, 2)}
    assert Pmf(thirds).check().mass == thirds
    assert Pmf({0: 1}).check().mass == {0: 1}
    assert Pmf({0: Fraction(1, 2), 1: 0, 2: Fraction(1, 2)}).check().total() == 1
    off = {**thirds, 3: Fraction(1, 2) + Fraction(1, 10 ** 40)}
    with pytest.raises(ValueError, match="exact pmf sums to"):
        Pmf(off).check()
    with pytest.raises(ValueError):
        Pmf({}).check()


def test_as_float_and_diff():
    pmf = Pmf({1: Fraction(2, 3), 2: Fraction(1, 3)})
    f = pmf.as_float()
    assert not f.exact
    assert pmf.max_abs_diff(f) <= 1e-15
    assert pmf.max_abs_diff(point_mass(1)) == pytest.approx(1 / 3)


def test_mixture_normalizes():
    mixed = mixture([(Fraction(1, 2), point_mass(0)),
                     (Fraction(1, 2), Pmf({0: Fraction(1, 2), 1: Fraction(1, 2)}))])
    assert mixed.mass == {0: Fraction(3, 4), 1: Fraction(1, 4)}
    # unnormalized weights are rescaled
    mixed = mixture([(Fraction(1), point_mass(0)), (Fraction(1), point_mass(1))])
    assert mixed.mass == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_reading_an_atom_does_not_scan_the_support(monkeypatch):
    scans = []
    monkeypatch.setattr(Pmf, "exact", property(lambda self: scans.append(1) or True))
    pmf = Pmf({v: Fraction(1, 1000) for v in range(1000)})
    assert sum(pmf[v] for v in pmf.support) == 1
    assert scans == []
    zero = pmf[1000]  # a miss pays one scan, for the zero's type
    assert zero == 0 and type(zero) is Fraction and scans == [1]
    assert Pmf({0: 0.5, 1: 0.5})[2] == 0.0
