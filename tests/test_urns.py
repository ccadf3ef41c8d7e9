"""Urn construction, the tree coupling, and the spectrum."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from buckettrees import dist_k, families, grow, montecarlo, urns, verify
from buckettrees.grow import RngStream
from buckettrees.urns import (build_urn, census_counts, char_poly,
                              char_poly_closed, node_type_estimates,
                              simulate_urn, urn_spectrum)

SPECS = [families.recursive(2), families.recursive(3), families.ary(2, 2),
         families.ary(2, 3), families.port(2, 1), families.port(2, 2),
         families.port(2, Fraction(1, 2))]


def test_replacement_matrices():
    assert build_urn(families.recursive(2)).replacement == ((-1, 2), (1, 0))
    assert build_urn(families.port(2, 1)).replacement == ((-1, 3), (1, 1))
    assert build_urn(families.ary(2, 2)).replacement == ((-2, 3), (2, -1))


def test_balances():
    assert build_urn(families.recursive(2)).coeffs.a == 1
    assert build_urn(families.port(2, 1)).coeffs.a == 2
    assert build_urn(families.ary(2, 2)).coeffs.a == 1


def test_deterministic_opening_trace():
    model = build_urn(families.recursive(2))
    traj = simulate_urn(model, 2, 0)
    assert traj.counts == [(1, 0), (0, 2), (1, 2)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_char_poly_routes_agree(spec):
    model = build_urn(spec)
    assert char_poly(model) == char_poly_closed(model)


@pytest.mark.parametrize("b", range(1, 31))
def test_char_poly_is_the_mapped_indicial_polynomial_to_b30(b):
    for spec in verify.kind_grid(b):
        model = urns.build_urn(spec)
        coeffs = char_poly(model)
        assert coeffs == char_poly_closed(model)
        assert all(type(c) is Fraction for c in coeffs)


# sha256 of char_poly_closed over kind_grid(b), b = 1..30, recorded from the
# product form (lambda - bdeg) prod_{k<b} (lambda + w_k) - prod_k w_k
_CHAR_POLY_DIGEST = "90b2dbb058531dbaea449cf15f2060ac6d70d5cc25162e9c0d34da3d091ad9c0"


def test_char_poly_closed_matches_the_product_form_digest():
    h = hashlib.sha256()
    for b in range(1, 31):
        for spec in verify.kind_grid(b):
            coeffs = char_poly_closed(build_urn(spec))
            assert all(type(c) is Fraction for c in coeffs)
            h.update(f"{spec.describe()}:{','.join(map(str, coeffs))};".encode())
    assert h.hexdigest() == _CHAR_POLY_DIGEST


def test_port_eigenvalues():
    sp = urn_spectrum(build_urn(families.port(2, 1)))
    assert sorted(z.real for z in sp.eigenvalues) == pytest.approx([-2.0, 2.0])
    assert sp.principal == 2


def test_affine_maps():
    for spec, affine in ((families.recursive(3), (1, 0)), (families.ary(2, 3), (2, -1)),
                         (families.port(2, 1), (2, 1))):
        gc = families.growth_coeffs(spec)
        assert (gc.a, -gc.c) == affine
        assert urn_spectrum(build_urn(spec)).principal == gc.a


def numeric_eigenvalues(model):
    """Eigenvalues of the replacement matrix by plain dense linear algebra,
    sorted as `urn_spectrum` sorts them: the reference for its affine map."""
    eigs = np.linalg.eigvals(np.array(model.replacement, dtype=float))
    return sorted((complex(z) for z in eigs), key=lambda z: (-z.real, -z.imag))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_numeric_eigenvalues_match_affine_images(spec):
    model = build_urn(spec)
    sp = urn_spectrum(model)
    numeric = numeric_eigenvalues(model)
    for a, b in zip(sp.eigenvalues, numeric):
        assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("b", [4, 10, 20, 30])
def test_numeric_eigenvalues_match_affine_images_on_kind_grid(b):
    """The same at larger b, to within 1e-8 of the spectral radius: dense
    eigvals loses digits on the clustered images at b = 30."""
    for spec in verify.kind_grid(b):
        model = build_urn(spec)
        numeric = numeric_eigenvalues(model)
        scale = max(abs(z) for z in numeric)
        for a, z in zip(urn_spectrum(model).eigenvalues, numeric):
            assert a == pytest.approx(z, abs=1e-8 * scale), spec.describe()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_tree_coupling_is_exact(spec):
    """Ball counts read off a tree census recover the node counts exactly."""
    from buckettrees.trees import census
    model = build_urn(spec)
    gc = families.growth_coeffs(spec)
    for seed in range(4):
        tree = grow.sample_tree(spec, 60, seed)
        cen = census(tree)
        counts = census_counts(model, cen)
        assert sum(counts) == gc.total(60)
        est = node_type_estimates(model, counts)
        assert est[spec.b] == sum(cen.n_deg.values())
        for k in range(1, spec.b):
            assert est[k] == cen.m.get(k, 0)


def test_trajectory_totals_are_deterministic():
    model = build_urn(families.ary(2, 3))
    traj = simulate_urn(model, 30, 11)
    for step, counts in enumerate(traj.counts):
        assert sum(counts) == model.total(1 + step)
        assert all(c >= 0 for c in counts)


def test_urn_guards():
    assert build_urn(families.recursive(1)).replacement == ((1,),)
    with pytest.raises(ValueError):
        build_urn(families.linear(2, 1, 0, 1))


@pytest.mark.parametrize("spec", SPECS + [families.port(3, 2)], ids=lambda s: s.describe())
def test_array_estimates_equal_per_vector_fractions(spec):
    model = build_urn(spec)
    counts = montecarlo.sample_urn_counts(spec, 25, 50, RngStream(12))
    columns = node_type_estimates(model, counts)
    assert sorted(columns) == list(range(1, spec.b + 1))
    for k, column in columns.items():
        exact = [float(node_type_estimates(model, row)[k]) for row in counts]
        assert column.tolist() == exact


@pytest.mark.parametrize("spec", SPECS + [families.port(3, 2)], ids=lambda s: s.describe())
def test_every_route_steps_with_the_urn_rows(spec):
    model = build_urn(spec)
    rows = model.replacement
    # the exact mean recursion takes one step along sum_k (q_k / total) R_k
    for n in range(1, 8):
        q = dist_k.mean_type_masses(spec, n)
        step = [qi + sum(qk / model.total(n) * row[i] for qk, row in zip(q, rows))
                for i, qi in enumerate(q)]
        assert dist_k.mean_type_masses(spec, n + 1) == tuple(step)
    # one more kernel step on the same seed adds one row to every replicate
    before = montecarlo.sample_urn_counts(spec, 30, 2000, RngStream(13))
    after = montecarlo.sample_urn_counts(spec, 31, 2000, RngStream(13))
    assert {tuple(d) for d in (after - before).tolist()} == set(rows)


def test_simulate_urn_guard():
    with pytest.raises(ValueError, match="steps"):
        simulate_urn(build_urn(families.recursive(2)), -3, 0)


def test_simulate_urn_refuses_a_total_past_int64():
    # port(2, 10^17) adds about 10^17 per step, past 2^63 - 1 before step 100:
    # the int64 totals would wrap
    model = build_urn(families.port(2, 10 ** 17))
    with pytest.raises(ValueError, match=r"port:b=2,alpha=100000000000000000 has total weight "
                                         r"\d+ at step 100, past the int64 draw bound 2\^63 - 1"):
        simulate_urn(model, 100, 0)
    assert len(simulate_urn(model, 90, 0).draws) == 90


def test_one_type_urn():
    model = urns.build_urn(families.port(1, 2))
    assert model.replacement == ((3,),) and model.initial == (2,)
    assert model.coeffs.a == 3
    counts = montecarlo.sample_urn_counts(families.port(1, 2), 9, 5, RngStream(1))
    assert (counts[:, 0] == model.total(9)).all()
    assert node_type_estimates(model, (model.total(9),)) == {1: 9}
