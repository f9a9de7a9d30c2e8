"""Hull-valued right-hand sides: evaluation, envelopes, continuity probes."""

import math

import numpy as np
import pytest

from evoinc import rhs


def _growth_map(c_values, nu_scales=None, dim_u=None, dim_v=3):
    n = len(c_values)
    dim_u = dim_u or n
    coeffs = []
    for k, c in enumerate(c_values):
        nu = None
        if nu_scales is not None and nu_scales[k] != 0.0:
            nu = rhs.Affine(nu_scales[k], 0.0,
                            rhs.Tanh(rhs.Inner("v", np.eye(dim_v)[k % dim_v])))
        coeffs.append(rhs.GrowthCoefficient(c, nu))
    return rhs.BasisFamilyMap(np.eye(dim_u)[:n], tuple(coeffs))


def test_evaluate_zero_map_gives_origin():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(0.0)),
                    rhs.GeneralCoefficient(rhs.Const(0.0))))
    poly = family.evaluate(np.zeros(2), np.zeros(3))
    assert np.allclose(poly.vertices, 0.0)


def test_evaluate_constant_coefficients():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(2.0))))
    poly = family.evaluate(np.array([9.0, 9.0]), np.zeros(3))
    assert np.allclose(poly.vertices, [[1.0, 0.0], [0.0, 2.0]])


def test_evaluate_growth_form_reads_inner_products():
    family = _growth_map([1.0, 0.5])
    poly = family.evaluate(np.array([1.0, 1.0]), np.zeros(3))
    assert np.allclose(poly.vertices, [[1.0, 0.0], [0.0, 0.5]])


def test_include_origin_appends_vertex():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(2.0))),
        include_origin=True)
    poly = family.evaluate(np.zeros(2), np.zeros(3))
    assert poly.vertices.shape == (3, 2)
    assert np.allclose(poly.vertices[-1], 0.0)


def test_non_orthonormal_basis_rejected():
    with pytest.raises(rhs.RhsError):
        rhs.BasisFamilyMap(np.array([[1.0, 0.0], [1.0, 1.0]]),
                           (rhs.GeneralCoefficient(rhs.Const(1.0)),) * 2)


def test_unbounded_general_coefficient_rejected():
    with pytest.raises(rhs.RhsError):
        rhs.GeneralCoefficient(rhs.Inner("u", np.array([1.0, 0.0])))


def test_nonfinite_coefficient_value_rejected():
    family = _growth_map([1.0], dim_u=1, dim_v=1)
    with pytest.raises(rhs.RhsError):
        family.evaluate(np.array([np.inf]), np.zeros(1))


# ---------------------------------------------------------------------------
# growth envelope


def test_growth_check_zero_state():
    family = _growth_map([1.0, 0.5], [0.2, 0.1])
    report = family.growth_check(np.zeros(2), np.zeros(3))
    assert report.passed and report.max_vertex_norm == 0.0


def test_growth_check_single_mode_arithmetic():
    family = _growth_map([1.0, 0.0])
    report = family.growth_check(np.array([1.0, 0.0]), np.zeros(3))
    # vertex norm 1, quadratic side 2 ||c||^2 ||u||^2 = 2
    assert report.max_vertex_norm == pytest.approx(1.0)
    assert report.passed
    assert report.envelope.a == pytest.approx(math.sqrt(2.0))
    assert report.envelope.b == 0.0 and report.envelope.c == 0.0


def test_growth_check_seeded_trials():
    for i in range(200):
        rng = np.random.default_rng([31, i])
        n = int(rng.integers(1, 5))
        family = _growth_map(list(rng.normal(size=n)),
                             list(rng.normal(size=n) * 0.5), dim_u=6)
        u = rng.normal(size=6) * 3.0
        v = rng.normal(size=3) * 3.0
        report = family.growth_check(u, v)
        assert report.passed
        assert report.max_vertex_norm <= report.envelope_value + 1e-12


def test_general_bounded_envelope_falls_back_to_constant():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Sin(rhs.Norm("u"))),
                    rhs.GeneralCoefficient(
                        rhs.Affine(0.5, 0.0, rhs.Tanh(rhs.Norm("v"))))))
    env = family.growth_envelope()
    assert env.a == 0.0 and env.b == 0.0
    assert env.c == pytest.approx(math.sqrt(1.0 + 0.25))


# ---------------------------------------------------------------------------
# continuity probes


def test_modulus_probe_identical_pairs_vanish():
    family = _growth_map([0.7, 0.3], [0.2, 0.4])
    u = np.array([0.5, -0.2])
    v = np.array([0.1, 0.3, -0.5])
    out = family.hausdorff_modulus_probe([(((u, v)), ((u, v)))])
    dist, hd = out[0]
    assert dist == 0.0 and hd <= 1e-10


def test_modulus_probe_lipschitz_envelope():
    # constant v-feedbacks: |phi_k(p) - phi_k(q)| <= (|c_k| + |s_k|) * input distance
    c_values = [0.8, 0.5, 0.2]
    s_values = [0.3, 0.1, 0.4]
    coeffs = tuple(
        rhs.GrowthCoefficient(c, rhs.Const(s))
        for c, s in zip(c_values, s_values))
    family = rhs.BasisFamilyMap(np.eye(3), coeffs)
    lip = np.linalg.norm([abs(c) + abs(s)
                          for c, s in zip(c_values, s_values)])
    pairs = []
    for i in range(100):
        rng = np.random.default_rng([32, i])
        u, v = rng.normal(size=3), rng.normal(size=3)
        du, dv = rng.normal(size=3) * 0.3, rng.normal(size=3) * 0.3
        pairs.append(((u, v), (u + du, v + dv)))
    for dist, hd in family.hausdorff_modulus_probe(pairs):
        assert hd <= lip * dist + 1e-9


def test_modulus_probe_shrinking_sequence():
    family = _growth_map([0.9, 0.4], [0.3, 0.2])
    rng = np.random.default_rng(33)
    u = rng.normal(size=2)
    v = rng.normal(size=3)
    du = rng.normal(size=2)
    du /= np.linalg.norm(du)
    dv = rng.normal(size=3)
    dv /= np.linalg.norm(dv)
    pairs = [((u, v), (u + du * 2.0 ** -k, v + dv * 2.0 ** -k))
             for k in range(1, 13)]
    values = [hd for _, hd in family.hausdorff_modulus_probe(pairs)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # recorded from this run: the gap is below 1e-3 from k = 11 on
    assert values[10] <= 1e-3


# ---------------------------------------------------------------------------
# weak-continuity surrogate and misc invariants


def test_growth_form_ignores_orthogonal_perturbations():
    family = _growth_map([0.9, 0.4], dim_u=5)
    rng = np.random.default_rng(35)
    u = rng.normal(size=5)
    v = rng.normal(size=3)
    base = family.evaluate(u, v).vertices
    # directions orthogonal to the spanned basis: canonical slots 2..4
    w = np.zeros(5)
    w[2:] = rng.normal(size=3) * 10.0
    perturbed = family.evaluate(u + w, v).vertices
    assert np.array_equal(base, perturbed)


def test_evaluate_always_bounded_nonempty():
    for i in range(50):
        rng = np.random.default_rng([36, i])
        n = int(rng.integers(1, 5))
        family = _growth_map(list(rng.normal(size=n)),
                             list(rng.normal(size=n)), dim_u=5)
        u = rng.normal(size=5) * 5.0
        v = rng.normal(size=3) * 5.0
        poly = family.evaluate(u, v)
        env = family.growth_envelope()
        assert poly.vertices.shape[0] >= 1
        bound = env.value(np.linalg.norm(u), np.linalg.norm(v))
        assert np.linalg.norm(poly.vertices, axis=1).max() <= bound + 1e-9


def test_singleton_affine_map_envelope_and_eval():
    a = np.array([[0.5, 0.0], [0.0, 0.25]])
    b = np.zeros((2, 3))
    c = np.array([1.0, -2.0])
    single = rhs.SingletonAffineMap(a, b, c)
    poly = single.evaluate(np.array([2.0, 4.0]), np.zeros(3))
    assert np.allclose(poly.vertices, [[2.0, -1.0]])
    env = single.growth_envelope()
    assert env.a == pytest.approx(0.5)
    assert env.b == 0.0
    assert env.c == pytest.approx(np.linalg.norm(c))
