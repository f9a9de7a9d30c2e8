"""Hull-valued right-hand sides: evaluation, envelopes, continuity probes."""

import math

import numpy as np
import pytest

from evoinc import geometry as geo, rhs
from evoinc.config import build_experiment, load_config, preset_path

from conftest import hull_vertices


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


def _vertices(family, u, v):
    """Hull vertices of the image at one state pair."""
    return hull_vertices(family, np.asarray(u, dtype=float),
                         np.asarray(v, dtype=float))[0]


def _vertex_norms(family, u, v):
    return np.linalg.norm(_vertices(family, u, v), axis=1)


def test_evaluate_zero_map_gives_origin():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(0.0)),
                    rhs.GeneralCoefficient(rhs.Const(0.0))))
    verts = _vertices(family, np.zeros(2), np.zeros(3))
    assert np.allclose(verts, 0.0)


def test_evaluate_constant_coefficients():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(2.0))))
    verts = _vertices(family, np.array([9.0, 9.0]), np.zeros(3))
    assert np.allclose(verts, [[1.0, 0.0], [0.0, 2.0]])


def test_evaluate_growth_form_reads_inner_products():
    family = _growth_map([1.0, 0.5])
    verts = _vertices(family, np.array([1.0, 1.0]), np.zeros(3))
    assert np.allclose(verts, [[1.0, 0.0], [0.0, 0.5]])


def test_include_origin_appends_vertex():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Const(1.0)),
                    rhs.GeneralCoefficient(rhs.Const(2.0))),
        include_origin=True)
    verts = _vertices(family, np.zeros(2), np.zeros(3))
    assert verts.shape == (3, 2)
    assert np.allclose(verts[-1], 0.0)


def test_non_orthonormal_basis_rejected():
    with pytest.raises(rhs.RhsError):
        rhs.BasisFamilyMap(np.array([[1.0, 0.0], [1.0, 1.0]]),
                           (rhs.GeneralCoefficient(rhs.Const(1.0)),) * 2)


def test_unbounded_general_coefficient_rejected():
    with pytest.raises(rhs.RhsError):
        rhs.GeneralCoefficient(rhs.Inner("u", np.array([1.0, 0.0])))


# An affine map of an unbounded leaf has no finite bound, so the affine
# wrapper reaches its leaf through a sine.
_WRAPPERS = {
    "affine": lambda expr: rhs.Affine(2.0, 0.5, rhs.Sin(expr)),
    "sin": rhs.Sin,
    "tanh": rhs.Tanh,
    "clamp": lambda expr: rhs.Clamp(-1.0, 1.0, expr),
}
_LEAVES = {
    "inner": lambda arg: rhs.Inner(arg, np.array([1.0, 0.0])),
    "norm": rhs.Norm,
}


@pytest.mark.parametrize("leaf", sorted(_LEAVES))
@pytest.mark.parametrize("wrapper", sorted(_WRAPPERS))
def test_growth_feedback_must_not_read_u_under_any_wrapper(wrapper, leaf):
    wrap, make = _WRAPPERS[wrapper], _LEAVES[leaf]
    with pytest.raises(rhs.RhsError, match="must not depend on u"):
        rhs.GrowthCoefficient(0.1, wrap(make("u")))
    coefficient = rhs.GrowthCoefficient(0.1, wrap(make("v")))
    assert math.isfinite(coefficient.nu_bound)


def test_nonfinite_coefficient_value_rejected():
    family = _growth_map([1.0], dim_u=1, dim_v=1)
    with pytest.raises(rhs.RhsError):
        family.project(np.array([np.inf]), np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# growth envelope


def test_growth_check_zero_state():
    family = _growth_map([1.0, 0.5], [0.2, 0.1])
    norms = _vertex_norms(family, np.zeros(2), np.zeros(3))
    assert norms.max() == 0.0
    assert family.growth_envelope().value(0.0, 0.0) == 0.0


def test_growth_check_single_mode_arithmetic():
    family = _growth_map([1.0, 0.0])
    norms = _vertex_norms(family, np.array([1.0, 0.0]), np.zeros(3))
    env = family.growth_envelope()
    # vertex norm 1, quadratic side 2 ||c||^2 ||u||^2 = a^2 ||u||^2 = 2
    assert norms.max() == pytest.approx(1.0)
    assert env.a == pytest.approx(math.sqrt(2.0))
    assert env.b == 0.0 and env.c == 0.0
    assert norms.max() <= env.value(1.0, 0.0)


def test_growth_check_seeded_trials():
    # per vertex: ||x||^2 <= 2 ||(c_k)||^2 ||u||^2 + 2 ||(nu_k)||^2 ||v||^2
    # = a^2 ||u||^2 + b^2 ||v||^2, hence ||x|| <= a ||u|| + b ||v||
    for i in range(200):
        rng = np.random.default_rng([31, i])
        n = int(rng.integers(1, 5))
        family = _growth_map(list(rng.normal(size=n)),
                             list(rng.normal(size=n) * 0.5), dim_u=6)
        u = rng.normal(size=6) * 3.0
        v = rng.normal(size=3) * 3.0
        norms = _vertex_norms(family, u, v)
        env = family.growth_envelope()
        u_norm, v_norm = np.linalg.norm(u), np.linalg.norm(v)
        assert np.all(norms ** 2 <= env.a ** 2 * u_norm ** 2
                      + env.b ** 2 * v_norm ** 2 + 1e-12)
        assert norms.max() <= env.value(u_norm, v_norm) + 1e-12


def test_general_bounded_envelope_falls_back_to_constant():
    family = rhs.BasisFamilyMap(
        np.eye(2), (rhs.GeneralCoefficient(rhs.Sin(rhs.Norm("u"))),
                    rhs.GeneralCoefficient(
                        rhs.Affine(0.5, 0.0, rhs.Tanh(rhs.Norm("v"))))))
    env = family.growth_envelope()
    assert env.a == 0.0 and env.b == 0.0
    assert env.c == pytest.approx(math.sqrt(1.0 + 0.25))


def _plain_envelope(family):
    """The envelope from the plain `np.linalg.norm` of the constants: the
    bits `growth_envelope` keeps wherever this is finite."""
    growth = [k for k in family.coefficients
              if isinstance(k, rhs.GrowthCoefficient)]
    sups = [k.sup_bound for k in family.coefficients
            if isinstance(k, rhs.GeneralCoefficient)]

    def norm(values):
        return float(np.linalg.norm(values)) if values else 0.0

    return rhs.GrowthEnvelope(math.sqrt(2.0) * norm([k.c for k in growth]),
                              math.sqrt(2.0) * norm([k.nu_bound
                                                     for k in growth]),
                              norm(sups))


@pytest.mark.parametrize("name", ["heat_debye", "schrodinger_debye",
                                  "feedback_growth"])
def test_preset_envelopes_keep_the_plain_norm_bits(name):
    exp = build_experiment(load_config(preset_path(name)))
    for family in (exp.rhs_f, exp.rhs_g):
        assert family.growth_envelope() == _plain_envelope(family)


def test_growth_envelope_of_huge_constants_is_finite():
    # squaring 1e200 overflows; the norm of the constants scaled by the
    # largest does not
    family = _growth_map([1e200, -3e199], [1e200, 0.0])
    with np.errstate(over="ignore"):
        plain = _plain_envelope(family)
    assert math.isinf(plain.a) and math.isinf(plain.b)
    env = family.growth_envelope()
    assert env.a == pytest.approx(math.sqrt(2.0) * math.hypot(1e200, 3e199),
                                  rel=1e-15)
    assert env.b == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert env.c == 0.0


# ---------------------------------------------------------------------------
# closed-form projection onto the images


def _family_at(rng, phi, include_origin, weight):
    """A growth-form family of signed unit axes in R^(n + 2), orthonormal
    under the target weight, and the states at which its coefficients are
    exactly phi."""
    k, n = phi.shape
    axes = np.eye(n + 2)[rng.permutation(n + 2)[:n]]
    basis = axes * rng.choice([-1.0, 1.0], size=(n, 1)) / math.sqrt(weight)
    family = rhs.BasisFamilyMap(basis, (rhs.GrowthCoefficient(1.0),) * n,
                                include_origin, weight, u_weight=weight)
    return family, phi @ basis, np.zeros((k, 1))


@pytest.mark.parametrize("weight", [1.0, 0.25, 1.0 / 16.0])
@pytest.mark.parametrize("include_origin", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_project_matches_wolfe(n, include_origin, weight):
    rng = np.random.default_rng([41, n, int(include_origin), int(1 / weight)])
    k = 60
    phi = rng.normal(size=(k, n)) * rng.uniform(0.1, 5.0, size=(k, 1))
    # one batch mixes rows with a zero coefficient, whose hulls hold the
    # origin, and rows without; repeated and negative coefficients too
    rows = np.arange(0, k, 3)
    phi[rows, rng.integers(0, n, size=rows.size)] = 0.0
    phi[1::6] = 0.0
    if n > 1:
        phi[2::3, 1] = phi[2::3, 0]
    # scales far from 1, within a row and between rows
    phi[4, 0] = 1e-170
    phi[7] *= 1e-200
    phi[10] *= 1e100
    family, u, v = _family_at(rng, phi, include_origin, weight)
    assert np.array_equal(family.coefficient_values(u, v), phi)
    x = rng.normal(size=(k, n + 2)) * rng.uniform(0.1, 10.0, size=(k, 1))
    vertices = hull_vertices(family, u, v)
    x[::5] = vertices[::5].mean(axis=1)     # queries inside their hulls
    points = family.project(u, v, x)
    wolfe = geo.HullProjector(vertices).project(x)
    assert np.all(np.linalg.norm(points - wolfe, axis=1)
                  <= 1e-13 * (1.0 + np.linalg.norm(x, axis=1)))


@pytest.mark.parametrize("n", [1, 3])
def test_project_of_non_finite_query_raises(n, rng):
    family, u, v = _family_at(rng, rng.normal(size=(2, n)), False, 1.0)
    x = np.zeros((2, n + 2))
    x[1, 0] = math.nan
    with pytest.raises(geo.ProjectionDidNotConverge) as exc:
        family.project(u, v, x)
    assert math.isnan(exc.value.residual)


def test_project_raises_without_certificate(monkeypatch, rng):
    # a bound no gap can meet
    family, u, v = _family_at(rng, rng.normal(size=(4, 3)), True, 0.25)
    x = rng.normal(size=(4, 5))
    family.project(u, v, x)
    monkeypatch.setattr(geo, "PROJECTION_TOL", -1.0)
    with pytest.raises(geo.ProjectionDidNotConverge):
        family.project(u, v, x)


# ---------------------------------------------------------------------------
# continuity probes


def _modulus(family, pairs):
    """[(input distance, exact Hausdorff distance of the two hulls)] per
    pair; every weight of these maps is 1."""
    out = []
    for (u, v), (u2, v2) in pairs:
        dist = np.linalg.norm(u - u2) + np.linalg.norm(v - v2)
        hd = geo._pair_hausdorff(hull_vertices(family, u, v),
                                 hull_vertices(family, u2, v2))[0]
        out.append((float(dist), float(hd)))
    return out


def test_modulus_probe_identical_pairs_vanish():
    family = _growth_map([0.7, 0.3], [0.2, 0.4])
    u = np.array([0.5, -0.2])
    v = np.array([0.1, 0.3, -0.5])
    out = _modulus(family, [((u, v), (u, v))])
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
    for dist, hd in _modulus(family, pairs):
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
    values = [hd for _, hd in _modulus(family, pairs)]
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
    base = _vertices(family, u, v)
    # directions orthogonal to the spanned basis: canonical slots 2..4
    w = np.zeros(5)
    w[2:] = rng.normal(size=3) * 10.0
    perturbed = _vertices(family, u + w, v)
    assert np.array_equal(base, perturbed)


def test_evaluate_always_bounded_nonempty():
    for i in range(50):
        rng = np.random.default_rng([36, i])
        n = int(rng.integers(1, 5))
        family = _growth_map(list(rng.normal(size=n)),
                             list(rng.normal(size=n)), dim_u=5)
        u = rng.normal(size=5) * 5.0
        v = rng.normal(size=3) * 5.0
        verts = _vertices(family, u, v)
        env = family.growth_envelope()
        assert verts.shape[0] >= 1
        bound = env.value(np.linalg.norm(u), np.linalg.norm(v))
        assert np.linalg.norm(verts, axis=1).max() <= bound + 1e-9


def test_singleton_affine_map_envelope_and_eval():
    a = np.array([[0.5, 0.0], [0.0, 0.25]])
    b = np.zeros((2, 3))
    c = np.array([1.0, -2.0])
    single = rhs.SingletonAffineMap(a, b, c)
    point = single.project(np.array([2.0, 4.0]), np.zeros(3),
                           np.array([7.0, 7.0]))
    assert np.allclose(point, [[2.0, -1.0]])
    env = single.growth_envelope()
    assert env.a == pytest.approx(0.5)
    assert env.b == 0.0
    assert env.c == pytest.approx(np.linalg.norm(c))
