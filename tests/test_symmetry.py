import dataclasses

import numpy as np
import pytest

from orbitfix.boussinesq import BSParams, build_bs_problem, exact_profile, translation_action
from orbitfix.nbody import NBodyConfig, build_nbody, polygon_solution, rotation_action
from orbitfix.solvers import SolverConfig, petviashvili_solve
from orbitfix.symmetry import (OrbitReport, align_to_orbit, kernel_check, predict_limit,
                               GroupAction)


def _bs_params(n=256, half_length=25.0):
    return BSParams(theta2=0.9, speed=exact_profile(0.9, n, half_length).speed,
                    n=n, half_length=half_length)


# ---------------- group action basics ----------------

def test_rotation_identity_and_composition():
    action = rotation_action()
    q = polygon_solution(5)
    assert np.allclose(action.act(0.0, q), q, atol=1e-14)
    a, b = 0.3, -1.1
    assert np.allclose(action.act(a, action.act(b, q)), action.act(a + b, q), atol=1e-10)


def test_rotation_generator_matches_fd():
    action = rotation_action()
    q = polygon_solution(3)
    g = action.generators(q)[0]
    h = 1e-7
    fd = (action.act(h, q) - action.act(-h, q)) / (2 * h)
    assert np.allclose(g, fd, atol=1e-6)
    # infinitesimal rotation is orthogonal to the configuration
    assert abs(np.dot(g, q)) < 1e-12


def test_translation_identity_and_composition():
    params = _bs_params()
    action = translation_action(params)
    w = exact_profile(0.9, params.n, params.half_length).wave
    assert np.allclose(action.act(0.0, w), w, atol=1e-14)
    a, b = 0.75, 2.5
    assert np.allclose(action.act(a, action.act(b, w)), action.act(a + b, w), atol=1e-9)


def test_translation_generator_matches_fd():
    params = _bs_params()
    action = translation_action(params)
    w = exact_profile(0.9, params.n, params.half_length).wave
    g = action.generators(w)[0]
    h = 1e-6
    fd = (action.act(h, w) - action.act(-h, w)) / (2 * h)
    assert np.allclose(g, fd, atol=1e-5)


# ---------------- OrbitReport invariant ----------------

def test_orbit_report_rejects_distance_above_raw():
    with pytest.raises(ValueError):
        OrbitReport(alpha_star=0.0, orbital_distance=2.0, raw_distance=1.0)


def test_orbit_report_accepts_equal_distances():
    rep = OrbitReport(alpha_star=0.0, orbital_distance=1.0, raw_distance=1.0)
    assert rep.orbital_distance == rep.raw_distance


# ---------------- kernel_check ----------------

def test_kernel_check_nbody():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    val = kernel_check(problem, polygon_solution(2), rotation_action())
    assert val <= 1e-6


def test_kernel_check_requires_solution():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    q = polygon_solution(2) + 0.1
    with pytest.raises(ValueError, match="solution"):
        kernel_check(problem, q, rotation_action())


def test_kernel_check_judges_the_residual_against_the_linear_part():
    # the 512-body polygon's round-off leaves |F| above 1e-8, but far below 1e-8 |A q*|
    problem = build_nbody(NBodyConfig(n=512, m0=10.0))
    q = polygon_solution(512)
    assert np.linalg.norm(problem.F(q)) > 1e-8
    assert kernel_check(problem, q, rotation_action()) <= 1e-8
    # without a split the bound stays absolute
    with pytest.raises(ValueError, match="solution"):
        kernel_check(dataclasses.replace(problem, homogeneous_split=None), q, rotation_action())


def test_kernel_check_empty_group_is_zero():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    trivial = GroupAction(act=lambda a, x: x, generators=lambda x: [],
                          align=lambda x, xref: 0.0)
    assert kernel_check(problem, polygon_solution(2), trivial) == 0.0


# ---------------- align_to_orbit ----------------

def test_align_recovers_rotation_angle():
    action = rotation_action()
    q = polygon_solution(4)
    rep = align_to_orbit(action.act(0.3, q), q, action)
    assert abs(rep.alpha_star - 0.3) < 1e-10
    assert rep.orbital_distance <= 1e-12
    assert rep.raw_distance > 0.1


def test_align_identical_points():
    action = rotation_action()
    q = polygon_solution(4)
    rep = align_to_orbit(q, q, action)
    assert abs(rep.alpha_star) < 1e-10
    assert rep.orbital_distance <= 1e-13


def test_align_translation_profile():
    params = _bs_params()
    action = translation_action(params)
    base = exact_profile(0.9, params.n, params.half_length).wave
    # shift by two full grid cells: the roll is exact on the grid
    delta = 2 * (2 * params.half_length / params.n)
    rep = align_to_orbit(action.act(delta, base), base, action)
    assert abs(rep.alpha_star - delta) < 1e-8
    assert rep.orbital_distance <= 1e-9


def test_align_never_worse_than_raw():
    rng = np.random.default_rng(11)
    action = rotation_action()
    q = polygon_solution(3)
    cases = [(action, x, q) for x in (q + 0.2 * rng.standard_normal(q.size) for _ in range(5))]
    # translates of the wave pushed off its orbit: align reads the shift from
    # the first Fourier mode, so its element need not be the nearest one. The
    # shifts stay clear of 0, where the clamp to alpha = 0 can take over.
    params = _bs_params()
    action = translation_action(params)
    w = exact_profile(0.9, params.n, params.half_length).wave
    cases += [(action, action.act(delta, w) + 0.05 * rng.standard_normal(w.size), w)
              for delta in (-17.3, -2.6, 0.9, 8.4)]
    for action, x, xref in cases:
        rep = align_to_orbit(x, xref, action)
        assert rep.orbital_distance <= rep.raw_distance
        alpha = action.align(x, xref)
        assert rep.alpha_star == alpha
        assert rep.orbital_distance == np.linalg.norm(x - action.act(alpha, xref))


# ---------------- predict_limit ----------------

def test_predict_limit_generator_perturbation():
    action = rotation_action()
    q = polygon_solution(2)
    g = action.generators(q)[0]
    for eps in (0.5, 0.1):
        alpha = predict_limit(q + eps * g, q, action)
        assert abs(alpha[0] - eps) < 1e-12


def test_predict_limit_orthogonal_perturbation_is_zero():
    action = rotation_action()
    q = polygon_solution(2)
    g = action.generators(q)[0]
    v = np.array([1.0, 0.0, 0.0, 0.0])
    v -= (np.dot(v, g) / np.dot(g, g)) * g
    alpha = predict_limit(q + 0.3 * v, q, action)
    assert abs(alpha[0]) < 1e-12


def test_predict_limit_rejects_degenerate_generators():
    q = polygon_solution(2)
    g = rotation_action().generators(q)[0]
    dup = GroupAction(act=lambda a, x: x, generators=lambda x: [g, g],
                      align=lambda x, xref: 0.0)
    with pytest.raises(ValueError, match="dependent"):
        predict_limit(q + g, q, dup)


# ---------------- prediction consistency on a real solve ----------------

def test_prediction_tracks_converged_shift_quadratically():
    # ones-direction seeds: the linear prediction is 0, and the actual
    # limiting rotation scales like eps^2
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    action = rotation_action()
    qstar = polygon_solution(2)
    ones = np.ones(4)

    shifts = []
    epss = (1e-1, 1e-2, 1e-3)
    for eps in epss:
        x0 = qstar + eps * ones
        pred = predict_limit(x0, qstar, action)
        assert abs(pred[0]) < 1e-12
        out = petviashvili_solve(problem, x0,
                                 SolverConfig(tol_residual=1e-13, max_outer=2000))
        assert out.converged
        rep = align_to_orbit(out.x, qstar, action)
        assert rep.orbital_distance <= 1e-10
        shifts.append(abs(rep.alpha_star))

    slope = np.polyfit(np.log(epss), np.log(shifts), 1)[0]
    assert abs(slope - 2.0) < 0.3
