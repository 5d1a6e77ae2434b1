"""End-to-end acceptance checks.

Each test covers one numbered acceptance item and prints a single
"criterion N: PASS/FAIL (...)" line (visible with pytest -s) before
asserting, so a red run still reports every measured quantity.
"""

import time

import numpy as np
import pytest

import orbitfix.boussinesq as bq
import orbitfix.nbody as nb
from orbitfix.numlin import dense_eigenvalues, materialize, reflection_blocks
from orbitfix.periodic import field_center, grid
from orbitfix.solvers import (CONVERGED_RESIDUAL, DIVERGED, SolverConfig, newton_solve,
                              petviashvili_solve)
from orbitfix.symmetry import align_to_orbit, kernel_check
from reference import (convergence_ratios, fd_jacobian, petviashvili_map,
                       reduced_polar_residual)

THETA2 = 0.9


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _closed_form_ring_eigs(m0):
    return sorted([-2.0, 1.0, -8.0 / (m0 + 4.0), 4.0 / (m0 + 4.0)])


def _ring_iteration_jacobian(m0):
    cfg = nb.NBodyConfig(n=2, m0=m0)
    qstar = nb.polygon_solution(2)
    return -nb.hess_U(cfg, qstar) / cfg.omega ** 2


def _wrapped_diff(a, b, span):
    return abs((a - b + span / 2.0) % span - span / 2.0)


# shared expensive solves (criteria 10 and 11 use the same waves)
_WAVE_CACHE = {}


def _solve_unknown_speed(cs):
    if cs not in _WAVE_CACHE:
        profile = bq.exact_profile(THETA2, 512, 50.0)
        params = bq.BSParams(theta2=THETA2, speed=cs, n=512, half_length=50.0)
        problem = bq.build_bs_problem(params)
        # unpreconditioned, undeflated MINRES: criterion 10 asks for the drift
        # along the orbit that round-off gives this path at cs=1.05; the
        # |S|^{-1}-preconditioned, deflated path keeps that wave centred
        config = SolverConfig(tol_residual=1e-11, max_outer=1000, inner_maxit=2500)
        out = newton_solve(problem, profile.wave, config)
        _WAVE_CACHE[cs] = (params, out)
    return _WAVE_CACHE[cs]


def test_criterion_01_fixed_point_spectrum_columns():
    t0 = time.perf_counter()
    published = {
        10.0: [-2.0000, 9.9999e-01, -5.7143e-01, 2.8571e-01],
        5.0: [-2.0000, 1.0000, -8.8888e-01, 4.4444e-01],
        4.0: [-2.0000, 1.0000, -1.0000, 5.0001e-01],
        1.0: [-2.0000, -1.6000, 1.0000, 8.0000e-01],
        0.0: [-2.0000, -2.0000, 1.0000, 1.0000],
    }
    worst_pub = 0.0
    worst_closed = 0.0
    for m0, column in published.items():
        rep = dense_eigenvalues(_ring_iteration_jacobian(m0))
        got = sorted(rep.eigenvalues.real)
        assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-10
        for g, p in zip(got, sorted(column)):
            worst_pub = max(worst_pub, abs(g - p) / abs(p))
        for g, c in zip(got, _closed_form_ring_eigs(m0)):
            worst_closed = max(worst_closed, abs(g - c))
    elapsed = time.perf_counter() - t0
    ok = worst_pub <= 5e-5 and worst_closed <= 1e-10 and elapsed < 1.0
    assert _report(1, ok, f"4-digit rel dev {worst_pub:.2e}, closed-form dev "
                          f"{worst_closed:.2e}, {elapsed:.2f}s")


def test_criterion_02_stabilized_spectrum_filters_homogeneity_mode():
    qstar = nb.polygon_solution(2)
    worst_filtered = 0.0
    worst_rest = 0.0
    for m0 in (10.0, 5.0, 4.0, 1.0, 0.0):
        problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=m0))
        step = petviashvili_map(problem)
        ev = dense_eigenvalues(fd_jacobian(step, qstar)).eigenvalues
        assert np.max(np.abs(ev.imag)) < 1e-4
        ev = sorted(ev.real, key=abs)
        worst_filtered = max(worst_filtered, abs(ev[0]))
        remaining = _closed_form_ring_eigs(m0)
        remaining.remove(-2.0)
        for g, c in zip(sorted(ev[1:]), sorted(remaining)):
            worst_rest = max(worst_rest, abs(g - c))
    ok = worst_filtered <= 1e-5 and worst_rest <= 1e-4
    assert _report(2, ok, f"filtered modulus {worst_filtered:.2e}, "
                          f"surviving-mode dev {worst_rest:.2e}")


def _criterion_03_solve(m0):
    problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=m0))
    x0 = nb.polygon_solution(2) + 0.1 * np.ones(4)
    return petviashvili_solve(problem, x0, SolverConfig(tol_residual=1e-7, max_outer=1000))


def test_criterion_03_convergence_classification():
    t0 = time.perf_counter()
    # m0=4: the stabilized map's eigenvalues are 1 (rotation), -8/(m0+4) = -1
    # and 1/2, so the linearization promises no bounded run. The quadratic
    # terms amplify the neutral oscillation into a collision: at iteration
    # 114 one body is 4.8e-6 from the centre and the other 5.4e11 away.
    # 60-digit arithmetic gives the same status and count (next test).
    expected = {
        10.0: CONVERGED_RESIDUAL,
        5.0: CONVERGED_RESIDUAL,
        4.0: DIVERGED,
        1.0: DIVERGED,
        0.0: DIVERGED,
    }
    got = {}
    counts = {}
    for m0 in expected:
        out = _criterion_03_solve(m0)
        got[m0] = out.status
        counts[m0] = out.iterations
    elapsed = time.perf_counter() - t0
    ok = got == expected and 20 <= counts[10.0] <= 40 and 100 <= counts[5.0] <= 160 \
        and elapsed < 5.0
    detail = ", ".join(f"m0={m0:g}:{got[m0]}@{counts[m0]}" for m0 in expected)
    assert _report(3, ok, detail + f", {elapsed:.2f}s")


def _mp_stabilized_ring_run(mp, m0):
    """Criterion 3's run, re-derived in mpmath at the working precision.

    Own ring constant, coefficients and potential force; same seed, gamma,
    tolerance, divergence cap and iteration cap. Returns (status, iterations).
    """
    n, max_outer = 2, 1000
    m0 = mp.mpf(m0)
    c = sum(1 / mp.sin(mp.pi * k / n) for k in range(1, n)) / 4
    a = (m0 + c) / (1 + m0 * c)
    b = m0 * a
    w2 = m0 + c
    gamma = mp.mpf(2) / 3
    x = [mp.matrix([mp.cos(2 * mp.pi * j / n) + mp.mpf("0.1"),
                    mp.sin(2 * mp.pi * j / n) + mp.mpf("0.1")]) for j in range(1, n + 1)]

    def minus_grad_u(x):
        out = []
        for j in range(n):
            f = a * x[j] / mp.norm(x[j]) ** 3
            for i in range(n):
                if i != j:
                    f += b * (x[j] - x[i]) / mp.norm(x[j] - x[i]) ** 3
            out.append(f)
        return out

    for it in range(max_outer + 1):
        nx = minus_grad_u(x)
        gx = [v / w2 for v in nx]
        residual = mp.sqrt(sum(mp.norm(p - g) ** 2 for p, g in zip(x, gx)))
        if residual > 1e8:
            return "Diverged", it
        if residual <= mp.mpf("1e-7"):
            return "ConvergedResidual", it
        if it == max_outer:
            return "MaxIterations", it
        s = w2 * sum(mp.fdot(p, p) for p in x) / sum(mp.fdot(v, p) for v, p in zip(nx, x))
        if s < 0:
            return "Diverged", it
        x = [s ** gamma * g for g in gx]
    raise AssertionError("unreachable")


def test_criterion_03_statuses_match_60_digit_arithmetic():
    # the float64 sweep is not a round-off artefact: the same map in 60-digit
    # arithmetic stops with the same status at the same iteration
    mpmath = pytest.importorskip("mpmath")
    for m0 in (10.0, 5.0, 4.0, 1.0, 0.0):
        out = _criterion_03_solve(m0)
        with mpmath.mp.workdps(60):
            exact = _mp_stabilized_ring_run(mpmath.mp, m0)
        assert exact == (out.status, out.iterations), f"m0={m0:g}"


def test_criterion_04_orbital_convergence_of_generator_seeds():
    problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=10.0))
    qstar = nb.polygon_solution(2)
    action = nb.rotation_action()
    v = action.generators(qstar)[0]
    parts = []
    ok = True
    for eps in (1.0, 2.0, 4.0):
        out = petviashvili_solve(problem, qstar + eps * v,
                                 SolverConfig(tol_residual=1e-10, max_outer=2000),
                                 reference=qstar)
        rep = align_to_orbit(out.x, qstar, action)
        s_term = out.trace[-1].stab_factor
        # the reference error settles at a positive level (the distance to the
        # reached orbit element) while the residual keeps dropping
        e_final = out.trace[-1].ref_error
        plateau = e_final > 1e-2 and e_final > 1e4 * out.trace[-1].residual
        this_ok = (out.status == CONVERGED_RESIDUAL
                   and rep.orbital_distance <= 1e-6
                   and rep.raw_distance > 1e-2
                   and abs(1.0 - s_term) <= 1e-8
                   and out.trace[-1].residual <= 1e-7
                   and plateau)
        ok = ok and this_ok
        parts.append(f"eps={eps:g}: orbital {rep.orbital_distance:.1e}, "
                     f"raw {rep.raw_distance:.1e}, |1-s| {abs(1.0 - s_term):.1e}")
    assert _report(4, ok, "; ".join(parts))


def test_criterion_05_limit_point_prediction_slope():
    # The seed q* + eps*v, with v the rotation generator at the unit 2-gon, is
    # exactly sqrt(1+eps^2) * R_{arctan eps} q*: a scaled, rotated polygon. The
    # stabilized map is rotation-equivariant and keeps a scaled polygon on its
    # ray, so the limit is R_{arctan eps} q* and |alpha* - eps| = eps - arctan eps
    # = eps^3/3 - ...: slope 3 for every correct solver, inside the quadratic
    # bound that predict_limit promises. Generic seeds show slope 2 in
    # test_symmetry.py::test_prediction_tracks_converged_shift_quadratically.
    problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=10.0))
    qstar = nb.polygon_solution(2)
    action = nb.rotation_action()
    v = action.generators(qstar)[0]
    epss = (1e-1, 1e-2, 1e-3)
    diffs = []
    exact_devs = []
    for eps in epss:
        out = petviashvili_solve(problem, qstar + eps * v,
                                 SolverConfig(tol_residual=1e-13, max_outer=3000))
        assert out.converged
        rep = align_to_orbit(out.x, qstar, action)
        diffs.append(abs(rep.alpha_star - eps))
        exact_devs.append(abs(rep.alpha_star - np.arctan(eps)))
    bounded = all(d <= 10.0 * e ** 2 for d, e in zip(diffs, epss))
    exact = all(d <= 1e-12 for d in exact_devs)
    slope = float(np.polyfit(np.log(epss), np.log(diffs), 1)[0])
    ok = bounded and exact and abs(slope - 3.0) <= 0.3
    assert _report(5, ok, f"|alpha*-eps| = {diffs[0]:.2e}/{diffs[1]:.2e}/{diffs[2]:.2e}, "
                          f"max |alpha*-arctan eps| {max(exact_devs):.1e} (required 1e-12), "
                          f"log-log slope {slope:.2f} (required 3 +- 0.3)")


def test_criterion_06_polar_reduction():
    worst_zero = 0.0
    for m0 in (0.0, 1.0, 4.0, 5.0, 10.0):
        worst_zero = max(worst_zero,
                         float(np.linalg.norm(reduced_polar_residual(1.0, 1.0, np.pi, m0))))
    rng = np.random.default_rng(6)
    worst_change = 0.0
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for _ in range(100):
        m0 = rng.uniform(0.0, 10.0)
        r1, r2 = rng.uniform(0.5, 2.0, size=2)
        theta = rng.uniform(0.3, 2.0 * np.pi - 0.3)
        problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=m0))
        q = np.array([r1, 0.0, r2 * np.cos(theta), r2 * np.sin(theta)])
        F = problem.F(q)
        f1, f2 = F[:2], F[2:]
        u1, u2 = q[:2] / r1, q[2:] / r2
        full = np.array([np.dot(f1, u1), np.dot(f2, u2),
                         r1 * np.dot(f1, rot @ u1) - r2 * np.dot(f2, rot @ u2)])
        reduced = reduced_polar_residual(r1, r2, theta, m0)
        worst_change = max(worst_change, float(np.max(np.abs(reduced - full))))
    ok = worst_zero <= 1e-12 and worst_change <= 1e-10
    assert _report(6, ok, f"residual at the ring {worst_zero:.2e}, "
                          f"change-of-variables dev {worst_change:.2e}")


def test_criterion_07_wave_profile_residual_and_spectrum():
    t0 = time.perf_counter()
    profile = bq.exact_profile(THETA2, 1024, 50.0)
    params = bq.BSParams(theta2=THETA2, speed=profile.speed, n=1024, half_length=50.0)
    problem = bq.build_bs_problem(params)
    w = profile.wave
    fnorm = float(np.linalg.norm(problem.F(w)))
    rep = dense_eigenvalues(reflection_blocks(problem.jacobian_at(w)))
    vals = rep.eigenvalues.real
    near_zero = int(np.count_nonzero(np.abs(rep.eigenvalues) <= 1e-8))
    elapsed = time.perf_counter() - t0
    ok = (fnorm <= 1e-10 and near_zero == 1
          and vals.max() > 0.0 and vals.min() < 0.0 and elapsed < 120.0)
    assert _report(7, ok, f"|F| {fnorm:.3e}, near-zero eigenvalues {near_zero}, "
                          f"range [{vals.min():.2f}, {vals.max():.2f}], {elapsed:.1f}s")


def test_criterion_08_newton_pcg_recentering():
    t0 = time.perf_counter()
    n = 512
    profile = bq.exact_profile(THETA2, n, 50.0)
    params = bq.BSParams(theta2=THETA2, speed=profile.speed, n=n, half_length=50.0)
    problem = bq.build_bs_problem(params)
    x = grid(n, 50.0)
    bump = 0.05 * np.exp(-x ** 2)
    w0 = profile.wave + np.concatenate([bump, bump])
    out = newton_solve(problem, w0,
                       SolverConfig(tol_residual=1e-12, max_outer=1000, inner_maxit=500),
                       reference=profile.wave,
                       precond=bq.precond_operator(params),
                       generators=bq.translation_action(params).generators)
    xc = field_center(out.x[n:], 50.0)
    ratios = convergence_ratios([row.residual for row in out.trace])
    bounded = bool(np.all(np.isfinite(ratios)) and (ratios.size == 0 or ratios.max() <= 10.0))
    elapsed = time.perf_counter() - t0
    ok = (out.status == CONVERGED_RESIDUAL and out.trace[-1].residual <= 1e-12
          and abs(xc) <= 1e-6 and bounded and elapsed < 60.0)
    assert _report(8, ok, f"residual {out.trace[-1].residual:.3e} after "
                          f"{out.iterations} steps, center {xc:.2e}, "
                          f"max ratio {ratios.max() if ratios.size else 0.0:.2f}, "
                          f"{elapsed:.1f}s")


def test_criterion_09_shift_family_reproduction():
    n = 1024
    profile = bq.exact_profile(THETA2, n, 50.0)
    params = bq.BSParams(theta2=THETA2, speed=profile.speed, n=n, half_length=50.0)
    problem = bq.build_bs_problem(params)
    w = profile.wave
    # seeds displaced along the translation generator -w', as bs shift-table builds them
    generator = bq.translation_action(params).generators(w)[0]
    expected = {0.1: -9.9534e-2, 0.05: -4.9941e-2, 0.01: -9.9995e-3, 0.005: -4.9999e-3}
    config = SolverConfig(tol_residual=1e-11, max_outer=1000, inner_maxit=500)
    precond = bq.precond_operator(params)
    generators = bq.translation_action(params).generators
    ok = True
    parts = []
    for eps, ref_shift in expected.items():
        w0 = w - eps * generator
        out = newton_solve(problem, w0, config, reference=w, precond=precond,
                           generators=generators)
        u, eta = out.x.reshape(2, n)
        xu, xe = field_center(u, 50.0), field_center(eta, 50.0)
        rel = abs(xu - ref_shift) / abs(ref_shift)
        this_ok = out.converged and rel <= 1e-3 and abs(xu - xe) <= 1e-10
        ok = ok and this_ok
        parts.append(f"eps={eps:g}: shift {xu:.6e} rel dev {rel:.2e}"
                     + ("" if this_ok else " <-")
                     + f", |xu-xeta| {abs(xu - xe):.1e}")
    assert _report(9, ok, "; ".join(parts))


def test_criterion_10_unknown_speed_waves():
    ok = True
    parts = []
    for cs in (1.05, 1.2):
        params, out = _solve_unknown_speed(cs)
        u, eta = out.x.reshape(2, params.n)
        xu, xe = field_center(u, 50.0), field_center(eta, 50.0)
        this_ok = (out.status == CONVERGED_RESIDUAL
                   and out.trace[-1].residual <= 1e-11
                   and abs(xu - xe) <= 1e-10)
        if cs == 1.05:
            this_ok = this_ok and abs(xu) > 1e-4
        ok = ok and this_ok
        parts.append(f"cs={cs:g}: {out.status}@{out.iterations}, "
                     f"residual {out.trace[-1].residual:.2e}, shift {xu:.4e}, "
                     f"|xu-xeta| {abs(xu - xe):.1e}")
    assert _report(10, ok, "; ".join(parts))


def test_criterion_11_propagation_of_computed_wave():
    t0 = time.perf_counter()
    params, solved = _solve_unknown_speed(1.2)
    assert solved.converged
    w0 = solved.x
    span = 2.0 * params.half_length
    start = field_center(w0[params.n:], params.half_length)

    t_end = 100.0
    result = bq.propagate(w0, params, dt=0.01, t_end=t_end)
    final = result.states[-1]
    center = field_center(final[params.n:], params.half_length)
    center_err = _wrapped_diff(center, start + params.speed * t_end, span)
    aligned = bq.translation_action(params).act(center - start, w0)
    shape_err = float(np.linalg.norm(final - aligned) / np.linalg.norm(w0))

    ref = bq.propagate(w0, params, dt=0.0025, t_end=1.0).states[-1]
    dts = (0.04, 0.02, 0.01)
    errs = [float(np.linalg.norm(bq.propagate(w0, params, dt=dt, t_end=1.0).states[-1] - ref))
            for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (result.completed and center_err <= 1e-3 and shape_err <= 1e-3
          and abs(slope - 4.0) <= 0.5 and elapsed < 300.0)
    assert _report(11, ok, f"center dev {center_err:.2e}, shape dev {shape_err:.2e}, "
                           f"time order {slope:.2f}, {elapsed:.1f}s")


def test_criterion_12_symmetry_invariant_suite():
    checks = {}

    # equivariance: ring problem under rotations
    problem = nb.build_nbody(nb.NBodyConfig(n=2, m0=10.0))
    action = nb.rotation_action()
    q = nb.polygon_solution(2) + 0.05 * np.array([1.0, -2.0, 0.5, 1.5])
    dev = 0.0
    for alpha in (0.4, -1.3):
        dev = max(dev, abs(np.linalg.norm(problem.F(action.act(alpha, q)))
                           - np.linalg.norm(problem.F(q))))
        dev = max(dev, float(np.max(np.abs(
            problem.G(action.act(alpha, q)) - action.act(alpha, problem.G(q))))))
    checks["ring equivariance"] = (dev, 1e-10)

    # equivariance: wave problem under grid translations
    n = 128
    prof = bq.exact_profile(THETA2, n, 25.0)
    params = bq.BSParams(theta2=THETA2, speed=prof.speed, n=n, half_length=25.0)
    wave_problem = bq.build_bs_problem(params)
    rng = np.random.default_rng(12)
    w = prof.wave + 0.01 * rng.standard_normal(2 * n)

    def roll(v, k):
        return np.concatenate([np.roll(v[:n], k), np.roll(v[n:], k)])

    dev = 0.0
    for k in (1, 17):
        dev = max(dev, float(np.max(np.abs(
            wave_problem.F(roll(w, k)) - roll(wave_problem.F(w), k)))))
    checks["wave equivariance"] = (dev, 1e-8)

    # kernel along the generators at solutions
    checks["ring kernel"] = (kernel_check(problem, nb.polygon_solution(2), action), 1e-6)
    prof512 = bq.exact_profile(THETA2, 512, 50.0)
    params512 = bq.BSParams(theta2=THETA2, speed=prof512.speed, n=512, half_length=50.0)
    problem512 = bq.build_bs_problem(params512)
    checks["wave kernel"] = (
        kernel_check(problem512, prof512.wave, bq.translation_action(params512)),
        1e-6)

    # the spectrum is constant along an orbit
    base = sorted(dense_eigenvalues(_ring_iteration_jacobian(10.0)).eigenvalues.real)
    cfg10 = nb.NBodyConfig(n=2, m0=10.0)
    rotated_q = action.act(0.7, nb.polygon_solution(2))
    rot_eigs = sorted(dense_eigenvalues(
        -nb.hess_U(cfg10, rotated_q) / cfg10.omega ** 2
    ).eigenvalues.real)
    checks["ring orbit spectrum"] = (float(np.max(np.abs(np.array(base) - rot_eigs))), 1e-6)

    ev_here = np.sort(dense_eigenvalues(materialize(wave_problem.jacobian_at(w))).eigenvalues.real)
    ev_there = np.sort(dense_eigenvalues(
        materialize(wave_problem.jacobian_at(roll(w, 17)))).eigenvalues.real)
    checks["wave orbit spectrum"] = (float(np.max(np.abs(ev_here - ev_there))), 1e-6)

    # generators are eigenvectors: unit eigenvalue of the iteration map,
    # null vector of the Jacobian
    g = action.generators(nb.polygon_solution(2))[0]
    jg = _ring_iteration_jacobian(10.0) @ g
    checks["ring unit eigenvector"] = (
        float(np.linalg.norm(jg - g) / np.linalg.norm(g)), 1e-8)

    jac = materialize(problem512.jacobian_at(prof512.wave))
    vals, vecs = np.linalg.eigh(jac)
    null_vec = vecs[:, int(np.argmin(np.abs(vals)))]
    gw = bq.translation_action(params512).generators(prof512.wave)[0]
    cosine = abs(float(np.dot(null_vec, gw)) / np.linalg.norm(gw))
    checks["wave null eigenvector"] = (1.0 - cosine, 1e-6)

    ok = all(value <= bar for value, bar in checks.values())
    detail = ", ".join(f"{name} {value:.1e}" + ("" if value <= bar else " <-")
                       for name, (value, bar) in checks.items())
    assert _report(12, ok, detail)
