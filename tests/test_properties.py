"""Property tests of the built-in problems' symmetries.

The wave problem is equivariant under translations; the ring potential is
equivariant under global rotations and under relabelling the bodies together
with their masses.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from orbitfix.boussinesq import BSParams, build_bs_problem, translation_action  # noqa: E402
from orbitfix.nbody import NBodyConfig, grad_U, hess_U, polygon_solution  # noqa: E402
from orbitfix.numlin import fourier_apply  # noqa: E402

N, L = 64, 10.0
PARAMS = BSParams(theta2=0.9, speed=1.3, n=N, half_length=L)
STATES = arrays(np.float64, 2 * N, elements=st.floats(-1.0, 1.0))
SHIFTS = st.floats(-L, L)
PROPERTY = settings(max_examples=40, deadline=None, database=None)

# A real field's Nyquist coefficient is real, so it cannot carry the
# fractional phase exp(-i xi alpha): act keeps only the real part of that
# mode, and act(a, act(b, w)) = act(a + b, w) holds only once the mode is
# removed. On a random state with the mode present, act(-0.3, act(0.3, w))
# misses w by about 2e-3 at N = 64, L = 10.
NO_NYQUIST = np.ones(N)
NO_NYQUIST[N // 2] = 0.0


@PROPERTY
@given(STATES, SHIFTS, SHIFTS)
def test_act_composes_on_states_without_nyquist_mode(w, a, b):
    act = translation_action(PARAMS).act
    w = fourier_apply(NO_NYQUIST, w)
    assert np.allclose(act(a, act(b, w)), act(a + b, w), rtol=0.0, atol=1e-12)


@PROPERTY
@given(STATES, st.integers(0, N - 1))
def test_residual_is_equivariant_under_grid_rolls(w, k):
    F = build_bs_problem(PARAMS).F

    def roll(v):
        return np.concatenate([np.roll(v[:N], k), np.roll(v[N:], k)])

    assert np.allclose(F(roll(w)), roll(F(w)), rtol=0.0, atol=1e-10)


# ---------------- ring potential ----------------

@st.composite
def rings(draw):
    """A ring with unequal masses and a state near its regular polygon."""
    n = draw(st.integers(2, 8))
    masses = draw(arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
    cfg = NBodyConfig(n=n, m0=draw(st.floats(0.0, 10.0)), masses=tuple(masses))
    noise = draw(arrays(np.float64, 2 * n, elements=st.floats(-0.1, 0.1)))
    return cfg, polygon_solution(n) + noise


def _close(got, want):
    return np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


@PROPERTY
@given(rings(), st.floats(-np.pi, np.pi))
def test_ring_potential_is_rotation_equivariant(ring, alpha):
    cfg, q = ring
    c, s = np.cos(alpha), np.sin(alpha)
    R = np.kron(np.eye(cfg.n), np.array([[c, -s], [s, c]]))
    assert _close(grad_U(cfg, R @ q), R @ grad_U(cfg, q))
    assert _close(hess_U(cfg, R @ q), R @ hess_U(cfg, q) @ R.T)


@PROPERTY
@given(rings(), st.data())
def test_ring_potential_is_relabelling_equivariant(ring, data):
    cfg, q = ring
    perm = np.array(data.draw(st.permutations(range(cfg.n))))
    idx = (2 * perm[:, None] + np.array([0, 1])).ravel()
    relabelled = NBodyConfig(n=cfg.n, m0=cfg.m0, masses=tuple(np.asarray(cfg.masses)[perm]))
    assert _close(grad_U(relabelled, q[idx]), grad_U(cfg, q)[idx])
    assert _close(hess_U(relabelled, q[idx]), hess_U(cfg, q)[np.ix_(idx, idx)])
