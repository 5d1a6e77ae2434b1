"""Property tests of the wave problem's translation symmetry."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from orbitfix.boussinesq import BSParams, build_bs_problem, translation_action  # noqa: E402
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
