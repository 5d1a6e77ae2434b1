import numpy as np
import pytest

from orbitfix.periodic import field_center, fourier_symbols, grid, periodic_wrap, translations
from test_numlin import _derivative


# ---------------- fourier_symbols ----------------

def test_fourier_symbols_are_cached_and_read_only():
    xi, d1 = fourier_symbols(16, 2.0)
    assert all(a is b for a, b in zip(fourier_symbols(16, 2.0), (xi, d1)))
    for a in (xi, d1):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_fourier_symbols_zero_the_nyquist_first_derivative():
    # modes 0..8 of 16 samples on [-2, 2): xi = m pi/2, the Nyquist mode last and positive
    xi, d1 = fourier_symbols(16, 2.0)
    assert np.allclose(xi, 0.5 * np.pi * np.arange(9), rtol=1e-15, atol=0.0)
    assert xi[-1] > 0.0 and d1[-1] == 0.0
    assert np.array_equal(d1[:-1], 1j * xi[:-1])


def test_fourier_symbols_keep_the_highest_mode_of_an_odd_grid():
    # an odd grid has no Nyquist mode: its highest modes +-3 (n = 7) are a conjugate pair
    n, L = 7, np.pi
    xi, d1 = fourier_symbols(n, L)
    assert xi.shape == (4,) and np.array_equal(d1, 1j * xi)
    x = -L + (2 * L / n) * np.arange(n)
    assert np.allclose(_derivative(np.sin(3 * x), L, 1), 3 * np.cos(3 * x), rtol=0.0, atol=1e-13)


# ---------------- translations, centre and wrap ----------------

@pytest.mark.parametrize("k", [1, 3])
def test_translations_act_on_each_field_of_any_stack_as_on_two(k):
    # a stack of k fields, shifted or differentiated, is field by field the two-field result
    n, L = 64, 5.0
    act, generators = translations(n, L)
    fields = np.random.default_rng(k).standard_normal((k, n))
    # each field paired with the next, cyclically: the partner must not leak in
    pairs = [np.concatenate([f, g]) for f, g in zip(fields, np.roll(fields, -1, axis=0))]
    for alpha in (0.3, -1.7):
        shifted = act(alpha, fields.reshape(-1)).reshape(k, n)
        for f, pair in zip(shifted, pairs):
            assert np.array_equal(f, act(alpha, pair)[:n])
    derivative = generators(fields.reshape(-1))[0].reshape(k, n)
    for f, pair in zip(derivative, pairs):
        assert np.array_equal(f, generators(pair)[0][:n])


def test_field_center_is_none_without_a_first_mode():
    n, L = 64, 5.0
    x = grid(n, L)
    assert field_center(np.zeros(n), L) is None
    assert field_center(np.cos(2.0 * np.pi * x / L), L) is None
    # a periodic bump, even about 1.25
    assert abs(field_center(np.exp(np.cos(np.pi * (x - 1.25) / L)), L) - 1.25) < 1e-12


def test_periodic_wrap_reads_the_left_end_as_the_right():
    assert periodic_wrap(-5.0, 5.0) == 5.0
    assert periodic_wrap(5.0, 5.0) == 5.0
    assert periodic_wrap(7.5, 5.0) == -2.5
