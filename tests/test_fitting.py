"""The bounded, damped least-squares solver."""

import numpy as np
import pytest

from fiberqkd.fitting import least_squares


def test_zero_jacobian_converges_where_it_starts():
    def flat(x):
        return np.array([1.0, -2.0]), np.zeros((2, 2))

    x, r, _, converged = least_squares(flat, [0.5, 3.0], ([0.0, 0.0], [1.0, 10.0]))
    assert converged
    assert x.tolist() == [0.5, 3.0] and r.tolist() == [1.0, -2.0]


def test_singular_damped_system_is_a_refused_step():
    """A Jacobian that is zero to working precision, on a bound that descent
    pushes against: the parameter is held, its damping underflows to zero
    and the damped system is singular. The solver damps harder instead of
    raising ``LinAlgError``."""
    def vanishing(x):
        return np.array([x[0] - 2.0, 1e-100]), np.array([[1.0, 0.0], [0.0, 3e-162]])

    x, _, _, converged = least_squares(vanishing, [0.0, 0.0], ([-5.0, 0.0], [5.0, 1.0]))
    assert converged
    assert x[0] == pytest.approx(2.0, abs=1e-12) and x[1] == 0.0
