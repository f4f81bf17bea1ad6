"""Bounded, damped least squares: the one solver of the arc and CW g2 fits."""

from __future__ import annotations

import numpy as np

# An exact arc or a CW histogram converges in a few dozen steps; a jittered
# short arc, whose objective is a long flat valley, may need hundreds.
MAX_STEPS = 300


def least_squares(fun, x0, bounds=None):
    """Minimize ``|r(x)|^2``, in the box ``bounds = (lower, upper)`` if given.

    ``fun(x)`` returns r and its Jacobian J. Each step solves
    ``(J^T J + damping diag(J^T J)) step = -J^T r`` and is clipped into the
    box. Nielsen's rule sets the damping from the ratio of actual to
    predicted decrease; only steps that lower the objective are taken.
    Returns ``(x, r, J, converged)`` at the lowest iterate, converged once
    every component of a step is at most ``1e-12 * max(|x|, 1)``.
    """
    x = np.asarray(x0, dtype=float)
    if bounds is not None:
        lower, upper = np.asarray(bounds, dtype=float)
        x = np.clip(x, lower, upper)
    r, jac = fun(x)
    cost = float(r @ r)
    damping, growth, moved = 1e-3, 2.0, True
    for _ in range(MAX_STEPS):
        if moved:  # the linear model at x
            grad, hess = jac.T @ r, jac.T @ jac
            held, rhs = hess, -grad
            if bounds is not None:
                # A parameter on a bound that descent pushes outward is held
                # there: its row and column keep only the damping, so it
                # takes no step.
                free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
                held, rhs = hess * np.outer(free, free), rhs * free
            diagonal = hess.diagonal()
            scale = np.where(diagonal > 0.0, diagonal, 1.0)  # a zero column scaled by one
            tol = 1e-12 * np.maximum(np.abs(x), 1.0)
            damped = held.copy()  # held, with the damping on its diagonal
            damped_diagonal = damped.reshape(-1)[:: x.size + 1]  # a view that writes damped
        np.add(held.diagonal(), damping * scale, out=damped_diagonal)
        try:
            step = np.linalg.solve(damped, rhs)
        except np.linalg.LinAlgError:  # damping lost to underflow: refuse, as below
            damping, growth, moved = growth * damping, 2.0 * growth, False
            continue
        trial = x + step
        if bounds is not None:
            trial = np.clip(trial, lower, upper)
            step = trial - x
        trial_r, trial_jac = fun(trial)
        trial_cost = float(trial_r @ trial_r)  # NaN for a spoiled step, which is refused
        moved = trial_cost < cost
        if moved:
            predicted = -(2.0 * (grad @ step) + step @ hess @ step)  # by the linear model
            gain = (cost - trial_cost) / predicted if predicted > 0.0 else 1.0
            x, r, jac, cost = trial, trial_r, trial_jac, trial_cost
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
        else:
            damping, growth = growth * damping, 2.0 * growth
        if (np.abs(step) <= tol).all():
            return x, r, jac, True
    return x, r, jac, False
