"""Pure-Python solver kernels.

This module and the C extension ``_kernels.c`` implement the same two
functions operation-for-operation so that both backends return bit-identical
floats (the compiled module is built with -ffp-contract=off for the same
reason). Keep them in sync when touching either.

``norm_code``: 0 = mean absolute residual, 1 = mean squared residual.
"""

from math import fabs, sqrt

NORM_L1 = 0
NORM_L2 = 1

# Axis moves first, then diagonals; order matters for tie-breaking parity.
_DIRS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
         (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def objective_value(obs_x, obs_y, dist, px, py, norm_code):
    """Per-sample-normalized residual norm of point (px, py)."""
    n = len(obs_x)
    acc = 0.0
    for i in range(n):
        dx = px - obs_x[i]
        dy = py - obs_y[i]
        r = sqrt(dx * dx + dy * dy) - dist[i]
        if norm_code == NORM_L1:
            acc += fabs(r)
        else:
            acc += r * r
    return acc / n


def solve_pattern(obs_x, obs_y, dist, x0, y0, step_init, tol, max_iter, norm_code):
    """Compass/pattern search with step halving.

    Each round probes the 8 compass neighbours at the current step; moves to
    the best strictly-improving candidate (ties broken lexicographically on
    (x, y)), otherwise halves the step. Stops when the step falls below
    ``tol`` (if tol > 0) or after ``max_iter`` rounds; ``tol == 0`` forces
    the full iteration budget, which the runtime profiler relies on.

    Returns (x, y, objective, rounds_used).
    """
    cx = x0
    cy = y0
    fc = objective_value(obs_x, obs_y, dist, cx, cy, norm_code)
    step = step_init
    it = 0
    while it < max_iter:
        it += 1
        improved = False
        bf = fc
        bx = cx
        by = cy
        for ux, uy in _DIRS:
            nx = cx + step * ux
            ny = cy + step * uy
            f = objective_value(obs_x, obs_y, dist, nx, ny, norm_code)
            if f < bf or (improved and f == bf and (nx < bx or (nx == bx and ny < by))):
                improved = True
                bf = f
                bx = nx
                by = ny
        if improved:
            cx = bx
            cy = by
            fc = bf
        else:
            step *= 0.5
            if tol > 0.0 and step < tol:
                break
    return cx, cy, fc, it
