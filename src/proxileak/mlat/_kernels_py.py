"""Pure-Python solver kernels.

This module and the C extension ``_kernels.c`` return bit-identical floats
because every candidate point is scored with the same operations in the
same order, not because the loops look alike: each candidate coordinate is
``c + step * u``, each residual is ``sqrt(dx * dx + dy * dy) - d``, each
candidate's residuals are summed in sample order and divided by the sample
count, and the 8 compass candidates are compared in one fixed order with
the same tie-break. Here one pass over the samples scores all 8 candidates
of a round, sharing the offsets ``dx``, ``dy`` and their squares between
the candidates on the same row or column; the C kernel scores one
candidate per pass. The compiled module is built with -ffp-contract=off so
that no multiply-add is fused. Keep the two files in step.

``norm_code``: 0 = mean absolute residual, 1 = mean squared residual.
"""

from math import fabs, sqrt

NORM_L1 = 0
NORM_L2 = 1

# Offsets along one axis: +step, -step, and the centre line. A round's
# candidates, axis moves first and then diagonals (order matters for the
# tie-break), are (hi, mid), (lo, mid), (mid, hi), (mid, lo), (hi, hi),
# (hi, lo), (lo, hi), (lo, lo) in (x, y). The centre line is c + step * 0.0,
# not c: the two differ when c is -0.0 or step is inf.
_UNITS = (1.0, -1.0, 0.0)


def _check(obs_x, obs_y, dist):
    n = len(obs_x)
    if n == 0 or len(obs_y) != n or len(dist) != n:
        raise ValueError("sample buffers must be non-empty and equally long")
    return n


def _ring_sums_l1(rows, xhi, xlo, xmid, yhi, ylo, ymid):
    s0 = s1 = s2 = s3 = s4 = s5 = s6 = s7 = 0.0
    for x, y, d in rows:
        dx = xhi - x
        hx = dx * dx
        dx = xlo - x
        lx = dx * dx
        dx = xmid - x
        mx = dx * dx
        dy = yhi - y
        hy = dy * dy
        dy = ylo - y
        ly = dy * dy
        dy = ymid - y
        my = dy * dy
        s0 += fabs(sqrt(hx + my) - d)
        s1 += fabs(sqrt(lx + my) - d)
        s2 += fabs(sqrt(mx + hy) - d)
        s3 += fabs(sqrt(mx + ly) - d)
        s4 += fabs(sqrt(hx + hy) - d)
        s5 += fabs(sqrt(hx + ly) - d)
        s6 += fabs(sqrt(lx + hy) - d)
        s7 += fabs(sqrt(lx + ly) - d)
    return s0, s1, s2, s3, s4, s5, s6, s7


def _ring_sums_l2(rows, xhi, xlo, xmid, yhi, ylo, ymid):
    s0 = s1 = s2 = s3 = s4 = s5 = s6 = s7 = 0.0
    for x, y, d in rows:
        dx = xhi - x
        hx = dx * dx
        dx = xlo - x
        lx = dx * dx
        dx = xmid - x
        mx = dx * dx
        dy = yhi - y
        hy = dy * dy
        dy = ylo - y
        ly = dy * dy
        dy = ymid - y
        my = dy * dy
        r = sqrt(hx + my) - d
        s0 += r * r
        r = sqrt(lx + my) - d
        s1 += r * r
        r = sqrt(mx + hy) - d
        s2 += r * r
        r = sqrt(mx + ly) - d
        s3 += r * r
        r = sqrt(hx + hy) - d
        s4 += r * r
        r = sqrt(hx + ly) - d
        s5 += r * r
        r = sqrt(lx + hy) - d
        s6 += r * r
        r = sqrt(lx + ly) - d
        s7 += r * r
    return s0, s1, s2, s3, s4, s5, s6, s7


def objective_value(obs_x, obs_y, dist, px, py, norm_code):
    """Per-sample-normalized residual norm of point (px, py)."""
    n = _check(obs_x, obs_y, dist)
    acc = 0.0
    if norm_code == NORM_L1:
        for x, y, d in zip(obs_x, obs_y, dist):
            dx = px - x
            dy = py - y
            acc += fabs(sqrt(dx * dx + dy * dy) - d)
    else:
        for x, y, d in zip(obs_x, obs_y, dist):
            dx = px - x
            dy = py - y
            r = sqrt(dx * dx + dy * dy) - d
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
    n = _check(obs_x, obs_y, dist)
    rows = list(zip(obs_x, obs_y, dist))
    ring_sums = _ring_sums_l1 if norm_code == NORM_L1 else _ring_sums_l2
    cx = x0
    cy = y0
    fc = objective_value(obs_x, obs_y, dist, cx, cy, norm_code)
    step = step_init
    it = 0
    while it < max_iter:
        it += 1
        xhi, xlo, xmid = [cx + step * u for u in _UNITS]
        yhi, ylo, ymid = [cy + step * u for u in _UNITS]
        sums = ring_sums(rows, xhi, xlo, xmid, yhi, ylo, ymid)
        candidates = ((xhi, ymid), (xlo, ymid), (xmid, yhi), (xmid, ylo),
                      (xhi, yhi), (xhi, ylo), (xlo, yhi), (xlo, ylo))
        improved = False
        bf = fc
        bx = cx
        by = cy
        for (nx, ny), acc in zip(candidates, sums):
            f = acc / n
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
