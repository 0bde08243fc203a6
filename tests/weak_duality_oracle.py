"""Corrected weak duality at every interior-point iterate, checked from the test side.

With r_p = b - A x and r_d = c - A'y - s, an iterate's objectives satisfy

    c'x - b'y = x's + r_d'x - y'r_p,

and x's >= 0 for x and s in the cone (s is 0 on the free scalars).  So

    c'x - b'y + |y'r_p| + |r_d'x| >= 0

holds at every iterate, converged or not.  ``checked()`` wraps
``solver._Ipm._residuals``, which a solve calls once per iteration on its
iterate and once more on the point it returns, and fails the first call
whose iterate breaks this inequality by more than 1e-9 relative to
1 + |c'x| + |b'y| + the correction.
"""

from __future__ import annotations

from contextlib import contextmanager

from sdgames import solver


@contextmanager
def checked():
    """Check every iterate of every solve made inside the block; yields a
    one-entry list that counts the iterates checked."""
    original = solver._Ipm._residuals
    count = [0]

    def residuals(ipm, x, y, s):
        r_p, r_d = original(ipm, x, y, s)
        pobj, dobj = float(ipm.c @ x), float(ipm.beta @ y)
        corr = abs(float(y @ r_p)) + abs(float(r_d @ x))
        assert pobj - dobj + corr >= -1e-9 * (1.0 + abs(pobj) + abs(dobj) + corr), (
            f"weak duality violated at an iterate: pobj={pobj!r} dobj={dobj!r} corr={corr!r}"
        )
        count[0] += 1
        return r_p, r_d

    solver._Ipm._residuals = residuals
    try:
        yield count
    finally:
        solver._Ipm._residuals = original
