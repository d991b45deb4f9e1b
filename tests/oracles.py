"""Pair-measure references that no estimator under test produces.

`BUMP2_MU` maps lambda / lip_bound to mu(E_lambda) for the catalogue's bump2
at p = 1, alpha = 3.  The values come from the radial reduction of a radial
field's pair set: with x = s theta, y = t eta and beta the angle between
theta and eta, the pair condition |x - y| <= rho(s, t) is a bound on cos
beta, so the angular integral is closed form (2-D: the angle beta* itself)
and mu is a 2-D integral in (s, t), split at t = s and at the band edges
rho = |s - t| and rho = s + t.  They are stable to 2e-7 between 40 and 80
Gauss panels in s.

`BUMP3_MU` maps p, then lambda / lip_bound, to mu(E_lambda) for the
catalogue's bump3 at alpha = 3/p + 1, by the same reduction in 3-D, where
the angular integral is 1 - cos beta*.  The values are stable to 1.2e-7
between 80 and 160 Gauss panels in s (7.3696631 and 7.3696622 at p = 1,
0.5 lip_bound; the others agree to the digits given).  They are the
reference of the Monte Carlo estimator, whose standard errors at 150k
samples are above 6e-3 relative, far coarser than the pins.

`JUMP_LAM_MU` is lambda mu(E_lambda) for an indicator 1_[a, b] in 1-D at
p = 1, alpha = 2 and every lambda >= (b - a)^-2.  A pair differs by 1 when
exactly one end lies in I = [a, b] and by 0 otherwise, so it is a member
exactly when one end is in I and |x - y| <= d = lambda^-1/2 <= b - a.  For
x in I the y outside I within d fill max(0, d - (x - a)) + max(0, d - (b -
x)); over x in I each end gives d^2 / 2, so one order of the pair gives
d^2, both give 2 d^2 = 2 / lambda, and lambda mu = 2 whatever a, b and
lambda.  A smooth field instead tends to `JUMP_SMOOTH_LIMIT`, the W^{1,1}
limit k(1, 1) int |u'| = 2 * 2 = 4 of a mollified indicator of total
variation 2: the jump reads half of it.

`truncated_seminorm_1d` is the s = 1, p = 1 seminorm of a 1-D field over
pairs no shorter than a cutoff, by a layer-cake identity.

`rotated(f, theta)` is u(R x) for a 2-D field u and the rotation R by
theta.  It has exactly u's pair measures, seminorms and certified bounds,
but the x grid and the sphere rule are not rotation invariant, so each copy
reads them with its own discretization error: two copies with values v_i,
v_j and error estimates e_i, e_j can both be covered only if |v_i - v_j| <=
e_i + e_j, a floor under the estimates that needs no reference value.
"""
import math

import numpy as np

from weaklp import quadrature as Q

BUMP2_MU = {4.0: 0.769069, 100.0: 0.0330774}
BUMP3_MU = {1.0: {0.5: 7.3696631, 4.0: 1.0507712, 100.0: 0.04557438}, 2.0: {4.0: 0.12613415}}
JUMP_LAM_MU = 2.0
JUMP_SMOOTH_LIMIT = 4.0


def truncated_seminorm_1d(f, delta, panels=100):
    """iint_{|x-y| >= delta} |u(x) - u(y)| / |x-y|^2 dx dy for a 1-D field u,
    even and nonincreasing on [0, R] (R its support radius).

    Layer cake: |u(x+r) - u(x)| is the measure of the t in (0, max u) where
    exactly one of u(x+r), u(x) exceeds t; integrated over x, each t gives
    the symmetric difference of a level interval of length L(t) and its shift
    by r, of measure 2 min(r, L(t)).  Both signs of r give
    V = 4 int_0^max u g(L(t)) dt, g(L) = int_delta^oo min(r, L) r^-2 dr,
    that is L/delta for L <= delta and 1 + log(L/delta) above; with t = u(x),
    L = 2x on the right flank, V = 4 int_0^R g(2x) (-u'(x)) dx, one smooth
    1-D integral on each side of the kink at x = delta/2.
    """
    R = f.support_radius
    kink = min(delta / 2.0, R)
    out = 0.0
    for lo, hi in ((0.0, kink), (kink, R)):
        x, w = Q.composite_gauss(lo, hi, panels)
        g = np.minimum(2.0 * x / delta, 1.0 + np.log(np.maximum(2.0 * x / delta, 1.0)))
        out += 4.0 * float(np.sum(w * g * -f.gradient(x[:, None])[:, 0]))
    return out


class _Rotated:
    """u(R x): the rotation applied before every read of the base field,
    whose other attributes (dim, support_radius, the bounds, scan_dtype)
    hold as they are."""

    def __init__(self, base, theta):
        c, s = math.cos(theta), math.sin(theta)
        self.base, self.rot = base, np.array([[c, -s], [s, c]])

    def __getattr__(self, name):
        return getattr(self.base, name)

    def evaluate(self, pts):
        return self.base.evaluate(np.asarray(pts) @ self.rot.T)

    def gradient(self, pts):
        return self.base.gradient(np.asarray(pts) @ self.rot.T) @ self.rot

    def along(self, xs, ws):
        # (N, k) axis-major rays: R x + r R w, read through the base's binding
        return self.base.along(self.rot @ xs, self.rot @ ws)

    def segments_meet_support(self, X, W, length):
        return self.base.segments_meet_support(np.asarray(X) @ self.rot.T, np.asarray(W) @ self.rot.T, length)


def rotated(f, theta):
    """The 2-D field u(R x), R the rotation by theta (radians)."""
    if f.dim != 2:
        raise ValueError("rotated copies are 2-D")
    return _Rotated(f, theta)
