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

`truncated_seminorm_1d` is the s = 1, p = 1 seminorm of a 1-D field over
pairs no shorter than a cutoff, by a layer-cake identity.
"""
import numpy as np

from weaklp import quadrature as Q

BUMP2_MU = {4.0: 0.769069, 100.0: 0.0330774}
BUMP3_MU = {1.0: {0.5: 7.3696631, 4.0: 1.0507712, 100.0: 0.04557438}, 2.0: {4.0: 0.12613415}}


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
