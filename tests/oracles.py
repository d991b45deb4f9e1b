"""Pair-measure references that no estimator under test produces.

`BUMP2_MU` maps lambda / lip_bound to mu(E_lambda) for the catalogue's bump2
at p = 1, alpha = 3.  The values come from the radial reduction of a radial
field's pair set: with x = s theta, y = t eta and beta the angle between
theta and eta, the pair condition |x - y| <= rho(s, t) is a bound on cos
beta, so the angular integral is closed form (2-D: the angle beta* itself)
and mu is a 2-D integral in (s, t), split at t = s and at the band edges
rho = |s - t| and rho = s + t.  They are stable to 2e-7 between 40 and 80
Gauss panels in s.
"""

BUMP2_MU = {4.0: 0.769069, 100.0: 0.0330774}
