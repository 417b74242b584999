"""Closed forms of the interferometers that the tests check the engine against.

Each is worked out from the physical conventions alone and takes plain
floats, so it stays independent of the package under test.  Keep this
module free of imports from ``mzpair``.

Conventions mirrored (they are the contract, not the implementation):

* first splitter   s -> i*r*u + t*v
* second splitter  u -> r*c + i*t*d,  v -> i*t*c + r*d
* phase coupling multiplies the joint (v, v) amplitude by exp(i*phi)
"""

from __future__ import annotations

import cmath
import math


def splitter_amplitudes(r_squared: float) -> dict[str, float]:
    """Transmission and reflection amplitudes ``t`` and ``r`` of a splitter of reflectance ``r_squared``."""
    return {"t": math.sqrt(1.0 - r_squared), "r": math.sqrt(r_squared)}


def dark_port_coefficient(r: float, t: float, phi: float) -> complex:
    """Joint bright-port amplitude of the phase-coupled pair with no in-arm detectors.

    The ``(C, C)`` amplitude collapses to ``-(r^4 + 2 r^2 t^2 + t^4 e^{i phi})``;
    at ``phi = 0`` this is exactly ``-1`` and every other joint outcome is dark.
    """
    r_sq = r * r
    t_sq = t * t
    return -(r_sq * r_sq + 2.0 * r_sq * t_sq + t_sq * t_sq * cmath.exp(1j * phi))


def dark_port_tuning(phi: float) -> float | None:
    """Splitter ratio ``r`` that nulls the joint bright-port amplitude, or None.

    The amplitude -(r^4 + 2 r^2 t^2 + t^4 e^{i phi}) has imaginary part
    proportional to sin(phi), so a true zero needs sin(phi) = 0; and on the
    cos(phi) = +1 branch the magnitude is identically 1.  Only the opposite
    branch admits a root, found here by bisection in x = r^2.
    """
    if abs(math.sin(phi)) > 1e-12 or math.cos(phi) >= 0.0:
        return None
    c = math.cos(phi)  # -1 up to rounding

    def real_amp(x: float) -> float:
        return x * x + 2.0 * x * (1.0 - x) + (1.0 - x) * (1.0 - x) * c

    lo, hi = 0.0, 0.5  # real_amp(0) = c < 0 < real_amp(0.5)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if real_amp(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return math.sqrt(0.5 * (lo + hi))
