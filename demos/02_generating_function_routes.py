#!/usr/bin/env python3
"""Three independent routes to G(t, q) and where each one works.

The truncated double series, the ratio of alternating q-series, and the
continued fraction agree inside the finite-size region; only the continued
fraction continues past the pole boundary.
"""

import math

from dyckarea import EvalSettings, contour_h, eval_G_truncated, g_cfrac, g_ratio, h_series, t_infinity

q = 0.5
settings = EvalSettings(q=q)
boundary = t_infinity(q)
print(f"pole boundary at q = {q}: t_inf = {boundary:.8f}\n")

print(" t      series(N=60)      ratio H(qt)/H(t)   continued fraction")
for t in (0.05, 0.15, 0.25, 0.35, 0.45):
    series = eval_G_truncated(t, q, 60)
    ratio = g_ratio(t, settings)
    cfrac = g_cfrac(t, q)
    print(f" {t:.2f}  {series:.12f}    {ratio:.12f}    {cfrac:.12f}")

print("\nbeyond the boundary the length series diverges but the continued")
print("fraction still evaluates the analytic continuation:")
t = 0.95 * boundary + 0.1
print(f"  g_cfrac({t:.3f}, {q}) = {g_cfrac(t, q):.10f}")

print("\nfunctional equation residual G - 1 - t G(t) G(qt):")
for t in (0.1, 0.2, 0.3):
    G = g_cfrac(t, q)
    res = G - 1.0 - t * G * g_cfrac(q * t, q)
    print(f"  t={t}: {res:.2e}")

print(f"\ncontour quadrature of H(0.2) at q = 0.999: {contour_h(0.2, 0.999):.12e}"
      f" (series {h_series(0.2, EvalSettings(q=0.999)):.12e})")

print("\nCatalan limit: G(t, q) -> (1 - sqrt(1-4t))/(2t) as q -> 1")
t = 0.2
closed = (1.0 - math.sqrt(1.0 - 4.0 * t)) / (2.0 * t)
for k in (2, 3, 4):
    value = g_cfrac(t, 1.0 - 10.0**-k)
    print(f"  q = 1 - 1e-{k}: G = {value:.10f}  (limit {closed:.10f})")
