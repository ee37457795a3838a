#!/usr/bin/env python3
"""Finite-size scaling of the fixed-area series.

The exact coefficients Q_m(t) approach m^(-4/3) phi((1-4t) m^(2/3)) with
phi built from Airy-zeta values; convergence in m is slow (an m^(-1/3)
correction), so the ratio drifts toward 1 rather than landing on it.
"""

from dyckarea import build_area_polynomials, partition_series, q_m_asymptotic
from dyckarea.asymptotics import finite_size_phi

print("phi at the origin:", f"{finite_size_phi(0.0):.8f}")
print("(positive, as the exact series demands)\n")

table = build_area_polynomials(2 * 80, m_max=80)  # n <= 2m fixes Q_m exactly

print("fixed s = 1 (t adjusted per m):")
print(" m    t          exact Q_m      asymptotic     ratio")
for m in (20, 40, 80):
    t = (1.0 - m ** (-2.0 / 3.0)) / 4.0
    exact = partition_series(table, m, t)
    asym = q_m_asymptotic(m, t, j_max=24)
    print(f" {m:3d}  {t:.6f}  {exact:.6e}  {asym:.6e}  {exact/asym:.4f}")

print("\nat the critical point t = 1/4 (s = 0):")
print(" m    m^(4/3) Q_m   -> phi(0)")
for m in (20, 40, 80):
    exact = partition_series(table, m, 0.25)
    print(f" {m:3d}  {exact * m**(4.0/3.0):.6f}")
print(f" inf  {finite_size_phi(0.0):.6f}  (limit)")
