#!/usr/bin/env python3
"""Tricritical scaling: G ~ 2 (1 + (1-q)^(1/3) F(s)) with F = Ai'/Ai.

Rearranging that law reconstructs F(s) from generating-function data; the
reconstruction error shrinks as q -> 1, and the full Airy-ratio formula is
the sharper predictor at every eps.
"""

import math

from dyckarea import g_cfrac, scaling_F, scaling_F_series
from dyckarea.datasets import scan_scaling_fn, write_dataset

print("amplitude at the critical point: F(0) =", f"{scaling_F(0.0):.10f}")
ratio = None
for eps in (1e-4, 1e-5):
    q = math.exp(-eps)
    G = g_cfrac(0.25, q)
    ratio = (G / 2.0 - 1.0) / (1.0 - q) ** (1.0 / 3.0)
    print(f"  measured from G(1/4, q) at eps = {eps:g}: {ratio:.6f}")

print("\nzeta-coefficient series against the Airy ratio (radius |s_1| = 2.338):")
for s in (-2.0, -1.0, 1.0, 2.0):
    exact = scaling_F(s)
    for j_max in (40, 100):
        approx = scaling_F_series(s, j_max)
        print(f"  s = {s:+.0f}, j_max = {j_max:3d}: |error| = {abs(approx - exact):.2e}")

dataset = scan_scaling_fn([1e-3, 1e-4], s_min=-2.0, s_max=2.0, steps=17)
write_dataset(dataset, "scaling_fn.csv", "csv")
print("\nwrote scaling_fn.csv (exact F plus reconstructions at each eps)")

for eps in (1e-3, 1e-4):
    tag = f"{eps:g}"
    exact = dataset.columns["F_exact"]
    for label, col in (("scaling law ", f"F_from_cfrac_eps{tag}"),
                       ("airy ratio  ", f"F_from_uniform_eps{tag}")):
        err = max(abs(a - b) for a, b in zip(dataset.columns[col], exact))
        print(f"  eps = {eps:g}, {label} reconstruction: max error {err:.4f}")
