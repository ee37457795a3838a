#!/usr/bin/env python3
"""Exact counting of lattice paths by length and area.

Builds the coefficient table by a height pass over the steps of the walk,
checks it against brute-force enumeration, and prints a few exact
fixed-area series.
"""

from dyckarea import (
    area_columns,
    brute_force_area_polynomial,
    build_area_polynomials,
    catalan_number,
    partition_series,
)
from dyckarea.enumeration import table_to_csv

table = build_area_polynomials(12)

print("row polynomials (coefficients of the area weight):")
for n in range(6):
    print(f"  n={n}: {list(table.rows[n].coeffs)}")

print("\nexhaustive oracle agreement up to n = 12:")
for n in range(13):
    oracle = brute_force_area_polynomial(n)
    match = "ok" if oracle.coeffs == table.rows[n].coeffs else "MISMATCH"
    print(f"  n={n:2d}: {oracle.total():>7d} paths (Catalan {catalan_number(n):>7d}) {match}")

print("\nfixed-area series at t = 0.3 (exact: N_m(t)/(1-t)^(m+1) from n <= 2m):")
areas = (0, 1, 2, 5)
for m, column in zip(areas, area_columns(areas)):
    print(f"  m={m}: Q_m(0.3) = {partition_series(column, 0.3):.10f}")

with open("enumeration_table.csv", "w", encoding="utf-8") as fh:
    fh.writelines(table_to_csv(table))
print("\nwrote enumeration_table.csv")
