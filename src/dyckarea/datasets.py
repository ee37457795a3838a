"""Tabular datasets reproducing the figure-style scans.

Each builder returns a ScanDataset holding named, equally long columns and
enough metadata to rerun the scan bit-identically. Writers emit CSV (plain
headers, full-precision decimal) or JSON (metadata-rich). Nothing here
renders plots; the datasets are the reproducibility artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .asymptotics import _finite_size_s, g_uniform, q_m_asymptotic, scaling_t
from .enumeration import area_columns, partition_series
from .errors import DomainError, DyckAreaError, PoleProximityError
from .qseries import EvalSettings, g_cfrac, t_infinity
from .special_functions import scaling_F

__all__ = [
    "ScanDataset",
    "scan_g_vs_t",
    "scan_phase_boundary",
    "scan_scaling_fn",
    "scan_partition",
    "write_dataset",
]


@dataclass(frozen=True)
class ScanDataset:
    """Columns of one scan plus the settings needed to reproduce it."""

    kind: str
    columns: dict[str, list]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise DomainError(f"ragged columns in dataset: {lengths}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = list(self.columns)
        writer.writerow(names)
        for i in range(self.n_rows):
            writer.writerow([_format_cell(self.columns[n][i]) for n in names])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "metadata": self.metadata,
            "columns": {
                name: [_format_cell(v) for v in vals] for name, vals in self.columns.items()
            },
        }
        return json.dumps(payload, indent=2) + "\n"


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _metadata(kind: str, stamp: bool, **settings) -> dict:
    meta = {"kind": kind, "tool": "dyckarea", "version": __version__, **settings}
    if stamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _check_finite(**bounds: float) -> None:
    for name, value in bounds.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """steps >= 2 equally spaced points from start to stop, with numpy.linspace's
    rounding: start + i (stop - start)/(steps - 1), then stop itself."""
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps - 1)] + [stop]


def _uniform_or_nan(t: float, q: float) -> float:
    """The uniform Airy form at t, or NaN outside (0, 1/2) or at one of its poles."""
    if not (0.0 < t < 0.5):
        return math.nan
    try:
        return g_uniform(t, q)
    except PoleProximityError:
        return math.nan


def _cfrac_or_nan(t: float, settings: EvalSettings) -> float:
    """The continued fraction at t, or NaN where it breaks down next to a pole."""
    try:
        return g_cfrac(t, settings)
    except DyckAreaError:
        return math.nan


def scan_g_vs_t(q: float, t_min: float, t_max: float, steps: int,
                stamp: bool = False) -> ScanDataset:
    """Exact continued-fraction values against the uniform Airy form.

    Points where the continued fraction breaks down or the uniform
    denominator hits a pole (possible past the boundary line) are recorded
    as NaN rather than aborting the scan.
    """
    if steps < 2:
        raise DomainError("steps must be >= 2")
    _check_finite(t_min=t_min, t_max=t_max)
    settings = EvalSettings(q=q)
    ts = _grid(t_min, t_max, steps)
    return ScanDataset(
        kind="g_vs_t",
        columns={"t": ts, "G_cfrac": [_cfrac_or_nan(t, settings) for t in ts],
                 "G_uniform": [_uniform_or_nan(t, q) for t in ts]},
        metadata=_metadata("g_vs_t", stamp, q=q, eps=-math.log(q),
                           t_min=t_min, t_max=t_max, steps=steps,
                           methods=["cfrac", "uniform"]),
    )


def scan_phase_boundary(q_min: float, q_max: float, steps: int,
                        tol: float = 1e-10, stamp: bool = False) -> ScanDataset:
    """Pole boundary t_inf(q) on a q-grid."""
    if steps < 2:
        raise DomainError("steps must be >= 2")
    qs = _grid(q_min, q_max, steps)
    t_inf = [t_infinity(q, tol) for q in qs]
    return ScanDataset(
        kind="phase_boundary",
        columns={"q": qs, "t_infinity": t_inf},
        metadata=_metadata("phase_boundary", stamp, q_min=q_min, q_max=q_max,
                           steps=steps, tol=tol, methods=["h_series_root"]),
    )


def scan_scaling_fn(eps_list: list[float], s_min: float, s_max: float, steps: int,
                    stamp: bool = False) -> ScanDataset:
    """Scaling function F(s), exact and reconstructed at each eps.

    Per eps the scan stores the reconstruction (G/2 - 1)(1-q)^(-1/3) once
    from the exact continued fraction and once from the uniform Airy form,
    evaluated at t(s, eps). The continued-fraction column is NaN where the
    fraction breaks down, the uniform column where t(s, eps) lies outside
    (0, 1/2) or at a pole of the uniform form.
    """
    if steps < 2:
        raise DomainError("steps must be >= 2")
    _check_finite(s_min=s_min, s_max=s_max)
    for eps in eps_list:
        if not 0.0 < eps < math.inf:
            raise DomainError(f"eps must be finite and positive, got {eps!r}")
    svals = _grid(s_min, s_max, steps)
    columns: dict[str, list] = {"s": svals}
    columns["F_exact"] = [scaling_F(s) for s in svals]
    for eps in eps_list:
        q = math.exp(-eps)
        amplitude = (1.0 - q) ** (1.0 / 3.0)
        settings = EvalSettings(q=q)
        ts = [scaling_t(s, q) for s in svals]
        tag = f"{eps:g}"
        columns[f"F_from_cfrac_eps{tag}"] = [(_cfrac_or_nan(t, settings) / 2.0 - 1.0) / amplitude
                                            for t in ts]
        columns[f"F_from_uniform_eps{tag}"] = [(_uniform_or_nan(t, q) / 2.0 - 1.0) / amplitude
                                              for t in ts]
    return ScanDataset(
        kind="scaling_fn",
        columns=columns,
        metadata=_metadata("scaling_fn", stamp, eps_list=list(eps_list), s_min=s_min,
                           s_max=s_max, steps=steps,
                           methods=["airy_ratio", "cfrac_reconstruction",
                                    "uniform_reconstruction"]),
    )


def scan_partition(t: float, m_values: list[int], n_max: int | None = None,
                   j_max: int = 24, stamp: bool = False) -> ScanDataset:
    """Exact fixed-area series against the finite-size asymptotic form.

    One height pass builds the columns c[m][0..2m] that fix every Q_m
    (``area_columns``). n_max (default 2 max(m)) sizes nothing: it is echoed
    in the metadata, and one below 2 max(m) fails before that pass.
    Q_asymptotic is NaN for m < 10, where the finite-size form is not defined.
    """
    if not m_values:
        raise DomainError("m_values must be nonempty")
    if min(m_values) < 0:
        raise DomainError(f"area {min(m_values)} must be >= 0")
    if not (0.0 <= t < 1.0):
        raise DomainError("partition_series requires 0 <= t < 1")
    # the asymptotic first: it fails in microseconds, the column build in seconds
    asymptotic = [q_m_asymptotic(m, t, j_max=j_max) if m >= 10 else math.nan for m in m_values]
    m_top = max(m_values)
    n_max = 2 * m_top if n_max is None else n_max
    if n_max < 2 * m_top:
        raise DomainError(f"Q_{m_top} needs the table to n = {2 * m_top}, it stops at {n_max}")
    exact = [partition_series(column, t) for column in area_columns(m_values)]
    return ScanDataset(
        kind="partition",
        # Q_exact has no tail; the zero tail_estimate column is kept for
        # existing parsers of the scan's CSV layout.
        columns={"m": list(m_values),
                 "s": [_finite_size_s(t, m) for m in m_values],
                 "Q_exact": exact,
                 "Q_asymptotic": asymptotic,
                 "tail_estimate": [0.0] * len(m_values)},
        metadata=_metadata("partition", stamp, t=t, n_max=n_max, j_max=j_max,
                           methods=["table_series", "finite_size_phi"]),
    )


def write_dataset(dataset: ScanDataset, path: str, fmt: str = "csv") -> None:
    """Write a dataset to ``path`` as csv or json."""
    if fmt == "csv":
        text = dataset.to_csv()
    elif fmt == "json":
        text = dataset.to_json()
    else:
        raise DomainError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
