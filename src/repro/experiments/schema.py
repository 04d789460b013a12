"""The sweep row schema: column names and the type of each column's cells.

One row per (sweep point, policy).  :data:`ROW_COLUMNS` is the column
order the runner assembles, the CSV header a sweep writes and the header
a ``--cache`` file stores its rows under; :data:`ROW_KINDS` says how a
row stored as CSV text decodes back to its values.
"""

from __future__ import annotations

from repro.hardware.components import Component

#: Temporal-utilization columns and the component each one reads.
UTILIZATION_COLUMNS = (
    ("sa_temporal_util", Component.SA),
    ("vu_temporal_util", Component.VU),
    ("hbm_temporal_util", Component.HBM),
    ("ici_temporal_util", Component.ICI),
)

#: Per-component energy column names, built once (not per row).
ENERGY_COLUMNS = tuple(
    (component, f"energy_{component.value}_j", f"static_{component.value}_j")
    for component in Component.all()
)

#: ``(column, cell type)`` of every result column, in column order.
_SCHEMA: tuple[tuple[str, type], ...] = (
    (
        ("workload", str),
        ("chip", str),
        ("num_chips", int),
        ("batch_size", int),
        ("parallelism", str),
        ("gating_label", str),
        ("policy", str),
        ("time_s", float),
        ("overhead_time_s", float),
        ("total_energy_j", float),
        ("static_energy_j", float),
        ("dynamic_energy_j", float),
        ("static_fraction", float),
        ("average_power_w", float),
        ("peak_power_w", float),
        ("savings_vs_nopg", float),
        ("overhead_vs_nopg", float),
        ("pod_energy_j", float),
        ("energy_per_work_j", float),
        ("work_per_iteration", float),
        ("iteration_unit", str),
    )
    + tuple(
        (name, float)
        for _, energy_column, static_column in ENERGY_COLUMNS
        for name in (energy_column, static_column)
    )
    + tuple((column, float) for column, _ in UTILIZATION_COLUMNS)
    + (("sa_spatial_util", float),)
)

#: The full result-row schema, in column order.
ROW_COLUMNS: tuple[str, ...] = tuple(name for name, _ in _SCHEMA)

#: The type of every cell of each column (``str``, ``int`` or
#: ``float``), aligned with :data:`ROW_COLUMNS`.
ROW_KINDS: tuple[type, ...] = tuple(kind for _, kind in _SCHEMA)


__all__ = ["ENERGY_COLUMNS", "ROW_COLUMNS", "ROW_KINDS", "UTILIZATION_COLUMNS"]
