"""Design-space sweep program: a gating-parameter grid to CSV.

Runs one cold (uncached) sweep of a workload x chip x gating-parameter
grid through the public :class:`~repro.experiments.SweepRunner` and
:meth:`~repro.experiments.SweepResult.write_csv` API.  The ``repro``
CLI has no gating-parameter axis, so the benchmark drives this program
instead::

    PYTHONPATH=src python e2ebench/design_space.py GRID.json OUT.csv

``GRID.json`` holds ``workloads``, ``chips`` and ``gating_points``
(each a label, a delay multiplier and three leakage ratios), as
written by :func:`inputs.design_space_grid`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments import SweepRunner, SweepSpec
from repro.gating.bet import DEFAULT_PARAMETERS


def build_spec(grid: dict) -> SweepSpec:
    """The :class:`SweepSpec` a grid file describes."""
    gating = tuple(
        (
            point["label"],
            DEFAULT_PARAMETERS.with_delay_multiplier(
                point["delay_multiplier"]
            ).with_leakage(
                point["logic_off"], point["sram_sleep"], point["sram_off"]
            ),
        )
        for point in grid["gating_points"]
    )
    return SweepSpec(
        workloads=tuple(grid["workloads"]),
        chips=tuple(grid["chips"]),
        gating_parameters=gating,
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: design_space.py GRID.json OUT.csv", file=sys.stderr)
        return 2
    grid_path, csv_path = args
    spec = build_spec(json.loads(Path(grid_path).read_text()))
    result = SweepRunner(spec).run()
    rows = result.write_csv(csv_path)
    print(f"sweep grid    : {spec.describe()}")
    print(f"rows written  : {rows}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
