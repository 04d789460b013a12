"""The A/B speed gate's decision rule (``tools/ab_gate.py``), on synthetic samples.

The script lives outside the package, so it is loaded by path.  No test
here starts an e2ebench run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location("ab_gate", ROOT / "tools" / "ab_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

#: The end-to-end metrics as BENCHMARK.json declares them.
METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]

BASE_WALLS = (1.00, 1.02, 0.98, 1.01, 0.99)


def run(wall_s, *, correct=True, attempted=4, failed=0):
    """One run's last line, as e2ebench prints it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": 0.1, "unit": "s"},
            "peak_rss_mib": {"value": 75.0, "unit": "MiB"},
        },
    }


def pairs(head_walls, base_walls=BASE_WALLS):
    return {"design_space": [(run(b), run(h)) for b, h in zip(base_walls, head_walls)]}


def test_pair_and_loss_counts_match_the_constants():
    assert len(BASE_WALLS) == gate.N_PAIRS
    assert gate.MIN_LOSSES == 4


def test_identical_samples_pass():
    rows, failures = gate.decide(pairs(BASE_WALLS), METRICS)
    assert failures == []
    assert {row["metric"] for row in rows} == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(row["losses"] == 0 and row["change"] == 0 for row in rows)


def test_head_slower_on_every_pair_fails():
    rows, failures = gate.decide(pairs([b * 1.3 for b in BASE_WALLS]), METRICS)
    (failure,) = failures
    assert failure.startswith("design_space: wall_s")
    assert "5 of 5 pairs" in failure
    (wall,) = [row for row in rows if row["metric"] == "wall_s"]
    assert wall["regressed"] and wall["change"] == pytest.approx(0.3)


def test_slower_median_but_two_wins_passes():
    # Head's median is +30%, but head wins two of the five pairs: a
    # regression too uneven across pairs to tell from noise.
    head = [1.3, 1.3, 1.3, 1.0, 1.0]
    base = [1.0, 1.0, 1.0, 1.5, 1.5]
    rows, failures = gate.decide(pairs(head, base), METRICS)
    (wall,) = [row for row in rows if row["metric"] == "wall_s"]
    assert wall["change"] == pytest.approx(0.3)
    assert wall["losses"] == 3
    assert failures == []


def test_regression_inside_the_bound_passes():
    rows, failures = gate.decide(pairs([b * 1.2 for b in BASE_WALLS]), METRICS)
    (wall,) = [row for row in rows if row["metric"] == "wall_s"]
    assert wall["losses"] == 5 and not wall["regressed"]
    assert failures == []


def test_a_higher_is_better_metric_regresses_downwards():
    metric = {"name": "wall_s", "better": "higher", "bound": 0.24}
    _rows, failures = gate.decide(pairs([b * 0.7 for b in BASE_WALLS]), [metric])
    assert len(failures) == 1
    _rows, failures = gate.decide(pairs([b * 1.3 for b in BASE_WALLS]), [metric])
    assert failures == []


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_run_that_is_not_correct_fails(side):
    samples = pairs(BASE_WALLS)
    base, head = samples["design_space"][2]
    if side == "base":
        base = run(1.0, correct=False)
    else:
        head = run(1.0, correct=False)
    samples["design_space"][2] = (base, head)
    rows, failures = gate.decide(samples, METRICS)
    assert failures == [f"design_space: 1 of 5 {side} run(s) not correct"]
    assert rows == []


def test_an_unparsed_run_is_not_correct():
    samples = pairs(BASE_WALLS)
    samples["design_space"][0] = (samples["design_space"][0][0], None)
    _rows, failures = gate.decide(samples, METRICS)
    assert "design_space: 1 of 5 head run(s) not correct" in failures
    # It also counts as a failed operation against head.
    assert any("failed" in failure for failure in failures)


def test_a_higher_failed_share_on_head_fails():
    samples = pairs(BASE_WALLS)
    base, _head = samples["design_space"][1]
    samples["design_space"][1] = (base, run(1.0, correct=True, attempted=4, failed=1))
    _rows, failures = gate.decide(samples, METRICS)
    assert failures == ["design_space: head failed 5.00% of operations, base 0.00%"]


def test_a_lower_failed_share_on_head_passes():
    samples = pairs(BASE_WALLS)
    _base, head = samples["design_space"][1]
    samples["design_space"][1] = (run(1.0, attempted=4, failed=1), head)
    _rows, failures = gate.decide(samples, METRICS)
    assert failures == []


def test_each_workload_is_judged_on_its_own():
    samples = {
        **pairs(BASE_WALLS),
        "serve_curve": [(run(b), run(b * 1.5)) for b in BASE_WALLS],
    }
    _rows, failures = gate.decide(samples, METRICS)
    assert len(failures) == 1 and failures[0].startswith("serve_curve: wall_s")


def test_unknown_base_ref_is_refused(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert gate.main(["no-such-ref-for-the-ab-gate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "no-such-ref-for-the-ab-gate" in line


@pytest.mark.parametrize(
    "parent, length",
    [("/tmp", 10), ("/tmp", 6), ("/tmp", 40), ("/var/tmp/x", 36), ("/", 3)],
)
def test_base_path_is_exactly_as_long_as_head(parent, length):
    path = gate.equal_length_path(Path(parent), length, "0123456789abcdef")
    assert len(str(path)) == length
    assert path.parent == Path(parent)


def test_base_path_name_carries_the_token_when_there_is_room():
    short = gate.equal_length_path(Path("/tmp"), 30, "aa")
    assert short.name.startswith("ab-aa") and short.name.endswith("-")
    first = gate.equal_length_path(Path("/tmp"), 30, "0123")
    second = gate.equal_length_path(Path("/tmp"), 30, "4567")
    assert first != second


@pytest.mark.parametrize("length", [5, 4, 0])
def test_no_base_path_when_the_parent_leaves_no_room(length):
    assert gate.equal_length_path(Path("/tmp"), length, "0123") is None


def test_worktree_dir_matches_head_length_or_warns(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gate.tempfile, "tempdir", str(tmp_path))
    head = Path("/" + "h" * (len(str(tmp_path.resolve())) + 8))
    made = gate.make_worktree_dir(head)
    assert made.is_dir() and made.parent == tmp_path.resolve()
    assert len(str(made)) == len(str(head))
    assert capsys.readouterr().err == ""

    short_head = Path("/h")
    fallback = gate.make_worktree_dir(short_head)
    assert fallback.is_dir()
    assert capsys.readouterr().err.startswith("warning: ")
