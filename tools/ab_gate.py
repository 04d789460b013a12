"""Same-runner A/B speed gate: a base git ref against this checkout.

Runs every workload of this checkout's ``BENCHMARK.json`` on both sides,
pair by pair, and fails when this checkout is slower than the base::

    python3 tools/ab_gate.py BASE_REF

Run it from the root of the head checkout; its working tree is measured
as it is, uncommitted edits included.  The base ref is checked out into
a temporary ``git worktree`` that is removed at exit.  Its path is made
exactly as long as head's, because the length of the checkout's path
moves ``serve_curve``'s peak RSS by about 3% on identical code; when the
temporary directory's own path leaves no room for that, the gate warns
and uses a path of any length.  For each workload the gate runs
``N_PAIRS`` pairs of::

    <command> --workload W --seed 0 --seconds SECONDS --trace 0

one run in each checkout's root, the side that runs first alternating
between pairs, so both sides see the same host drift and no stored
timing baseline is needed.  ``<command>``, the workloads and each
end-to-end metric's bound come from head's ``BENCHMARK.json``; the last
line of a run's standard output is its result.  The gate fails when

* any run is not ``correct``;
* head fails a larger share of its operations than base does; or
* for some workload and end-to-end metric, head's median is worse than
  base's by more than the metric's bound *and* head loses at least
  ``MIN_LOSSES`` of the ``N_PAIRS`` pairs.

Exit status: 0 pass, 1 fail, 2 bad input (unknown ref, not a checkout
root).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Pairs of runs per workload.
N_PAIRS = 5
#: Pairs head must lose, besides a median beyond the bound, to fail.
MIN_LOSSES = 4
#: The e2ebench window of each run (seconds).
SECONDS = 3
#: The workload seed of every run.
SEED = 0
#: A run that takes longer than this counts as not correct.
RUN_TIMEOUT_S = 600

SIDES = ("base", "head")


# ---------------------------------------------------------------------- #
# The decision (pure: parsed samples in, verdict out)
# ---------------------------------------------------------------------- #
def is_correct(sample: dict | None) -> bool:
    return isinstance(sample, dict) and sample.get("correct") is True


def failed_share(samples: list[dict | None]) -> float:
    """Failed operations over attempted ones; an unparsed run is one failure."""
    attempted = failed = 0
    for sample in samples:
        if isinstance(sample, dict) and "attempted" in sample:
            attempted += sample["attempted"]
            failed += sample.get("failed", 0)
        else:
            attempted += 1
            failed += 1
    return failed / attempted if attempted else 0.0


def compare_metric(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """One metric over correct pairs: medians, relative change, head's losses.

    ``change`` is signed so that positive means head is worse.
    """
    name, lower = metric["name"], metric["better"] == "lower"
    base = [pair[0]["metrics"][name]["value"] for pair in pairs]
    head = [pair[1]["metrics"][name]["value"] for pair in pairs]
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse = head_median - base_median if lower else base_median - head_median
    losses = sum(1 for b, h in zip(base, head) if (h > b if lower else h < b))
    change = worse / base_median if base_median else 0.0
    return {
        "metric": name,
        "base": base_median,
        "head": head_median,
        "change": change,
        "losses": losses,
        "pairs": len(pairs),
        "bound": metric["bound"],
        "regressed": change > metric["bound"] and losses >= MIN_LOSSES,
    }


def decide(
    samples: dict[str, list[tuple[dict | None, dict | None]]], metrics: list[dict]
) -> tuple[list[dict], list[str]]:
    """The gate's verdict on ``{workload: [(base, head), ...]}``.

    Each sample is one run's parsed last line (``None`` when it could
    not be parsed).  Returns the per-metric comparisons and the list of
    failures; the gate passes when that list is empty.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for workload, pairs in samples.items():
        for index, side in enumerate(SIDES):
            bad = sum(1 for pair in pairs if not is_correct(pair[index]))
            if bad:
                failures.append(f"{workload}: {bad} of {len(pairs)} {side} run(s) not correct")
        base_share, head_share = (
            failed_share([pair[index] for pair in pairs]) for index in range(2)
        )
        if head_share > base_share:
            failures.append(
                f"{workload}: head failed {head_share:.2%} of operations, base {base_share:.2%}"
            )
        if not all(is_correct(sample) for pair in pairs for sample in pair):
            continue
        for metric in metrics:
            row = {"workload": workload, **compare_metric(pairs, metric)}
            rows.append(row)
            if row["regressed"]:
                failures.append(
                    f"{workload}: {row['metric']} median {row['head']:.4g} vs base "
                    f"{row['base']:.4g} ({row['change']:+.1%}, bound {row['bound']:.0%}), "
                    f"head worse in {row['losses']} of {row['pairs']} pairs"
                )
    return rows, failures


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<13} {'base':>9} {'head':>9} "
        f"{'change':>8} {'bound':>6} {'losses':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<13} {row['base']:>9.4f} "
            f"{row['head']:>9.4f} {row['change']:>+8.1%} {row['bound']:>6.0%} "
            f"{row['losses']:>3}/{row['pairs']:<3}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Running the pairs
# ---------------------------------------------------------------------- #
def equal_length_path(parent: Path, length: int, token: str) -> Path | None:
    """A path ``length`` characters long directly under ``parent``, or ``None``.

    The name is ``ab-<token>``, cut or padded with ``-`` to fit; ``None``
    when ``parent`` leaves no room for a one-character name.
    """
    room = length - len(str(parent / "x")) + 1
    if room < 1:
        return None
    return parent / f"ab-{token}".ljust(room, "-")[:room]


def make_worktree_dir(head: Path) -> Path:
    """A new empty directory for the base checkout, as long as ``head`` if it can be."""
    parent = Path(tempfile.gettempdir()).resolve()
    for _ in range(100):
        path = equal_length_path(parent, len(str(head)), secrets.token_hex(8))
        if path is None:
            break
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path
    print(
        f"warning: no new directory under {parent} has a path as long as head's "
        f"({len(str(head))} characters); serve_curve peak_rss_mib may differ by "
        "path length alone",
        file=sys.stderr,
    )
    return Path(tempfile.mkdtemp(prefix="ab-gate-base-"))


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def run_once(command: list[str], root: Path, workload: str) -> dict | None:
    """One e2ebench run in ``root``; its parsed last line, or ``None``."""
    argv = [
        *command, "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"  {root}: {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, ValueError):
        sample = None
    if not is_correct(sample):
        print(f"  {root}: {workload} exited {done.returncode}", file=sys.stderr)
        sys.stderr.write(done.stderr[-2000:])
    return sample if isinstance(sample, dict) else None


def run_pairs(
    command: list[str], roots: tuple[Path, Path], workloads: list[str]
) -> dict[str, list[tuple[dict | None, dict | None]]]:
    samples: dict[str, list[tuple[dict | None, dict | None]]] = {}
    for workload in workloads:
        samples[workload] = []
        for pair in range(N_PAIRS):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            result: list[dict | None] = [None, None]
            for index in order:
                result[index] = run_once(command, roots[index], workload)
            base, head = result
            walls = " vs ".join(
                f"{sample['metrics']['wall_s']['value']:.3f} s"
                if is_correct(sample) else "not correct"
                for sample in (base, head)
            )
            first = SIDES[order[0]]
            print(f"{workload} pair {pair + 1}/{N_PAIRS} ({first} first): {walls}", flush=True)
            samples[workload].append((base, head))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the base to compare this checkout against")
    args = parser.parse_args(argv)

    head = Path.cwd()
    benchmark = head / "BENCHMARK.json"
    if not benchmark.is_file():
        print("error: BENCHMARK.json not found; run from the root of a checkout", file=sys.stderr)
        return 2
    resolved = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    if resolved.returncode != 0:
        print(f"error: unknown base ref {args.base!r}", file=sys.stderr)
        return 2
    sha = resolved.stdout.strip()
    config = json.loads(benchmark.read_text())
    workloads = [workload["name"] for workload in config["workloads"]]

    worktree = make_worktree_dir(head)
    added = git("worktree", "add", "--detach", str(worktree), sha)
    if added.returncode != 0:
        shutil.rmtree(worktree, ignore_errors=True)
        print(f"error: cannot check out {args.base!r}: {added.stderr.strip()}", file=sys.stderr)
        return 2
    print(
        f"A/B gate: base {args.base} ({sha[:12]}) vs head {head}; {N_PAIRS} pairs per workload, "
        f"--seconds {SECONDS}, seed {SEED}; fail at > bound and >= {MIN_LOSSES} losses",
        flush=True,
    )
    try:
        samples = run_pairs(config["command"], (worktree, head), workloads)
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(worktree, ignore_errors=True)
        git("worktree", "prune")

    rows, failures = decide(samples, config["end_to_end"])
    print(format_rows(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    print("A/B gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
