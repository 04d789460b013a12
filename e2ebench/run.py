"""End-to-end benchmark of the ReGate reproduction.

Times one named workload in fresh processes, checks every output, and
prints the metrics as the last line of standard output::

    python3 e2ebench/run.py --workload design_space --seed 0 --seconds 25 --trace 0

Run it from the repository root; the workload programs run with ``src``
on ``PYTHONPATH``.  One run:

1. makes the workload's inputs from ``--seed`` (:mod:`inputs`);
2. checks the program against its object-path oracle on a reduced input
   (``REPRO_FAST_PATH=0`` must give the same bytes as the fast path);
3. for ``--seconds``, alternates set-up samples (a fresh interpreter
   importing what the command imports) with timed runs of the command,
   each checked against the recorded SHA-256 digest of its output (or,
   for a seed without one, against the oracle rows and the run's first
   output).  Between samples, the :mod:`calibrate` kernel measures the
   machine's current speed, and each time is also reported scaled to
   the reference speed (see ``BASELINE.md``);
4. with ``--trace 1``, runs the command once more in the traced process
   (:mod:`layers`) and reports the per-layer metrics instead.

Everything the benchmark writes stays under ``.bench_work/`` in the
working directory: scratch files are removed at exit, and the run record
plus, for traced runs, the spans are kept as
``.bench_work/<workload>-seed<N>.{record,trace}.json``.
``--record-reference`` re-anchors ``reference.json`` for one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import layers

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = Path(".bench_work")

#: A child that runs longer than this is killed and counted as failed,
#: so one benchmark run always ends in bounded time.
CHILD_TIMEOUT_S = 30.0

#: End-to-end metrics: the median of each run's samples.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

#: Everything sampled per iteration.  ``wall_s`` and ``setup_s`` are the
#: measured (``raw_``) times scaled to the reference machine speed.
SAMPLE_KEYS = (
    "wall_s", "setup_s", "peak_rss_mib", "raw_wall_s", "raw_setup_s", "cpu_s", "calibration_s",
)

#: What the :mod:`calibrate` kernel takes on the reference machine (the
#: VM in BASELINE.md when its host is quiet).  Scaled times read as
#: seconds at that speed.
CALIBRATION_REF_S = 0.30

#: Duration of the serving trace the oracle replays (seconds).
ORACLE_SERVE_DURATION_S = 2


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #
def child_env(fast_path: bool | None = None) -> dict[str, str]:
    """The environment of every child: ``src`` first on the import path."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    if fast_path is not None:
        env["REPRO_FAST_PATH"] = "1" if fast_path else "0"
    return env


def run_child(argv: list[str], env: dict[str, str], log: Path) -> dict:
    """Run ``argv`` to completion; wall time from spawn to exit, peak RSS.

    Standard output goes to a pipe that a thread drains (the programs
    print their tables there); standard error goes to ``log``.  The
    child is reaped with ``wait4`` so its own ``ru_maxrss`` is read.
    """
    with log.open("wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)

        def drain() -> None:
            while proc.stdout.read(1 << 16):
                pass

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted before the child was reaped: end it, then re-raise.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stdout.close()
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


class Calibrator:
    """The :mod:`calibrate` helper process; each call times its kernel once."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
class OutputCheck:
    """Decides whether one run's output bytes are correct.

    The first output seen is validated in full: against the recorded
    digest when ``reference.json`` has one for this seed, and for CSV
    outputs by containing every row the oracle produced on the reduced
    grid.  Every later output must repeat the first one's digest.
    """

    def __init__(self, expected: str | None, oracle_rows: list[str] | None):
        self.expected = expected
        self.oracle_rows = oracle_rows
        self.first: str | None = None
        self.first_ok = False

    def __call__(self, output: Path) -> tuple[bool, str | None]:
        digest = sha256(output)
        if digest is None:
            return False, None
        if self.first is None:
            self.first = digest
            self.first_ok = self._validate(output, digest)
        return self.first_ok and digest == self.first, digest

    def _validate(self, output: Path, digest: str) -> bool:
        if self.expected is not None and digest != self.expected:
            return False
        if self.oracle_rows is not None:
            # Streamed, so this process's own peak memory stays small: a
            # spawned child's ru_maxrss starts from its parent's.
            header, *rows = self.oracle_rows
            missing = set(rows)
            with output.open() as handle:
                if handle.readline().rstrip("\n") != header:
                    return False
                for line in handle:
                    missing.discard(line.rstrip("\n"))
            return not missing
        return True


def oracle_check(
    workload: str, seed: int, work: Path, record: dict
) -> tuple[bool, list[str] | None]:
    """Reduced input: fast path and ``REPRO_FAST_PATH=0`` must agree.

    Returns whether they agree and, for the CSV workloads, the oracle's
    rows (each must appear in the full run's output).
    """
    python = sys.executable
    if workload == "design_space":
        grid = inputs.write_grid(
            inputs.reduced_design_space_grid(seed), work / "reduced_grid.json"
        )
        make = lambda out: [
            python, str(BENCH_DIR / "design_space.py"), str(grid), str(out)
        ]
        suffix = ".csv"
    elif workload in ("profile_sweep", "profile_resweep"):
        grid = inputs.reduced_sweep_args(seed)
        make = lambda out: [python, "-m", "repro", "sweep", *grid, "--csv", str(out)]
        suffix = ".csv"
    else:
        args = inputs.serve_args(seed, duration_s=ORACLE_SERVE_DURATION_S)
        make = lambda out: [python, "-m", "repro", "serve", *args, "--json", str(out)]
        suffix = ".json"
    digests = {}
    for fast in (True, False):
        output = work / f"oracle_{'fast' if fast else 'object'}{suffix}"
        argv = make(output)
        record["commands"][f"oracle_{'fast' if fast else 'object'}"] = argv
        sample = run_child(argv, child_env(fast_path=fast), work / "oracle.log")
        digests[fast] = sha256(output) if sample["code"] == 0 else None
    agree = digests[True] is not None and digests[True] == digests[False]
    record["oracle"] = {"agree": agree, "fast": digests[True], "object": digests[False]}
    if suffix != ".csv" or not agree:
        return agree, None
    return agree, (work / "oracle_object.csv").read_text().splitlines()


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
def package_version() -> str:
    text = Path("src/repro/__init__.py").read_text()
    match = re.search(r'^__version__\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return match.group(1) if match else "unknown"


def git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not runnable)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Everything needed to repeat this run elsewhere."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "package_version": package_version(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "REPRO_FAST_PATH": os.environ.get("REPRO_FAST_PATH", "unset (fast path)"),
        "commands": {},
    }


def load_reference(workload: str, seed: int) -> str | None:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())
    # The warm re-sweep must reproduce the cold sweep byte for byte.
    key = "profile_sweep" if workload == "profile_resweep" else workload
    return table.get(key, {}).get(str(seed))


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, record: dict
) -> dict:
    """One benchmark run; returns the result object."""
    command = inputs.commands(workload, seed, work, BENCH_DIR)
    argv, output, cache = command["argv"], command["output"], command["cache"]
    env = child_env()
    imports = inputs.IMPORTS[workload]
    setup_argv = [sys.executable, "-c", "import " + ", ".join(imports)]
    record["commands"].update(workload=argv, setup=setup_argv)
    log = work / "child.log"

    # Preparation, untimed: compile bytecode, anchor to the oracle, and
    # (warm re-sweep only) fill the cache the timed runs read.
    run_child(setup_argv, env, log)
    oracle_ok, oracle_rows = oracle_check(workload, seed, work, record)
    check = OutputCheck(load_reference(workload, seed), oracle_rows)
    record["reference_digest"] = check.expected
    attempted = failed = 0
    if workload == "profile_resweep":
        fill = run_child(argv, env, log)
        ok, _ = check(output)
        record["cache_fill"] = {"wall_s": fill["wall_s"], "ok": fill["code"] == 0 and ok}
        if fill["code"] != 0 or not ok:
            attempted, failed = 1, 1

    samples: dict[str, list[float]] = {name: [] for name in SAMPLE_KEYS}
    with Calibrator() as calibration_s:
        started = time.monotonic()
        calibration_before = calibration_s()
        while True:
            iteration_start = time.monotonic()
            setup = run_child(setup_argv, env, log)
            if workload == "profile_sweep":
                cache.unlink(missing_ok=True)
            output.unlink(missing_ok=True)
            sample = run_child(argv, env, log)
            calibration_after = calibration_s()
            # The machine speed while these samples ran: the calibration
            # times just before and just after them, averaged.
            scale = CALIBRATION_REF_S / ((calibration_before + calibration_after) / 2)
            calibration_before = calibration_after
            samples["calibration_s"].append(calibration_after)
            if setup["code"] == 0:
                samples["raw_setup_s"].append(setup["wall_s"])
                samples["setup_s"].append(setup["wall_s"] * scale)
            ok, digest = check(output) if sample["code"] == 0 else (False, None)
            attempted += 1
            if ok:
                samples["raw_wall_s"].append(sample["wall_s"])
                samples["wall_s"].append(sample["wall_s"] * scale)
                samples["cpu_s"].append(sample["cpu_s"])
                samples["peak_rss_mib"].append(sample["rss_mib"])
            else:
                failed += 1
                sys.stderr.write(f"run failed: exit {sample['code']}, digest {digest}\n")
                sys.stderr.write(log.read_text()[-2000:])
            # Start another iteration only if at least half of it should
            # fall within the window, so a run lasts `seconds` on average.
            now = time.monotonic()
            if now - started + (now - iteration_start) / 2 > seconds:
                break

    record["output_digest"] = check.first
    record["error_rate"] = failed / attempted
    record["samples"] = samples
    if not samples["wall_s"] or not samples["setup_s"]:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    correct = oracle_ok and failed == 0
    end_to_end = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END
    }
    print(f"workload      : {workload} (seed {seed}, {seconds:g} s window)")
    for name in SAMPLE_KEYS:
        stats = summary(samples[name])
        print(
            f"{name:<14}: median {stats['median']:.4f} "
            f"(min {stats['min']:.4f}, max {stats['max']:.4f}, n={stats['n']})"
        )
    print(f"error_rate    : {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"oracle        : reduced input identical under REPRO_FAST_PATH=0: {oracle_ok}")
    reference = "matched" if check.expected else "not recorded for this seed"
    print(f"output digest : {check.first} (reference {reference})")
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if not trace or not correct:
        return {**result, "metrics": end_to_end}

    # The traced run: same command, wrapped layers, spans written out.
    if workload == "profile_sweep":
        cache.unlink(missing_ok=True)
    output.unlink(missing_ok=True)
    trace_path = work / "trace.json"
    traced_argv = [
        sys.executable, str(BENCH_DIR / "layers.py"), str(trace_path),
        ",".join(imports), "--", *argv[1:],
    ]
    record["commands"]["traced"] = traced_argv
    traced = run_child(traced_argv, env, log)
    ok, _ = check(output) if traced["code"] == 0 else (False, None)
    attempted += 1
    if not ok or not trace_path.is_file():
        failed += 1
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    spans = json.loads(trace_path.read_text())
    spans["wall_s"] = traced["wall_s"]
    spans["overhead_s"] = traced["wall_s"] - statistics.median(samples["raw_wall_s"])
    spans["record"] = record
    WORK_ROOT.joinpath(f"{workload}-seed{seed}.trace.json").write_text(json.dumps(spans))
    print(layer_table(spans))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers.per_layer_metrics(spans),
    }


def layer_table(spans: dict) -> str:
    """Each span name's total and self time as a share of the traced wall."""
    wall = spans["wall_s"]
    lines = [f"{'layer':<40} {'calls':>8} {'total s':>9} {'self s':>9} {'share':>7}"]
    for name, entry in sorted(spans["totals"].items(), key=lambda item: -item[1]["s"]):
        lines.append(
            f"{name:<40} {entry['calls']:>8} {entry['s']:>9.4f} "
            f"{entry['self_s']:>9.4f} {entry['s'] / wall:>7.1%}"
        )
    lines.append(f"{'traced wall':<40} {'':>8} {wall:>9.4f}")
    lines.append(f"{'tracing overhead':<40} {'':>8} {spans['overhead_s']:>9.4f}")
    return "\n".join(lines)


def record_reference(seed: int) -> None:
    """Run each workload once and store its output digest for ``seed``.

    Refuses to record unless the reduced input agrees with the oracle,
    and the full output contains the oracle's rows.
    """
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for workload in ("design_space", "profile_sweep", "serve_curve"):
        work = make_work_dir(workload)
        try:
            record = run_record(workload, seed, 0, False)
            agree, rows = oracle_check(workload, seed, work, record)
            command = inputs.commands(workload, seed, work, BENCH_DIR)
            sample = run_child(command["argv"], child_env(), work / "child.log")
            check = OutputCheck(None, rows)
            ok, digest = (
                check(command["output"]) if sample["code"] == 0 else (False, None)
            )
            if not (agree and ok):
                raise SystemExit(
                    f"error: {workload} seed {seed}: output not anchored to the oracle"
                )
            table.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def make_work_dir(workload: str) -> Path:
    work = WORK_ROOT / f"tmp-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work.resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this seed's output digests in reference.json",
    )
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the child it is timing.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not Path("src/repro/__init__.py").is_file():
        print(
            "error: src/repro not found; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    if args.record_reference:
        record_reference(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    work = make_work_dir(args.workload)
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, record
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["result"] = result
    WORK_ROOT.joinpath(f"{args.workload}-seed{args.seed}.record.json").write_text(
        json.dumps(record, indent=1)
    )
    brief = {
        key: value for key, value in record.items()
        if key not in ("samples", "commands", "result")
    }
    print("run record    : " + json.dumps(brief))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
