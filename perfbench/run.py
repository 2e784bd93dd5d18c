#!/usr/bin/env python3
"""The repository benchmark: end-to-end figure runs plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

It builds the `experiments` binary and the in-process tracer in
perfbench/tracer in release mode, then runs the workload's
command as fresh processes for S seconds and prints one JSON line last:
`{"correct", "attempted", "failed", "metrics"}` (with `all`, one such line
per workload, each after its own `#` line). With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer
ones, from one traced run after the untraced runs. One operation is one
Monte Carlo unit of one run; it fails when its run exits non-zero or an
output check fails, and any failure makes the exit code 1.

Every number is host time or a deterministic work count; the simulated
statistics only feed the output checks. See perfbench/METRICS.md for what
each metric should move.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"

# Knobs that would change what a child run does; every child runs without
# them so only the command line decides.
SCRUBBED_ENV = ("SIM_THREADS", "SIM_EVAL_LANES", "SIM_TIMELINE_CACHE_PAGES", "SIM_FORCE_SCALAR")

# name -> (command arguments, Monte Carlo units per run, pages per unit,
#          CSVs the run writes)
WORKLOADS = {
    "fig5-sweep": (["fig5"], 18, 256, ("fig5.csv", "fig6.csv", "fig7.csv")),
    "fig8-partial": (["fig8"], 27, 32, ("fig8.csv",)),
}

# At least this many timed runs, however long they take.
MIN_RUNS = 3


class BenchError(Exception):
    """A failure that leaves no result to print."""


def checkpoint_every(pages):
    """The traced campaign pass's snapshot cadence: four snapshots per unit."""
    return max(1, pages // 4)


def command_args(workload, pages, seed, threads, out):
    if pages < 1:
        raise BenchError("pages must be at least 1")
    args, _, _, _ = WORKLOADS[workload]
    cmd = [*args, "--pages", str(pages), "--seed", str(seed), "--threads", str(threads)]
    cmd += ["--quiet", "--out", str(out)]
    return cmd


def child_env():
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Release-builds the command and the tracer; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        raise BenchError(f"no repository sources under {ROOT}: nothing to build")
    env = child_env()
    env["CARGO_TARGET_DIR"] = str(target_dir())
    steps = [
        ["-p", "aegis-experiments", "--bin", "experiments"],
        ["--manifest-path", str(ROOT / "perfbench" / "tracer" / "Cargo.toml")],
    ]
    for extra in steps:
        result = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *extra],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if result.returncode != 0:
            raise BenchError(f"cargo build {' '.join(extra)} failed")
    release = target_dir() / "release"
    bins = {"experiments": release / "experiments", "tracer": release / "perfbench-trace"}
    for path in bins.values():
        if path.parent.name != "release":
            raise BenchError(f"{path} is not a release-profile binary")
        if not path.is_file():
            raise BenchError(f"build produced no {path}")
    return bins


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        # Only this tree's own repository, not one that happens to enclose it.
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha1()
    for path in sorted(ROOT.glob("crates/**/*")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha1:" + digest.hexdigest()


def timed_run(argv, out_dir):
    """Runs one process; returns (exit code, wall s, CPU s, peak RSS MiB).

    CPU and peak RSS are the child's own rusage as the kernel reports it at
    reaping (user+system seconds and max resident set), which needs no
    sampling of /proc while the child runs.
    """
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def read_csvs(out_dir, names):
    """The named CSVs' bytes, or None when one is missing."""
    try:
        return {name: (out_dir / name).read_bytes() for name in names}
    except OSError:
        return None


def csv_mismatch(reference, got):
    """Why `got` differs from `reference` (dicts of CSV bytes), or None."""
    if got is None:
        return "CSV output missing"
    for name, data in reference.items():
        if got.get(name) != data:
            return f"{name} differs from the reference run"
    return None


def csv_shape_error(workload, csvs):
    """Checks each CSV has a header and one row per unit."""
    units = WORKLOADS[workload][1]
    for name, data in csvs.items():
        rows = data.decode(errors="replace").strip().splitlines()
        if len(rows) != units + 1:
            return f"{name} has {len(rows) - 1} rows, expected {units}"
    return None


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, units, error):
        self.attempted += units
        if error:
            self.failed += units
            self.reasons.append(error)


class Series:
    """Runs of one workload at one page count: samples and reference CSVs."""

    def __init__(self, workload, pages, reference=None):
        self.workload = workload
        self.pages = pages
        self.reference = reference
        self.samples = []
        self.runs = 0

    def run(self, bins, seed, threads, work, ledger):
        """Runs the command once and checks its CSVs against the reference
        (the first good run's when none was given); keeps the sample of a
        run that passes."""
        _, units, _, names = WORKLOADS[self.workload]
        out = work / f"p{self.pages}-r{self.runs}"
        args = command_args(self.workload, self.pages, seed, threads, out)
        argv = [str(bins["experiments"]), *args]
        code, wall, cpu, rss = timed_run(argv, out)
        csvs = read_csvs(out, names)
        what = f"{self.workload} run {self.runs} at {self.pages} pages (seed {seed})"
        self.runs += 1
        error = None
        if code != 0:
            error = f"exited {code}"
        elif csvs is None:
            error = "wrote no CSVs"
        elif self.reference is None:
            error = csv_shape_error(self.workload, csvs)
            if error is None:
                self.reference = csvs
        else:
            error = csv_mismatch(self.reference, csvs)
        if error is None and list(out.glob("telemetry/*.ckpt.json")):
            error = "left a checkpoint snapshot behind"
        ledger.record(units, error and f"{what}: {error}")
        if error is None:
            self.samples.append((wall, cpu, rss))
        shutil.rmtree(out, ignore_errors=True)


def measure(bins, seed, threads, seconds, work, ledger, series):
    """Runs each series once per round, for `seconds` and at least MIN_RUNS
    rounds. A round starts only if one as long as the last still ends in
    time, so a run's length stays close to `seconds`. Interleaving spreads
    every series over the whole window, so drift in host speed reaches them
    alike."""
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while (
        any(s.runs < MIN_RUNS for s in series)
        or time.perf_counter() + last_round <= deadline
    ):
        started = time.perf_counter()
        for s in series:
            s.run(bins, seed, threads, work, ledger)
        last_round = time.perf_counter() - started


def traced_run(bins, workload, seed, threads, pages, work, ledger, reference):
    """Runs the in-process tracer once; returns its parsed report."""
    out = work / "traced"
    argv = [
        str(bins["tracer"]),
        "--workload", workload,
        "--seed", str(seed),
        "--pages", str(pages),
        "--threads", str(threads),
        "--every", str(checkpoint_every(pages)),
        "--out", str(out),
    ]
    out.mkdir(parents=True)
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    units = WORKLOADS[workload][1]
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        ledger.record(units, f"traced run exited {proc.returncode}")
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = list(report["failures"])
    mismatch = csv_mismatch(reference, read_csvs(out, WORKLOADS[workload][3]))
    if mismatch:
        errors.append(f"traced run: {mismatch}")
    ledger.record(report["units"], "; ".join(errors) if errors else None)
    shutil.rmtree(out, ignore_errors=True)
    return report


def load_manifest():
    return json.loads(MANIFEST.read_text())


def metric_block(values, specs):
    """`{"name": {"value", "unit"}}` for every spec, in manifest order."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def end_to_end(samples, setup, units, pages):
    wall = statistics.median(s[0] for s in samples)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(s[1] for s in samples),
        "page_evals_per_s": units * pages / wall,
        "peak_rss_mib": statistics.median(s[2] for s in samples),
        "setup_s": statistics.median(s[0] for s in setup),
    }


def run_workload(workload, seed, seconds, trace, bins, manifest, threads):
    """Measures one workload; returns its result object."""
    _, units, pages, _ = WORKLOADS[workload]
    work = target_dir() / "perfbench-work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(
        f"# perfbench workload={workload} seed={seed} pages={pages} threads={threads} "
        f"nproc={len(os.sched_getaffinity(0))} revision={revision()}"
    )

    ledger = Ledger()
    try:
        full = Series(workload, pages)
        series = [full]
        if trace == 0:
            setup = Series(workload, 1)
            series.insert(0, setup)
        measure(bins, seed, threads, seconds, work, ledger, series)
        for s in series:
            walls = " ".join(f"{w:.3f}" for w, _, _ in s.samples)
            print(f"perfbench: {workload} {s.pages}-page wall_s: {walls}", file=sys.stderr)
        samples, reference = full.samples, full.reference
        if trace == 0:
            if not samples or not setup.samples:
                raise BenchError("no successful run to measure")
            values = end_to_end(samples, setup.samples, units, pages)
            metrics = metric_block(values, manifest["end_to_end"])
        else:
            if not samples or reference is None:
                raise BenchError("no successful untraced run to compare against")
            report = traced_run(bins, workload, seed, threads, pages, work, ledger, reference)
            if report is None:
                raise BenchError("the traced run failed")
            values = dict(report["metrics"])
            untraced_cpu = statistics.median(s[1] for s in samples)
            values["trace.overhead_frac"] = report["traced_cpu_s"] / untraced_cpu - 1.0
            coverage = values["trace.coverage"]
            if coverage < 0.9:
                print(f"perfbench: warning: layers cover only {coverage:.3f} of traced CPU",
                      file=sys.stderr)
            metrics = metric_block(values, manifest["per_layer"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in ledger.reasons:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    manifest = load_manifest()
    bins = build()
    threads = min(2, len(os.sched_getaffinity(0)))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failed = False
    for workload in workloads:
        result = run_workload(
            workload, args.seed, args.seconds, args.trace, bins, manifest, threads
        )
        print(json.dumps(result))
        failed |= not result["correct"]
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
