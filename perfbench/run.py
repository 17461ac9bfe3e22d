#!/usr/bin/env python3
"""Layered benchmark of fanrep: end-to-end metrics per workload, and a
separate traced run for per-layer metrics.

Run from the root of a checkout that holds ``src/fanrep`` (no install,
standard library only):

    python3 perfbench/run.py --workload descent_glue --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --workload hom_solve --trace 1

One process with one thread drives the public API in a closed loop with
one caller: each job starts only after the previous one has returned.
The inputs come from ``--seed`` (see inputs.py) and are handed to the
library only as JSON files.  Every job's output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ["descent_glue", "hom_solve", "cli_mixed"]
DEFAULT_SEED = 0
SETUP_PROBES = 11
# share of a traced run spent untraced, to measure the tracing overhead
UNTRACED_SHARE = 1 / 3


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_library(root: Path):
    src = root / "src"
    if not (src / "fanrep" / "__init__.py").is_file():
        fail(f"no fanrep sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import fanrep

    if not Path(fanrep.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported fanrep from {fanrep.__file__}, not from {src}")
    return src


def loadavg_1m():
    try:
        return os.getloadavg()[0]
    except OSError:  # not available on this platform
        return None


def git_rev(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(items, workdir: Path) -> list:
    """Write the inputs' files and drop their data, so that it does not
    count in peak_rss_mib; returns the setup probe's manifest."""
    manifest = []
    for item in items:
        folder = workdir / item.name
        folder.mkdir(parents=True)
        for name, (reader, data) in item.files.items():
            (folder / name).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
            item.files[name] = (reader, None)
            reader, _, fan_file = reader.partition(":")
            manifest.append([reader, str(folder / name), str(folder / fan_file) if fan_file else None])
    return manifest


def setup_seconds(src: Path, manifest: list, workdir: Path) -> tuple:
    """Median over fresh processes of import plus parsing every input:
    (at the reference speed, raw wall time)."""
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), str(src), str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}", 1)
        elapsed, kernel = map(float, proc.stdout.split())
        scaled.append(elapsed * calibrate.REFERENCE_S / kernel)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


class Checker:
    """Output checks.  The first output of each input gets the semantic
    checks and, on the default seed (``recorded`` is not None), must match
    the recorded digest, which must exist; every later output of that
    input must have the same digest.  An input whose first output is
    wrong fails every time it runs."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.warm_up = False  # also run the costly checks
        self.expected = {}
        self.problems = []

    def ok(self, job, out) -> bool:
        """``out`` is None when the job raised."""
        if job.name in self.expected:
            return out is not None and job.digest(out) == self.expected[job.name]
        if out is None:
            self.problems.append(f"{job.name}: raised")
            self.expected[job.name] = None
            return False
        got = job.digest(out)
        bad = job.problems(out) + (job.warm_up_problems(out) if self.warm_up else [])
        if self.recorded is not None:
            want = self.recorded.get(job.name)
            if want is None:
                bad.append("no recorded digest")
            elif got != want:
                bad.append(f"digest {got[:12]} differs from the recorded {want[:12]}")
        self.problems += [f"{job.name}: {b}" for b in bad]
        self.expected[job.name] = None if bad else got
        return not bad


class Timing:
    """Raw job wall times and the calibration kernel's time before and
    after each job (``kernel[i]`` precedes job i, ``kernel[i + 1]``
    follows it)."""

    def __init__(self):
        self.raw, self.kernel, self.failed, self.rounds = [], [calibrate.kernel_seconds()], 0, 0

    def scaled(self) -> list:
        """Job times at the reference speed.  Each job is scaled by the
        median of the four kernel times around it, so one preempted
        kernel run does not skew it."""
        k = self.kernel
        return [t * calibrate.REFERENCE_S / statistics.median(k[max(0, i - 1) : i + 3]) for i, t in enumerate(self.raw)]


def measure(rounds, make_job, seconds: float, min_rounds: int, checker: Checker, tracer=None) -> Timing:
    """Closed loop over whole rounds of inputs, wrapping around if they run
    out, until the jobs' own wall time reaches ``seconds`` and at least
    ``min_rounds`` rounds ran.  A round's inputs are parsed by ``make_job``
    just before it runs and dropped after it, so only one round's parsed
    inputs are alive at a time.  Parsing, the kernel runs and the output
    checks happen outside the timed intervals."""
    timing, busy = Timing(), 0.0
    first_error = None
    for items in itertools.cycle(rounds):
        if busy >= seconds and timing.rounds >= min_rounds:
            break
        jobs = [make_job(item) for item in items]
        for job in jobs:
            if tracer is not None:
                tracer.job = len(timing.raw)
                tracer.active = True
            start = perf_counter()
            try:
                out = job.run()
            except Exception:
                out = None
                first_error = first_error or traceback.format_exc()
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            timing.kernel.append(calibrate.kernel_seconds())
            timing.raw.append(elapsed)
            busy += elapsed
            if not checker.ok(job, out):
                timing.failed += 1
        del jobs, job, out
        timing.rounds += 1
    if first_error:
        print(first_error, file=sys.stderr)
    return timing


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n


def end_to_end(times: list, setup: float) -> dict:
    return {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (tail(times)[0] * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def run_workload(args, root: Path) -> int:
    src = load_library(root)
    import inputs
    import jobs as jobs_mod
    import tracing

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(root),
        "loadavg_1m_start": loadavg_1m(),
    }
    recorded = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text())[args.workload]

    phases, clock = {}, perf_counter()

    def phase(name):
        nonlocal clock
        now = perf_counter()
        phases[name] = round(now - clock, 3)
        clock = now

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds = []
        for items in inputs.generate(args.workload, args.seed):
            listed = write_inputs(items, workdir)
            if not rounds:
                manifest = listed  # setup_s parses round 0
            rounds.append(items)
        phase("generate_s")
        setup, setup_raw = setup_seconds(src, manifest, workdir)
        phase("setup_probes_s")
        job_cls = jobs_mod.WORKLOADS[args.workload]
        rel = os.path.relpath(workdir, root)

        def make_job(item):
            job = job_cls(item, rel, tracer)
            job.prepare()
            return job

        checker = Checker(recorded)
        checker.warm_up = True
        measure([inputs.one_per_kind(rounds[0])], make_job, 0.0, 1, checker)  # caches, first-call costs
        checker.warm_up = False
        timed = rounds[1:]
        gc.collect()
        phase("warm_up_s")
        if not args.trace:
            timing = measure(timed, make_job, args.seconds, inputs.MIN_ROUNDS[args.workload], checker)
            metrics = end_to_end(timing.scaled(), setup)
            raw = end_to_end(timing.raw, setup_raw)
            record["raw_wall"] = {name: value for name, (value, _) in raw.items() if name != "peak_rss_mib"}
        else:
            base = measure(timed, make_job, args.seconds * UNTRACED_SHARE, 1, checker)
            tracer.install()
            try:
                left = tracer.unwrapped_bindings(callers=[jobs_mod])
                if left:
                    fail("unwrapped bindings after installing the tracer: " + ", ".join(left), 3)
                timing = measure(timed, make_job, args.seconds * (1 - UNTRACED_SHARE), 1, checker, tracer)
            finally:
                tracer.uninstall()
            scaled = timing.scaled()
            metrics = tracer.metrics(len(scaled), slowdown=sum(timing.raw) / sum(scaled))
            untraced = base.scaled()
            metrics["trace.overhead_ratio"] = (
                (len(untraced) / sum(untraced)) / (len(scaled) / sum(scaled)),
                "1",
            )
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
            record["spans_kept"] = len(tracer.span_name)
            record["spans_dropped"] = tracer.spans_dropped
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's inputs are still there

    phase("measure_s")
    n = len(timing.raw)
    _, pct, _ = tail(timing.raw)
    record.update(
        phases=phases,
        loadavg_1m_end=loadavg_1m(),
        speed_vs_reference=calibrate.REFERENCE_S / statistics.median(timing.kernel),
        rounds=timing.rounds,
        jobs=n,
        job_tail_percentile=round(pct, 2),
        failed_ratio=timing.failed / n,
        problems=checker.problems,
    )
    final = {
        "correct": not checker.problems and timing.failed == 0,
        "attempted": n,
        "failed": timing.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **final}, indent=2) + "\n", encoding="utf-8"
    )
    for problem in checker.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("# record " + json.dumps(record, sort_keys=True))
    print(f"# failed_ratio {record['failed_ratio']:.6g} 1 ({timing.failed} of {n} jobs)")
    print(f"# job_tail_ms is p{pct:.2f} of {n} jobs")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            if not line.startswith("# record"):
                print("  " + line[2:])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
