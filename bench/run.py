"""Batch benchmark for coregcalc.

    python3 bench/run.py --workload membership --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One caller runs seeded jobs back to
back through ``coregcalc.cli.run(argv)`` in this process (a closed loop, no
worker threads or processes), captures each job's stdout, checks it, and
prints one JSON object as the last line of stdout.

A run is a sequence of passes of about half a second.  Each pass generates
its jobs, writes their files and runs the jobs; every pass has the same mix
of jobs.  Five passes, spread over the run, first import coregcalc afresh
from src/; setup_s is the median of their set-up times (import, generation
and file writing).  Job and set-up times are rescaled to a reference machine
speed measured by a calibration loop next to every job (see REFERENCE_S); the
line before the result also gives the raw figures, the number of jobs checked
against recorded outputs, and the peak RSS right after the first import.

With ``--trace 0`` the metrics are the end-to-end ones: setup_s, jobs_per_s,
job_p50_ms, job_p90_ms, ok_ratio and peak_rss_mb.  With ``--trace 1`` every
pass runs once with every layer wrapped (see tracing.py) and once without;
the metrics are the per-layer ones plus the tracing overhead, and the spans
are written to bench/out/.  Per-layer self times are raw, not rescaled.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs as jobgen  # noqa: E402
import tracing  # noqa: E402

# A run goes on past --seconds until it holds this many jobs, so that at
# least ten lie beyond p90.
MIN_JOBS = 200
# Times per run the program is imported afresh and the set-up timed.
SETUPS = 5
# Job and set-up times are rescaled to one reference speed of the machine.
# A short calibration loop runs before every job, and the times of a pass are
# multiplied by REFERENCE_S / (the median loop time in that pass).  On a
# shared host the speed of this process swings by up to 1.7x for tens of
# seconds under other tenants' load; the loop slows with the jobs, so the
# rescaled times hold still where raw wall times do not.  REFERENCE_S is
# about the loop's time on an unloaded 2-vCPU VM running Python 3.11, so the
# rescaled times read roughly as wall times there.
REFERENCE_S = 0.00025
# Digests of every job's exit code and stdout on this seed, recorded from the
# seed commit by record_digests.py, are compared on every run of it.  Its
# passes cycle over the recorded ones, so every job of such a run is checked.
DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:12]


def import_program():
    """Import coregcalc afresh from this checkout's src/ and return its cli."""
    src = ROOT / "src"
    if not (src / "coregcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no coregcalc sources under {src}")
    for name in [n for n in sys.modules if n == "coregcalc" or n.startswith("coregcalc.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("coregcalc.cli")
    if Path(cli.__file__).resolve().parent != src / "coregcalc":
        raise SystemExit(f"error: imported coregcalc from {cli.__file__}, not {src}")
    return cli


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic, the same kind of
    work the program does.  The collector is off, so that a collection slowed
    by the program's own heap is not divided out of its times."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 121):
            total += Fraction(1, i % 7 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def call(cli, argv):
    """Run one job as the console entry point would: (exit code, stdout).
    Exit code None means an exception the entry point does not handle; its
    traceback then ends the returned text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except (ValueError, OSError):  # main() turns these into exit 2
            code = 2
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception:  # recorded as a failed job; the loop goes on
            code = None
            out.write(traceback.format_exc())
    return code, out.getvalue()


class Runner:
    """Sets up and runs passes of one workload, checking every output."""

    def __init__(self, workload: str, seed: int, digests: dict):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.cli = None
        self.setup_s: list[float] = []
        self.busy_s = 0.0  # raw job seconds, which set the length of a run
        self.attempted = 0
        self.checked = 0  # jobs compared with a recorded digest
        self.failed = 0
        self.reasons: list[str] = []

    def run_pass(self, index: int, fresh: bool = False, tracer=None) -> list[float]:
        """Generate, write and run pass `index`; returns its rescaled job
        times.  With `fresh`, the program is imported anew and the set-up is
        timed."""
        if fresh:
            gc.collect()  # garbage of the previous import is not set-up work
        t0 = time.perf_counter()
        if fresh or self.cli is None:
            self.cli = import_program()
        workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT)
        try:
            recorded = None
            generated = index
            if self.digests:
                generated = index % len(self.digests)
                recorded = self.digests[str(generated)]
            jobs, files = jobgen.generate(self.workload, self.seed, generated, workdir)
            for path, text in files.items():
                with open(path, "w") as fh:
                    fh.write(text)
            setup_s = time.perf_counter() - t0
            if recorded is not None and len(recorded) != len(jobs):
                raise SystemExit(f"error: {DIGESTS.name} does not match the jobs of a pass; "
                                 "record it again")
            times, loops = [], []
            if tracer:
                tracer.install()
            try:
                for k, job in enumerate(jobs):
                    if tracer:
                        tracer.job_id = index * len(jobs) + k
                    loops.append(calibrate())
                    t1 = time.perf_counter()
                    code, out = call(self.cli, job.argv)
                    times.append(time.perf_counter() - t1)
                    self.verify(job, code, out, recorded and recorded[k])
            finally:
                if tracer:
                    tracer.uninstall()
        finally:
            shutil.rmtree(workdir)
        scale = REFERENCE_S / statistics.median(loops)
        if fresh:
            self.setup_s.append(setup_s * scale)
        self.busy_s += sum(times)
        return [t * scale for t in times]

    def verify(self, job, code, out, recorded) -> None:
        if code is None:
            reason = "unhandled " + out.strip().splitlines()[-1]
        else:
            reason = checks.check(job, code, out)
        if reason is None and recorded:
            self.checked += 1
            if digest(code, out) != recorded:
                reason = "output differs from the recorded seed-commit output"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(job.argv)}: {reason}")

    def timed(self, seconds: float) -> list[float]:
        """Rescaled job times of passes run until `seconds` of raw job time
        and MIN_JOBS jobs have gone by.  The set-up is timed afresh SETUPS
        times, spread evenly over the job time."""
        times, index = [], 0
        marks = [seconds * k / SETUPS for k in range(SETUPS)]
        while self.busy_s < seconds or len(times) < MIN_JOBS:
            fresh = bool(marks) and self.busy_s >= marks[0]
            if fresh:
                marks.pop(0)
            times += self.run_pass(index, fresh)
            index += 1
        return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner: Runner, seconds: float, rss_floor_mb: float) -> dict:
    times = runner.timed(seconds)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    peak = peak_rss_mb()
    print(f"{len(times)} jobs, {sum(t > p90 for t in times)} beyond p90, "
          f"{runner.checked} checked against recorded outputs; "
          f"raw: {runner.busy_s:.2f} s of job time, {len(times) / runner.busy_s:.2f} jobs/s; "
          f"rescaled: {sum(times):.2f} s; "
          f"peak RSS {peak:.1f} MB, of which {peak - rss_floor_mb:.1f} MB above the import floor")
    return {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Each pass runs traced and then untraced, so both see the same load,
    until `seconds` of raw job time have gone by."""
    tracer = tracing.Tracer()
    traced = untraced = 0.0
    index = 0
    while runner.busy_s < seconds:
        traced += sum(runner.run_pass(index, tracer=tracer))
        untraced += sum(runner.run_pass(index))
        index += 1
    tracer.write(str(OUT / f"trace-{runner.workload}-{runner.seed}.tsv.gz"))
    jobs = len(set(tracer.job))
    print(f"{index} passes, {jobs} jobs traced, {len(tracer.layer)} spans, "
          f"{runner.checked} jobs checked against recorded outputs")
    values = tracer.layer_metrics(jobs, traced / untraced)
    return {name: (values[name], tracing.metric_unit(name)) for name in tracing.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()  # fail before any output if the sources are missing
    rss_floor_mb = peak_rss_mb()
    OUT.mkdir(exist_ok=True)
    digests = {}
    if args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    runner = Runner(args.workload, args.seed, digests)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds, rss_floor_mb)
    for reason in runner.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
