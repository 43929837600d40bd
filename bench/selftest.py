"""Self-tests of the benchmark: generator determinism and input rules, and
that the output check counts corrupted outputs as failures.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)
"""

import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_generators_are_deterministic_per_seed():
    with tempfile.TemporaryDirectory() as workdir:
        for workload in jobs.WORKLOADS:
            for index in (0, 3):
                first = jobs.generate(workload, 7, index, workdir)
                assert jobs.generate(workload, 7, index, workdir) == first, workload
                assert jobs.generate(workload, 8, index, workdir) != first, workload
                assert jobs.generate(workload, 7, index + 1, workdir) != first, workload


def test_inputs_avoid_cases_planned_fixes_change():
    with tempfile.TemporaryDirectory() as workdir:
        for workload in jobs.WORKLOADS:
            for index in range(3):
                batch, files = jobs.generate(workload, 11, index, workdir)
                for job in batch:
                    if "--d" in job.argv:
                        assert Fraction(job.argv[job.argv.index("--d") + 1]) > 0
                    if job.argv[0] == "toric-lct":
                        rays = files[job.argv[1]].splitlines()[1:-2]
                        reach = max(abs(int(x)) for ray in rays for x in ray.split())
                        assert int(job.argv[job.argv.index("--oracle") + 1]) >= reach
                    if job.argv[0] == "dualcx":
                        _assert_multi_component_strata_maximal(files[job.argv[1]])


def _assert_multi_component_strata_maximal(text):
    strata = {}
    for line in text.splitlines():
        m = re.match(r"stratum ([\d,]+) (\d+)$", line)
        if m:
            strata[frozenset(m[1].split(","))] = int(m[2])
    for s, count in strata.items():
        if count > 1:
            assert not any(s < t and c >= 1 for t, c in strata.items()), text


def _program_outputs(workload, seed=3):
    """(job, exit code, stdout) for the jobs of one pass, from the program."""
    cli = run.import_program()
    with tempfile.TemporaryDirectory() as workdir:
        batch, files = jobs.generate(workload, seed, 0, workdir)
        for path, text in files.items():
            Path(path).write_text(text)
        return [(job, *run.call(cli, job.argv)) for job in batch]


def _failures(job, code, out, recorded=None):
    runner = run.Runner("test", 0, {})
    runner.verify(job, code, out, recorded)
    return runner.failed


def test_program_outputs_pass_the_check():
    for workload in jobs.WORKLOADS:
        for job, code, out in _program_outputs(workload):
            assert _failures(job, code, out) == 0, (job.argv, code, out)


def test_altered_witness_counts_as_failure():
    results = [r for r in _program_outputs("enumeration") if "--witness" in r[0].argv]
    assert results
    for job, code, out in results:
        lines = out.splitlines()
        k = max(n for n, line in enumerate(lines) if "\t" in line)  # largest, nonzero value
        value, prov = lines[k].split("\t")
        # change the last number inside the witness, keeping its shape
        bumped = re.sub(r"(\d+)(\D*)$", lambda m: f"{int(m[1]) + 1}{m[2]}", prov)
        lines[k] = f"{value}\t{bumped}"
        assert _failures(job, code, "\n".join(lines) + "\n") == 1, (job.argv, lines[k])


def test_flipped_true_counts_as_failure():
    results = [r for r in _program_outputs("membership")
               if r[0].must_be_true or r[0].argv[0] == "lemma-check"]
    assert results
    for job, code, out in results:
        assert code == 0 and out.startswith("true")
        flipped = "false\n" if job.argv[0] != "mem" or job.argv[1] != "lct1" else \
            "not-found-within-bound (triples searched up to 3)\n"
        assert _failures(job, 1, flipped) == 1, job.argv


def test_mismatch_counts_as_failure():
    results = [r for r in _program_outputs("geometry") if r[0].argv[0] == "toric-lct"]
    assert results
    for job, code, out in results:
        mismatch = out.replace("(agrees)", "(MISMATCH)")
        assert _failures(job, 2, mismatch) == 1
        assert _failures(job, 0, mismatch) == 1


def test_digest_mismatch_counts_as_failure():
    job, code, out = _program_outputs("geometry")[0]
    assert _failures(job, code, out, run.digest(code, out)) == 0
    assert _failures(job, code, out, run.digest(code, out + " ")) == 1


def test_default_seed_checks_every_pass_against_recorded_outputs():
    digests = run.json.loads(run.DIGESTS.read_text())["geometry"]
    runner = run.Runner("geometry", run.DEFAULT_SEED, digests)
    run.OUT.mkdir(exist_ok=True)
    for index in (0, len(digests) + 1):  # the second lies past the recorded passes
        runner.run_pass(index)
    assert runner.attempted == runner.checked == 2 * len(digests["0"])
    assert runner.failed == 0, runner.reasons


def test_tracer_wraps_imported_names_and_restores_them():
    cli = run.import_program()
    setalg, lctsets = sys.modules["coregcalc.setalg"], sys.modules["coregcalc.lctsets"]
    original = setalg.mem_plus_closure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lctsets.mem_plus_closure is setalg.mem_plus_closure is not original
        assert run.call(cli, ("mem", "dset", "7/8", "--I", "1/2")) == (0, "true\n")
    finally:
        tracer.uninstall()
    assert setalg.mem_plus_closure is original and lctsets.mem_plus_closure is original
    metrics = tracer.layer_metrics(1, 1.0)
    assert metrics["cli.run.calls"] == 1 and metrics["setalg.mem_d_set.calls"] == 1
    # m = 1..4 are tried; m = 4 gives f = 1/2, the only hit
    assert metrics["setalg.mem_plus_closure.calls"] == 4
    assert metrics["setalg.mem_plus_closure.true_ratio"] == 1 / 4
    # self times add up to the root span
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(self_total - (tracer.end[0] - tracer.start[0])) < 1e-9


def test_p1_witness_replay():
    # (1-1 + 1/2 + t/2)/1 + (2-1 + t)/2 = 1 + t = 1  =>  t = 0
    assert checks.replay("p1(N=[1,2],d=[1/2+1/2t,t])") == Fraction(0)
    # (0 + t) + (1/2 + t)/1 = 1  =>  t = 1/4
    assert checks.replay("p1(N=[1,1],d=[t,1/2+1t])") == Fraction(1, 4)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
