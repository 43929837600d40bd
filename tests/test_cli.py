import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

import coregcalc
from coregcalc import cli, setalg, toric
from coregcalc.setalg import EnumBounds

CMD = [sys.executable, "-m", "coregcalc.cli"]
# The child imports the package this process imported, also when pytest
# found it through its `pythonpath` setting rather than through PYTHONPATH.
PYTHONPATH = os.pathsep.join(filter(None, (str(Path(coregcalc.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH"))))


def run(*args, env_extra=None, timeout=None):
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def run_in_process(*args):
    """(exit code, stdout, stderr) of `cli.main` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "argv", ["coregcalc", *args]), pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code, out.getvalue(), err.getvalue()


class TestSetCommands:
    def test_plus(self):
        r = run("plus", "--I", "1/3,2/5", "--bounds", "terms=4")
        assert r.returncode == 0
        assert r.stdout == "0\n1/3\n2/5\n2/3\n11/15\n4/5\n1\n"

    def test_dset(self):
        r = run("dset", "--I", "1/2", "--bounds", "terms=4,index=2")
        assert r.returncode == 0
        assert r.stdout == "0\n1/2\n3/4\n1\n"

    def test_ddset(self):
        r = run("ddset", "--I", "0", "--d", "1/2", "--bounds", "terms=4,index=2")
        assert r.returncode == 0
        assert r.stdout == "1/2\n3/4\n1\n"

    def test_ddset_zero_shift_exits_two(self):
        r = run("ddset", "--I", "0", "--d", "0")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: shift d must lie in (0,1]\n"


class TestMembership:
    def test_true_exits_zero(self):
        r = run("mem", "plus", "11/15", "--I", "1/3,2/5")
        assert r.returncode == 0 and r.stdout == "true\n"

    def test_false_exits_one(self):
        r = run("mem", "plus", "7/15", "--I", "1/3,2/5")
        assert r.returncode == 1 and r.stdout == "false\n"

    def test_lct0_reports_witness(self):
        r = run("mem", "lct0", "1/2", "--I", "1/2", "--J", "1")
        assert r.returncode == 0
        assert r.stdout == "true c0(i=1/2,j=1)\n"

    def test_lct1_found(self):
        r = run("mem", "lct1", "1/30", "--J", "1", "--triple-bound", "5")
        assert r.returncode == 0
        assert r.stdout.startswith("true c1(p=")

    def test_lct1_not_found_exits_one(self):
        r = run("mem", "lct1", "9999/10000", "--J", "1", "--triple-bound", "3")
        assert r.returncode == 1
        assert "not-found-within-bound" in r.stdout

    def test_ddset_requires_shift(self):
        r = run("mem", "ddset", "1/2", "--I", "0")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    @pytest.mark.parametrize("target", ["plus", "dset", "lct0", "lct1"])
    def test_shift_outside_ddset_exits_two(self, target):
        # `mem dset 7/8 --I 1/2 --d 1/4` answered for D(I) and exited 0
        code, out, err = run_in_process("mem", target, "7/8", "--I", "1/2", "--J", "1", "--d", "1/4")
        assert (code, out, err) == (2, "", "error: --d applies only to the ddset target\n")

    def test_ddset_shift_above_one_exits_two(self):
        r = run("mem", "ddset", "1/2", "--I", "1/2", "--d", "3/2")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: shift d must lie in (0,1]\n"


class TestThresholdSets:
    def test_lct0_with_integer_value_cap(self):
        r = run("lct0", "--I", "1/2", "--J", "1", "--bounds", "value=6")
        assert r.returncode == 0
        assert r.stdout == "0\n1/6\n1/5\n1/4\n1/3\n1/2\n1\n"

    def test_lct0_witnesses_replayable(self):
        r = run("lct0", "--I", "1/2", "--J", "1", "--bounds", "value=4", "--witness")
        assert r.returncode == 0
        for line in r.stdout.splitlines():
            value, witness = line.split("\t")
            assert witness.startswith("c0(i=")

    def test_lct1_contains_platonic_minimum(self):
        r = run("lct1", "--J", "1", "--bounds", "terms=4,index=5")
        assert r.returncode == 0
        assert "1/30" in r.stdout.splitlines()

    def test_p1_oracle_degree_one(self):
        r = run("p1-oracle", "--I", "1/2", "--J", "1", "--degree", "1",
                "--bounds", "terms=3,index=4")
        assert r.returncode == 0
        assert "1/2" in r.stdout.splitlines()

    def test_acc_above(self):
        r = run("acc-above", "--I", "1/2", "--J", "1", "--c", "0", "--t", "1/3")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0].startswith("#")
        assert lines[1:] == ["1/3", "1/2", "1"]

    def test_accum(self):
        r = run("accum", "--I", "1", "--J", "1", "--c", "1", "--bounds", "terms=4,index=5")
        assert r.returncode == 0
        assert r.stdout  # candidates with family annotations
        for line in r.stdout.splitlines():
            assert "\t" in line or line.startswith("#")


class TestFileCommands:
    def test_dualcx(self, tmp_path):
        f = tmp_path / "strat.txt"
        f.write_text("dim 4\ndivisors 1\n")
        r = run("dualcx", str(f))
        assert r.returncode == 0
        assert r.stdout == "reg 0, coreg 3\n"

    def test_dualcx_max_convention(self, tmp_path):
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors 3\nstratum 1,2 1\n")
        r = run("dualcx", str(f), "--max-convention")
        assert r.stdout == "reg 0, coreg 2\nlargest-simplex dimension 1\n"

    def test_dualcx_repeated_stratum_exits_two(self, tmp_path):
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors 3\nstratum 1,2 1\nstratum 1,2 2\n")
        r = run("dualcx", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 4: stratum 1,2 is listed twice\n"

    def test_dualcx_negative_divisor_count_exits_two(self, tmp_path):
        # read as no divisors at all, -2 would give `reg -1, coreg 3`
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors -2\n")
        r = run("dualcx", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 2: negative `divisors` value -2\n"

    def test_dualcx_index_out_of_range_exits_two(self, tmp_path):
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors 2\nstratum 0,1 1\n")
        r = run("dualcx", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 3: divisor index out of range in stratum 0,1: there are 2 divisors\n"

    def test_dualcx_ambiguous_incidence_exits_two(self, tmp_path):
        # it printed `reg 2, coreg 0`, but if the second E1 n E2 curve
        # misses E3 the answer is `reg 1, coreg 1`
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors 3\nstratum 1,2 2\nstratum 1,3 1\n"
                     "stratum 2,3 1\nstratum 1,2,3 1\n")
        r = run("dualcx", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == ("error: ambiguous incidence: stratum E1,E2 has 2 components "
                            "under the nonempty stratum E1,E2,E3\n")

    def test_dualcx_non_integer_field_exits_two(self, tmp_path):
        f = tmp_path / "strat.txt"
        f.write_text("dim 3\ndivisors 2\nstratum 1,,2 1\n")
        r = run("dualcx", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 3: expected an integer, got ''\n"

    def test_toric_repeated_coefficient_line_exits_two(self, tmp_path):
        # read last-wins, this file printed 0 and exited 0
        f = tmp_path / "cone.txt"
        f.write_text("dim 2\n1 0\n0 1\nb: 0 0\nc: 1 1\nb: 1 1\n")
        r = run("toric-lct", str(f))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: line 6: repeated `b:` line\n"

    def test_toric_lct_with_oracle(self, tmp_path):
        f = tmp_path / "cone.txt"
        f.write_text("dim 2\n1 0\n1 2\nb: 0 1/2\nc: 1 1\n")
        r = run("toric-lct", str(f), "--oracle", "8")
        assert r.returncode == 0
        assert r.stdout == "1/2\noracle 1/2 (agrees)\n"

    @pytest.mark.parametrize("oracle,shown", [(F(1, 3), "1/3"), (None, "infinity")])
    def test_toric_lct_oracle_mismatch_exits_two(self, tmp_path, oracle, shown):
        f = tmp_path / "cone.txt"
        f.write_text("dim 2\n1 0\n1 2\nb: 0 1/2\nc: 1 1\n")
        with mock.patch.object(toric, "toric_lct_oracle", return_value=oracle):
            code, out, _ = run_in_process("toric-lct", str(f), "--oracle", "8")
        assert (code, out) == (2, f"1/2\noracle {shown} (MISMATCH)\n")

    @pytest.mark.parametrize(
        "text",
        ["dim\nb: \nc: \n", "dim x\n1 0\n0 1\nb: 0 0\nc: 1 1\n", "dim 0\nb: \nc: \n"],
    )
    def test_malformed_dimension_exits_two(self, tmp_path, text):
        f = tmp_path / "cone.txt"
        f.write_text(text)
        r = run("toric-lct", str(f), "--oracle", "3")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: cone file must start with `dim n`, n a positive integer\n"

    def test_oracle_box_too_large_exits_two(self, tmp_path):
        f = tmp_path / "cone.txt"
        f.write_text("dim 2\n1 0\n1 2\nb: 0 1/2\nc: 1 1\n")
        r = run("toric-lct", str(f), "--oracle", "1000", timeout=30)
        assert r.returncode == 2 and r.stdout == "1/2\n"
        assert r.stderr == "error: oracle box has 4004001 points, above the cap 1000000\n"

    def test_missing_file_exits_two(self):
        r = run("toric-lct", "/no/such/file")
        assert r.returncode == 2 and r.stderr.startswith("error:")


class TestLemmaChecks:
    def test_ddi(self):
        r = run("lemma-check", "ddi", "--I", "1/2", "--bounds", "terms=4,index=6")
        assert r.returncode == 0 and r.stdout == "true\n"

    def test_dd_monotone(self):
        r = run("lemma-check", "dd-monotone", "--I", "0", "--d", "1/2",
                "--bounds", "terms=4,index=3")
        assert r.returncode == 0 and r.stdout == "true\n"

    def test_ddi_refuses_shift(self):
        code, out, err = run_in_process("lemma-check", "ddi", "--I", "1/2", "--d", "1/4")
        assert (code, out, err) == (2, "", "error: --d applies only to dd-monotone\n")

    def test_dd_monotone_needs_shift(self):
        r = run("lemma-check", "dd-monotone", "--I", "0")
        assert r.returncode == 2

    # the lemmas hold, so a counterexample needs a decider that answers false
    @pytest.mark.parametrize("decider,argv,line", [
        ("mem_d_set", ("ddi", "--I", "1/2"), "D(D(I)) element outside D(I)u{1}: 1/2"),
        ("_mem_shifted", ("dd-monotone", "--I", "1/2", "--d", "1/3"), "d1=1/3, a=5/6"),
    ])
    def test_counterexamples_print_rationals(self, decider, argv, line):
        with mock.patch.object(setalg, decider, return_value=False):
            code, out, _ = run_in_process("lemma-check", *argv, "--bounds", "terms=2,index=2")
        assert code == 1 and out.splitlines()[0] == "false"
        assert f"counterexample: {line}" in out.splitlines()
        assert "Fraction(" not in out


class TestRobustness:
    def test_bad_rational_exits_two(self):
        r = run("mem", "plus", "0.5", "--I", "1/2")
        assert r.returncode == 2 and r.stderr.startswith("error:")

    def test_repeated_bounds_key_exits_two(self):
        r = run("plus", "--I", "1/3", "--bounds", "terms=1,terms=3")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: repeated bounds key 'terms'\n"

    def test_unknown_bounds_key_exits_two(self):
        r = run("plus", "--I", "1/2", "--bounds", "depth=3")
        assert r.returncode == 2

    def test_deterministic_across_hash_seeds(self):
        outs = set()
        for seed in ("0", "1", "424242"):
            r = run("lct1", "--I", "1/2,1/3", "--J", "1,1/2",
                    "--bounds", "terms=3,index=3", "--witness",
                    env_extra={"PYTHONHASHSEED": seed})
            assert r.returncode == 0
            outs.add(r.stdout)
        assert len(outs) == 1


# Each bounded command with an input, and per bound key it reads two values
# whose outputs differ: the first is the base, the second the variant.
KEY_EFFECTS = {
    "plus": (["plus", "--I", "1/3"], {"terms": ("2", "1")}),
    "dset": (["dset", "--I", "1/3"], {"terms": ("2", "1"), "index": ("3", "2")}),
    # with --I 1/3 the terms bound does not show in D_d(I)
    "ddset": (["ddset", "--I", "1/5", "--d", "1/2"], {"terms": ("2", "1"), "index": ("3", "2")}),
    "lct0": (["lct0", "--I", "1/3", "--J", "1"],
             {"terms": ("2", "1"), "value": ("2", "1"), "denom": ("100", "3")}),
    "lct1": (["lct1", "--I", "1/2", "--J", "1"],
             {"terms": ("4", "3"), "index": ("3", "2"), "denom": ("100", "5")}),
    "p1-oracle": (["p1-oracle", "--I", "1/2", "--J", "1", "--degree", "1"],
                  {"terms": ("2", "1"), "index": ("3", "2"), "denom": ("100", "3")}),
    "accum": (["accum", "--I", "1/3,1/2", "--J", "1/2", "--c", "1"],
              {"terms": ("5", "3"), "index": ("3", "2")}),
    # its lemmas are theorems, so TestReads checks where its bounds go
    "lemma-check": (["lemma-check", "ddi", "--I", "1/2"], {"terms": (), "index": ()}),
}
BOUND_VALUES = {"terms": "2", "index": "2", "value": "3", "denom": "5"}


def bounds_arg(keys, key=None):
    """`--bounds` with each key's base value, `key` at its variant."""
    return ["--bounds", ",".join(f"{k}={v[1] if k == key else v[0]}" for k, v in keys.items())]


class TestReads:
    """The command table declares what each command reads, and every other
    settable value exits 2 with a reason that names it."""

    @pytest.mark.parametrize("command", KEY_EFFECTS)
    def test_declared_bound_keys(self, command):
        argv, keys = KEY_EFFECTS[command]
        assert cli.build_parser().parse_args(argv).keys == tuple(keys)

    @pytest.mark.parametrize("command,key", [
        (c, k) for c, (argv, keys) in KEY_EFFECTS.items() for k in keys if c != "lemma-check"])
    def test_every_declared_key_changes_the_output(self, command, key):
        argv, keys = KEY_EFFECTS[command]
        base = run_in_process(*argv, *bounds_arg(keys))
        variant = run_in_process(*argv, *bounds_arg(keys, key))
        assert base[0] == variant[0] == 0 and base[1] != variant[1]

    @pytest.mark.parametrize("argv,check", [
        (["lemma-check", "ddi", "--I", "1/2"], "check_ddi_lemma"),
        (["lemma-check", "dd-monotone", "--I", "1/2", "--d", "1/3"], "check_dd_monotone"),
    ])
    def test_lemma_check_bounds_reach_the_checker(self, argv, check):
        with mock.patch.object(setalg, check, wraps=getattr(setalg, check)) as spy:
            code, out, _ = run_in_process(*argv, "--bounds", "terms=2,index=3")
        assert (code, out) == (0, "true\n")
        assert spy.call_args.args[-1] == EnumBounds(2, 3)

    @pytest.mark.parametrize("command,key", [
        (c, k) for c, (argv, keys) in KEY_EFFECTS.items() for k in BOUND_VALUES if k not in keys])
    def test_unread_bound_key_exits_two(self, command, key):
        argv, keys = KEY_EFFECTS[command]
        code, out, err = run_in_process(*argv, "--bounds", f"{key}={BOUND_VALUES[key]}")
        assert (code, out) == (2, "")
        assert err == (f"error: this command does not read bounds key {key!r} "
                       f"(it reads {', '.join(keys)})\n")

    @pytest.mark.parametrize("argv,message", [
        (["mem", "plus", "1/2", "--I", "1/2", "--J", "1"],
         "--J applies only to the lct0 or lct1 target"),
        (["mem", "dset", "1/2", "--I", "1/2", "--J", "1"],
         "--J applies only to the lct0 or lct1 target"),
        (["mem", "ddset", "1/2", "--I", "1/2", "--d", "1/4", "--J", "1"],
         "--J applies only to the lct0 or lct1 target"),
        (["mem", "plus", "1/2", "--I", "1/2", "--triple-bound", "3"],
         "--triple-bound applies only to the lct1 target"),
        (["mem", "dset", "1/2", "--I", "1/2", "--triple-bound", "3"],
         "--triple-bound applies only to the lct1 target"),
        (["mem", "ddset", "1/2", "--I", "1/2", "--d", "1/4", "--triple-bound", "3"],
         "--triple-bound applies only to the lct1 target"),
        (["mem", "lct0", "1/2", "--I", "1/2", "--J", "1", "--triple-bound", "3"],
         "--triple-bound applies only to the lct1 target"),
        (["acc-above", "--I", "1/2", "--J", "1", "--c", "0", "--t", "1/3", "--triple-cutoff", "3"],
         "--triple-cutoff applies only to --c 1"),
        (["accum", "--I", "1/2", "--J", "1", "--c", "0", "--bounds", "terms=2"],
         "--bounds applies only to --c 1"),
    ])
    def test_option_the_mode_does_not_read_exits_two(self, argv, message):
        assert run_in_process(*argv) == (2, "", f"error: {message}\n")

    def test_unbounded_command_gets_the_default_bounds(self):
        with mock.patch.object(setalg, "check_ddi_lemma", wraps=setalg.check_ddi_lemma) as spy:
            code, out, _ = run_in_process("lemma-check", "ddi", "--I", "1/2")
        assert (code, out) == (0, "true\n")
        assert spy.call_args.args[-1] == EnumBounds()

    @pytest.mark.parametrize("argv", [
        ["mem", "lct1", "1/30", "--J", "1", "--bounds", "terms=1,index=1,denom=2"],
        ["acc-above", "--I", "1/2", "--J", "1", "--c", "1", "--t", "1/2", "--bounds", "index=2"],
        ["mem", "plus", "1/2", "9", "--I", "1/2"],
        ["--bogus", "plus", "--I", "1/2"],
    ])
    def test_bounds_on_a_command_without_bounds_exits_two(self, argv):
        # the parser given the leftover names it: the subcommand for --bounds and
        # its value or the stray 9, the top level for --bogus before the subcommand
        if argv[0] == "--bogus":
            prog, extra = "coregcalc", "--bogus"
        else:
            prog = f"coregcalc {argv[0]}"
            extra = " ".join(argv[argv.index("--bounds"):]) if "--bounds" in argv else "9"
        code, out, err = run_in_process(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: {prog} ")
        assert err.endswith(f"\n{prog}: error: unrecognized arguments: {extra}\n")

    @pytest.mark.parametrize("argv,option", [
        (["plus", "--I", "1/3", "--I", "1/2", "--bounds", "terms=2"], "--I"),
        (["plus", "--I", "1/2", "--bounds", "terms=1", "--bounds", "terms=3"], "--bounds"),
        (["acc-above", "--I", "1/2", "--J", "1", "--c", "0", "--c", "1", "--t", "1/2"], "--c"),
        (["mem", "lct1", "1/30", "--J", "1", "--triple-bound", "3", "--triple-bound", "5"],
         "--triple-bound"),
    ])
    def test_option_given_twice_exits_two(self, argv, option):
        code, out, err = run_in_process(*argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {option}: given more than once\n")

    def test_flag_given_twice_is_read_once(self):
        argv = ["lct0", "--I", "1/2", "--J", "1", "--bounds", "value=3", "--witness"]
        assert run_in_process(*argv, "--witness") == run_in_process(*argv)


def test_traced_layers_resolve():
    """Every layer that `bench/run.py --trace 1` wraps, named in
    `bench/tracing.LAYERS` as `module.attr` or `module.Class.method`, is
    still defined under that name where the tracer looks it up."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.LAYERS:
        module, _, attr = name.partition(".")
        owner = importlib.import_module(f"coregcalc.{module}")
        *classes, last = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert last in vars(owner), name
