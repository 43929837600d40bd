"""Golden CLI outputs: stdout and exit code of fixed invocations, byte for byte.

Each case runs in process through `cli.main` (so through `cli.run`, with the
exit code `main` gives an error).  The expected outputs in `golden_cli.json`
are recorded by running this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from coregcalc import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
FILE = "{file}"  # replaced in argv by the path of the case's input file

STRAT = "dim 3\ndivisors 3\nstratum 1,2 1\nstratum 1,3 1\nstratum 2,3 1\n"
CONE = "dim 2\n1 0\n1 2\nb: 0 1/2\nc: 1 1\n"

# (id, argv, input file text or None)
CASES = [
    ("plus", ["plus", "--I", "1/3,2/5", "--bounds", "terms=4"], None),
    ("plus-default-bounds", ["plus", "--I", "1/4,1/3,3/2"], None),
    ("dset", ["dset", "--I", "1/3,2/5", "--bounds", "terms=3,index=4"], None),
    ("ddset", ["ddset", "--I", "1/2", "--d", "1/3", "--bounds", "terms=4,index=3"], None),
    ("ddset-zero-shift", ["ddset", "--I", "0", "--d", "0"], None),
    ("mem-plus-true", ["mem", "plus", "11/15", "--I", "1/3,2/5"], None),
    ("mem-plus-false", ["mem", "plus", "7/15", "--I", "1/3,2/5"], None),
    ("mem-plus-outside", ["mem", "plus", "3/2", "--I", "1/2"], None),
    ("mem-dset", ["mem", "dset", "7/8", "--I", "1/2"], None),
    ("mem-ddset", ["mem", "ddset", "7/8", "--I", "1/2", "--d", "1/4"], None),
    ("mem-ddset-no-shift", ["mem", "ddset", "1/2", "--I", "0"], None),
    ("mem-lct0", ["mem", "lct0", "1/997", "--I", "1/3,2/5", "--J", "1/2,1"], None),
    ("mem-lct0-zero", ["mem", "lct0", "0", "--I", "1/2", "--J", "1/3"], None),
    ("mem-lct1", ["mem", "lct1", "1/30", "--J", "1", "--triple-bound", "5"], None),
    ("mem-lct1-j-above-one", ["mem", "lct1", "1/7", "--I", "1/2", "--J", "3/2,1/3"], None),
    ("mem-lct1-zero", ["mem", "lct1", "0", "--I", "1", "--J", "1/2"], None),
    ("mem-lct1-not-found", ["mem", "lct1", "9999/10000", "--J", "1", "--triple-bound", "3"], None),
    ("mem-unknown-target", ["mem", "bogus", "1/2"], None),
    ("lct0-value-cap", ["lct0", "--I", "1/2", "--J", "1", "--bounds", "value=6", "--witness"], None),
    ("lct0-fraction-cap", ["lct0", "--I", "1/3", "--J", "1/2,2/3", "--bounds", "terms=3,value=3/2"], None),
    ("lct1-witness", ["lct1", "--I", "1/2", "--J", "1", "--bounds", "terms=4,index=3", "--witness"], None),
    ("lct1-tail", ["lct1", "--I", "1/3", "--J", "3/2,1/2", "--bounds", "terms=6,index=3,denom=40", "--witness"], None),
    ("lct1-three-term", ["lct1", "--I", "1/2,1/3", "--J", "1,1/2", "--bounds", "terms=5,index=3", "--three-term", "--witness"], None),
    ("lct1-no-positive-j", ["lct1", "--I", "1/2", "--J", "0", "--bounds", "terms=4,index=3"], None),
    ("p1-oracle", ["p1-oracle", "--I", "1/2", "--J", "1", "--degree", "1", "--bounds", "terms=3,index=4", "--witness"], None),
    ("p1-oracle-no-cap", ["p1-oracle", "--I", "1/2", "--J", "1", "--degree", "2", "--bounds", "terms=2,index=3", "--no-cap-unit"], None),
    ("acc-above-c0", ["acc-above", "--I", "1/2", "--J", "1", "--c", "0", "--t", "1/3", "--witness"], None),
    ("acc-above-c1", ["acc-above", "--I", "1/2", "--J", "1,3/2", "--c", "1", "--t", "1/2", "--triple-cutoff", "4", "--witness"], None),
    ("acc-above-zero-t", ["acc-above", "--I", "1/2", "--J", "1", "--c", "0", "--t", "0"], None),
    ("accum-c0", ["accum", "--I", "1/2", "--J", "1", "--c", "0"], None),
    ("accum-c1", ["accum", "--I", "1", "--J", "1", "--c", "1", "--bounds", "terms=4,index=4"], None),
    ("accum-c1-tail", ["accum", "--I", "1/3,1/2", "--J", "1/2", "--c", "1", "--bounds", "terms=5,index=2"], None),
    ("p1-oracle-deg2-index6", ["p1-oracle", "--I", "1/4,1/6", "--J", "1", "--degree", "2", "--bounds", "terms=3,index=6", "--witness"], None),
    ("p1-oracle-no-cap-deg2", ["p1-oracle", "--I", "1/3", "--J", "1/2", "--degree", "2", "--bounds", "terms=3,index=4", "--no-cap-unit", "--witness"], None),
    ("lct1-terms5-index4", ["lct1", "--I", "1/2", "--J", "1,1/2", "--bounds", "terms=5,index=4", "--witness"], None),
    ("acc-above-c1-third", ["acc-above", "--I", "1/2", "--J", "1,1/2", "--c", "1", "--t", "1/3", "--witness"], None),
    ("accum-c1-index5", ["accum", "--I", "1/3,1/2", "--J", "1/2,1", "--c", "1", "--bounds", "terms=5,index=5"], None),
    ("mem-lct0-zero-false", ["mem", "lct0", "0", "--I", "2/5", "--J", "1"], None),
    ("mem-lct1-zero-no-positive-j", ["mem", "lct1", "0", "--I", "1", "--J", "0"], None),
    ("mem-lct0-j-above-one", ["mem", "lct0", "1/3", "--I", "1/2", "--J", "3/2,1/2"], None),
    ("accum-c1-j-above-one", ["accum", "--I", "1/3", "--J", "3/2,1/2", "--c", "1", "--bounds", "terms=6,index=4"], None),
    ("acc-above-c0-j-above-one", ["acc-above", "--I", "1/3", "--J", "3/2,1", "--c", "0", "--t", "1/4", "--witness"], None),
    ("dualcx", ["dualcx", FILE], STRAT),
    ("dualcx-max", ["dualcx", FILE, "--max-convention"], STRAT),
    ("dualcx-malformed", ["dualcx", FILE], "dim 3\ndivisors 2\nstratum 1\n"),
    ("toric-lct-oracle", ["toric-lct", FILE, "--oracle", "8"], CONE),
    ("toric-lct-infinity", ["toric-lct", FILE], "dim 2\n1 0\n0 1\nb: 0 0\nc: 0 0\n"),
    ("toric-lct-bad-dim", ["toric-lct", FILE, "--oracle", "3"], "dim 0\nb: \nc: \n"),
    ("lemma-ddi", ["lemma-check", "ddi", "--I", "1/2", "--bounds", "terms=4,index=6"], None),
    ("lemma-dd-monotone", ["lemma-check", "dd-monotone", "--I", "1/2", "--d", "1/3", "--bounds", "terms=3,index=3"], None),
    ("lemma-dd-monotone-no-shift", ["lemma-check", "dd-monotone", "--I", "0"], None),
    ("bounds-unknown-key", ["plus", "--I", "1/2", "--bounds", "depth=3"], None),
    ("mem-lct1-small-t", ["mem", "lct1", "3/1000", "--I", "5/9,7/11", "--J", "1,1/2", "--triple-bound", "4"], None),
    ("plus-large-denominator", ["plus", "--I", "2/997,3/7", "--bounds", "terms=12"], None),
    ("mem-dset-large-false", ["mem", "dset", "299966/299973", "--I", "1/3,49999/99991"], None),
    ("mem-dset-large-true", ["mem", "dset", "299971/299973", "--I", "1/3,49999/99991"], None),
    ("mem-ddset-large", ["mem", "ddset", "299971/299973", "--I", "1/3,49999/99991", "--d", "1/3"], None),
    ("help", ["--help"], None),
    *((f"help-{cmd}", [cmd, "--help"], None) for cmd in (
        "plus", "dset", "ddset", "mem", "lct0", "lct1", "p1-oracle", "acc-above",
        "accum", "dualcx", "toric-lct", "lemma-check")),
]


def invoke(argv, file_text):
    """(exit code, stdout) of one CLI invocation, stderr discarded; argparse
    wraps `--help` at the terminal width, so COLUMNS is fixed at 80."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if file_text is not None:
            path = os.path.join(tmp, "input.txt")
            with open(path, "w") as fh:
                fh.write(file_text)
            argv = [path if a == FILE else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                mock.patch.object(sys, "argv", ["coregcalc", *argv]), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            try:
                cli.main()
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue()


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cid for cid, _, _ in CASES)


@pytest.mark.parametrize("cid,argv,file_text", CASES, ids=[c[0] for c in CASES])
def test_golden(cid, argv, file_text):
    expected = json.loads(GOLDEN.read_text())[cid]
    code, stdout = invoke(argv, file_text)
    assert (code, stdout) == (expected["exit"], expected["stdout"])


if __name__ == "__main__":
    recorded = {}
    for cid, argv, file_text in CASES:
        code, stdout = invoke(argv, file_text)
        recorded[cid] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
