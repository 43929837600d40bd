"""Record the digest of every job's exit code and stdout on the default seed.

    python3 bench/record_digests.py

Run it from the root of a checkout of the commit whose outputs are the
reference; run.py then compares every job of a --seed 0 run (the default
seed) against bench/digests.json, cycling over the PASSES recorded passes.
Only re-record when an output change is intended, and say so in the change
that does it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

PASSES = 80


def record(workload: str) -> dict[str, list[str]]:
    cli = run.import_program()
    out = {}
    for index in range(PASSES):
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=run.OUT)
        try:
            batch, files = jobs.generate(workload, run.DEFAULT_SEED, index, workdir)
            for path, text in files.items():
                Path(path).write_text(text)
            out[str(index)] = []
            for job in batch:
                code, text = run.call(cli, job.argv)
                reason = checks.check(job, code, text)
                if reason is not None:
                    raise SystemExit(f"not recording a failing job: {' '.join(job.argv)}: {reason}")
                out[str(index)].append(run.digest(code, text))
        finally:
            shutil.rmtree(workdir)
    return out


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    digests = {w: record(w) for w in jobs.WORKLOADS}
    lines = []
    for w, by_pass in digests.items():
        rows = ",\n".join(f'    "{i}": {json.dumps(d)}' for i, d in by_pass.items())
        lines.append(f'  "{w}": {{\n{rows}\n  }}')
    run.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {run.DIGESTS}: {PASSES} passes per workload")


if __name__ == "__main__":
    main()
