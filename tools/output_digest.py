#!/usr/bin/env python3
"""Digest every output of the benchmark's pipeline calls, for byte-identity checks.

    python3 tools/output_digest.py SRC_DIR > digest.txt

Runs the calls of the perfbench workloads (problem files from
``perfbench/workloads.py``) at seeds 0 and 7: the bent-strip and rect-tube
``spectrum``, the five screen ``check`` problems and the interval
``mourre`` table.  Each call is a ``python -m tubespectra.cli``
subprocess with ``PYTHONPATH=SRC_DIR`` in a fresh directory; a call whose
problem file an earlier seed already ran is not repeated.  Prints one line
per call: its exit code and the SHA-256 of its stdout and of each output
file, ``report.txt`` without its ``generated:`` line.

Comparing two source trees, say a change and a checkout of its parent,
is then a diff:

    python3 tools/output_digest.py src > new.txt
    python3 tools/output_digest.py ../parent/src > old.txt
    diff old.txt new.txt

The full run takes about 25 s per tree on a 2-CPU machine.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (0, 7)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest_call(src_dir, call):
    """``exit=… stdout=… <file>=…`` for one pipeline call."""
    env = dict(os.environ, PYTHONPATH=str(Path(src_dir).resolve()))
    with tempfile.TemporaryDirectory() as work:
        Path(work, "problem.ini").write_text(call.ini)
        proc = subprocess.run(
            [sys.executable, "-m", "tubespectra.cli", call.kind,
             "--config", "problem.ini", "--out", "out"],
            cwd=work, env=env, capture_output=True,
        )
        fields = [f"exit={proc.returncode}", f"stdout={_sha(proc.stdout)}"]
        out = Path(work, "out")
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.name == "report.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"generated:"))
            fields.append(f"{path.name}={_sha(data)}")
    return " ".join(fields)


def main(argv):
    if len(argv) != 2:
        print("usage: output_digest.py SRC_DIR", file=sys.stderr)
        return 2
    seen = set()
    for seed in SEEDS:
        for name in workloads.NAMES:
            for call in workloads.build(name, seed).calls:
                if (call.kind, call.ini) in seen:
                    continue
                seen.add((call.kind, call.ini))
                print(f"seed={seed} {call.label} {call.kind} {digest_call(argv[1], call)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
