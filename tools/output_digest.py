#!/usr/bin/env python3
"""Digest every output of the benchmark's pipeline calls, for byte-identity checks.

    python3 tools/output_digest.py [--values] SRC_DIR > digest.txt

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

With ``--values`` each call prints, instead of its SHAs, one line per
numeric ``key = value`` line of its ``report.txt`` (a value that is a
number or a comma-separated list of numbers), prefixed like the digest
line.  Two trees whose solver settings differ (shift, solves and
residual on the ``level[j]`` lines, which are not numeric values) can
then be compared number by number under a relative tolerance.

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


def run_call(src_dir, call):
    """Exit code, stdout and ``{name: bytes}`` of the output files of one call.

    ``report.txt`` is returned without its ``generated:`` line.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(src_dir).resolve()))
    with tempfile.TemporaryDirectory() as work:
        Path(work, "problem.ini").write_text(call.ini)
        proc = subprocess.run(
            [sys.executable, "-m", "tubespectra.cli", call.kind,
             "--config", "problem.ini", "--out", "out"],
            cwd=work, env=env, capture_output=True,
        )
        files = {}
        out = Path(work, "out")
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.name == "report.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"generated:"))
            files[path.name] = data
    return proc.returncode, proc.stdout, files


def digest_call(src_dir, call):
    """``exit=… stdout=… <file>=…`` for one pipeline call."""
    code, stdout, files = run_call(src_dir, call)
    fields = [f"exit={code}", f"stdout={_sha(stdout)}"]
    fields.extend(f"{name}={_sha(data)}" for name, data in files.items())
    return " ".join(fields)


def _is_numeric(value):
    try:
        for item in value.split(","):
            float(item)
    except ValueError:
        return False
    return True


def value_lines(src_dir, call):
    """``exit=…``, then every numeric ``key = value`` line of the call's report."""
    code, _, files = run_call(src_dir, call)
    lines = [f"exit={code}"]
    for line in files.get("report.txt", b"").decode().splitlines():
        _, sep, value = line.partition(" = ")
        if sep and _is_numeric(value):
            lines.append(line)
    return lines


def main(argv):
    values = "--values" in argv[1:]
    args = [a for a in argv[1:] if a != "--values"]
    if len(args) != 1:
        print("usage: output_digest.py [--values] SRC_DIR", file=sys.stderr)
        return 2
    seen = set()
    for seed in SEEDS:
        for name in workloads.NAMES:
            for call in workloads.build(name, seed).calls:
                if (call.kind, call.ini) in seen:
                    continue
                seen.add((call.kind, call.ini))
                prefix = f"seed={seed} {call.label} {call.kind}"
                if values:
                    for line in value_lines(args[0], call):
                        print(f"{prefix} {line}", flush=True)
                else:
                    print(f"{prefix} {digest_call(args[0], call)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
