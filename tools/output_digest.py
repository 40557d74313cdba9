#!/usr/bin/env python3
"""Digest every output of the benchmark's pipeline calls, for byte-identity checks.

    python3 tools/output_digest.py [--values] SRC_DIR > digest.txt
    python3 tools/output_digest.py --compare OLD NEW --rtol R

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

``--compare OLD NEW --rtol R`` reads two saved ``--values`` outputs and
pairs their lines in order.  It prints the largest relative move
|new - old| / max(|old|, |new|) of every key whose numbers moved, then
the largest move of all, and exits 1 when that exceeds R or when the two
outputs do not list the same keys and exit codes:

    python3 tools/output_digest.py --values ../parent/src > old.txt
    python3 tools/output_digest.py --values src > new.txt
    python3 tools/output_digest.py --compare old.txt new.txt --rtol 1e-13
"""

import argparse
import hashlib
import math
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


def _parse_values(path):
    """``(key, numbers)`` for each line of a saved ``--values`` output."""
    rows = []
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        rows.append((key, [float(v) for v in value.split(",")] if sep else []))
    return rows


def _relative_move(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def compare(old_path, new_path, rtol):
    """Print the moves between two ``--values`` outputs; 1 when one exceeds ``rtol``."""
    old, new = _parse_values(old_path), _parse_values(new_path)
    if len(old) != len(new):
        print(f"{len(old)} lines in {old_path}, {len(new)} in {new_path}")
        return 1
    worst = 0.0
    for (key, before), (new_key, after) in zip(old, new):
        if key != new_key or len(before) != len(after):
            print(f"line {key!r} became {new_key!r} with {len(after)} numbers")
            return 1
        move = max(map(_relative_move, before, after), default=0.0)
        if move:
            print(f"{move:.3g} {key}")
        worst = max(worst, move)
    print(f"{len(old)} lines, largest relative move {worst:.3g} (rtol {rtol:g})")
    return int(worst > rtol)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Digest the benchmark calls' outputs, or compare two --values outputs."
    )
    parser.add_argument("src_dir", nargs="?", help="source tree to run (PYTHONPATH)")
    parser.add_argument("--values", action="store_true",
                        help="print numeric report values instead of SHA-256 digests")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two saved --values outputs")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative move --compare accepts (default 0)")
    args = parser.parse_args(argv[1:])
    if args.compare:
        return compare(*args.compare, args.rtol)
    if args.src_dir is None:
        parser.error("need SRC_DIR or --compare OLD NEW")
    seen = set()
    for seed in SEEDS:
        for name in workloads.NAMES:
            for call in workloads.build(name, seed).calls:
                if (call.kind, call.ini) in seen:
                    continue
                seen.add((call.kind, call.ini))
                prefix = f"seed={seed} {call.label} {call.kind}"
                if args.values:
                    for line in value_lines(args.src_dir, call):
                        print(f"{prefix} {line}", flush=True)
                else:
                    print(f"{prefix} {digest_call(args.src_dir, call)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
