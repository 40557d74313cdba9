#!/usr/bin/env python3
"""Digest every output of the benchmark's pipeline calls, for byte-identity checks.

    python3 tools/output_digest.py [--values] SRC_DIR > digest.txt
    python3 tools/output_digest.py --compare OLD NEW --rtol R [--atol A]

Runs the calls of the perfbench workloads (problem files from
``perfbench/workloads.py``) at seeds 0 and 7: the bent-strip and rect-tube
``spectrum``, the five screen ``check`` problems and the interval
``mourre`` table.  Twelve more calls, printed under seed 0, cover what no
workload runs: a ``spectrum`` call on the smoke-scale bent strip without
its ``domain_length`` (the domain-length doubling rule), one with its
curvature a power tail (``family = power-tail``, p = 2.5), whose box has
no free end to close, so that its given ``domain_length`` takes the
probes at L/4 and L/2, a ``spectrum``
call on the smoke-scale rect-tube with a unit-disc cross-section (the
only ladder on a cross-section that does not fill its grid's bounding
box), a ``spectrum`` call on the smoke-scale bent strip drawn on a flat
surface (``[surface] curvature = 0.0``, the only ladder on a strip
metric: a strip of Gauss curvature K != 0 fails its gate by design, as
its h - 1 tends to C_K - 1, not to 0), an ``export`` call on each of
the bent-strip and rect-tube problem files (``mesh.txt`` and
``mesh_metric.csv``), and a ``check`` call on
the README's ``ini`` block, which sets every ``[numerics]`` and
``[outputs]`` key but ``truncation_tol`` and ``mourre_windows``, so that
the resolved config its report embeds has nearly every key.  The last five
reach the curvature families and ``[surface]`` forms no other call does: a
``spectrum`` call on the smoke-scale bent strip with its curvature read
from a ``family = table`` file (0.5 exp(-s^2) every 0.25 on [-40, 40]),
a ``spectrum`` call on the smoke-scale rect-tube with ``family =
constant`` and ``value = 0.0`` for its second curvature (a planar
curve), a ``check`` call on the smoke-scale flat strip with its Gauss
curvature read from a ``[surface] file`` (K = 0 at the corners of
[-1e4, 1e4] x [-1, 1]: the integrated strip metric, about 6.5 s of
Jacobi sweeps), and ``check`` calls on that strip with ``[surface]
curvature = 0.1`` and ``-0.1``, which exit 2 by design.  Each call is a
``python -m tubespectra.cli`` subprocess with ``PYTHONPATH=SRC_DIR`` in
a fresh directory, beside the table files its problem file names; a
call whose problem file an earlier seed already ran is not repeated.
Prints one line per call: its exit code and the SHA-256 of its stdout
and of each output file, ``report.txt`` without its ``generated:`` line.

Comparing two source trees, say a change and a checkout of its parent,
is then a diff:

    python3 tools/output_digest.py src > new.txt
    python3 tools/output_digest.py ../parent/src > old.txt
    diff old.txt new.txt

With ``--values`` each call prints, instead of its SHAs, one line per
number of its outputs, prefixed like the digest line: each numeric
``key = value`` line of its ``report.txt`` (a value that is a number or
a comma-separated list of numbers); each numeric field of its other
report lines as its own key, such as ``window[1].measured`` or
``level[2].shift`` from the ``level[j]`` and ``window[j]`` lines and
``<entry>.notes.sup`` from an assumption entry's ``notes: sup=…`` (a
level line's ``core C/N`` gives ``level[j].core`` and ``level[j].slices``); and
each numeric cell of its CSV files, such as ``mourre.csv[1].measured``.
Two trees whose numbers may move by roundoff can then be compared number
by number under a relative tolerance.

The full run takes about 16.5 s per tree on a 2-CPU VM, 4.4 s of it the
``[surface] file`` check (23 s and 7.4 s, measured back to back, when
the metric and the coefficient check each swept every block of
abscissae; 24 s and 10.5 s before that, when the Jacobi sweep took the
Gauss curvature once per RK4 stage).

``--compare OLD NEW --rtol R [--atol A]`` reads two saved ``--values``
outputs and pairs their lines by key, the n-th line of a key with its
n-th line.  It prints each key that only one output lists, or whose count
of numbers changed, and the largest relative
move |new - old| / max(|old|, |new|) of every key whose numbers moved,
then the key of the largest move of all, the largest move and its key
among the numbers whose old and new values both exceed A in size (so
that a roundoff-sized number, such as a ``max_residual``, does not hide
how far the others moved), and the largest move of all.  It exits 1 when
a number moved by more than max(A, R max(|old|, |new|)) (A defaults to
0), or when the two outputs do not list the same keys and exit codes
(an ``exit=…`` or ``truncation=…`` line is a key with no number).  A
key that is a difference of nearly equal values, such as a fitted order
or an error bar, amplifies a roundoff move of those values; A lets such
a key move by roundoff in absolute terms:

    python3 tools/output_digest.py --values ../parent/src > old.txt
    python3 tools/output_digest.py --values src > new.txt
    python3 tools/output_digest.py --compare old.txt new.txt --rtol 1e-13 --atol 1e-11
"""

import argparse
import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (0, 7)
DOUBLING_RULE = workloads.Call(
    "bent-strip-doubling", "spectrum",
    "\n".join(line for line in workloads.bent_strip_ini("smoke").splitlines()
              if not line.startswith("domain_length")),
)
POWER_TAIL = workloads.Call(
    "given-length-power-tail", "spectrum",
    workloads.bent_strip_ini("smoke", mourre=False).replace(
        "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.0",
        "family = power-tail\nkappa0 = 0.5\nsigma = 1.0\np = 2.5"),
)
DISC = workloads.Call(
    "disc-tube", "spectrum",
    workloads.rect_tube_ini("smoke").replace("shape = rectangle\nside_x = 1.0\nside_y = 1.0",
                                             "shape = disc\nradius = 1.0"),
)
STRIP = workloads.Call(
    "flat-strip", "spectrum",
    workloads.bent_strip_ini("smoke", mourre=False).replace("kind = euclidean-tube",
                                                            "kind = surface-strip")
    + "\n[surface]\ncurvature = 0.0\n",
)
EXPORTS = [workloads.Call("bent-strip", "export", workloads.bent_strip_ini()),
           workloads.Call("rect-tube", "export", workloads.rect_tube_ini())]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_CHECK = workloads.Call("readme", "check",
                              re.search(r"```ini\n(.*?)```", README, flags=re.S).group(1))


@dataclass
class TableCall(workloads.Call):
    """A call whose problem file names table files: ``{file name: text}``."""

    files: dict = field(default_factory=dict)


def _rows(*columns):
    return "".join(" ".join(map(repr, row)) + "\n" for row in zip(*columns))


_TABLE_S = [0.25 * i - 40.0 for i in range(321)]
TABLE = TableCall(
    "table-strip", "spectrum",
    workloads.bent_strip_ini("smoke", mourre=False).replace(
        "family = gaussian-bump\nkappa0 = 0.5\nsigma = 1.0", "family = table\nfile = kappa.txt"),
    {"kappa.txt": _rows(_TABLE_S, [0.5 * math.exp(-s * s) for s in _TABLE_S])},
)
CONSTANT = workloads.Call(
    "planar-rect-tube", "spectrum",
    workloads.rect_tube_ini("smoke").replace("family = gaussian-bump\nkappa0 = 0.3\nsigma = 1.0",
                                             "family = constant\nvalue = 0.0"),
)
SURFACE_FILE = TableCall(
    "surface-file-strip", "check",
    STRIP.ini.replace("curvature = 0.0", "file = K.txt"),
    {"K.txt": _rows(*zip(*((s, u, 0.0) for s in (-1e4, 1e4) for u in (-1.0, 1.0))))},
)
CURVED = [workloads.Call(f"curved-strip-{label}", "check",
                         STRIP.ini.replace("curvature = 0.0", f"curvature = {K!r}"))
          for label, K in (("positive", 0.1), ("negative", -0.1))]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def write_inputs(work, call):
    """The call's ``problem.ini`` and the table files it names, in directory ``work``."""
    Path(work, "problem.ini").write_text(call.ini)
    for name, text in getattr(call, "files", {}).items():
        Path(work, name).write_text(text)


def run_call(src_dir, call):
    """Exit code, stdout and ``{name: bytes}`` of the output files of one call.

    ``report.txt`` is returned without its ``generated:`` line.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(src_dir).resolve()))
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work, call)
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


# a ``name a/b`` field of a report line, and the name its b is emitted under
_RATIOS = {"core": "slices"}


def report_values(text):
    """Every number of a report, one ``key = value`` line each.

    A numeric ``key = value`` line is kept whole.  A ``key = …`` line with
    comma-separated ``name number`` fields (``level[j]``, ``window[j]``)
    gives ``key.name = number`` per numeric field (``core C/N`` gives
    ``key.core = C`` and ``key.slices = N``), and any other line its
    numeric ``name=number`` tokens as ``entry.name = number``, ``entry``
    being the last bracketed header and ``name`` led by the line's label
    (``notes``, ``fit``) when it has one.  The ``truncation`` line's
    leading word, the path its run took, gives ``truncation=word`` before
    its numeric fields: a line with no number, which ``--compare`` matches
    by key.
    """
    out, entry = [], ""
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and _is_numeric(value):
            out.append(line)
            continue
        if sep and key == "truncation":  # its leading word names the path the run took
            out.append(f"{key}={value.split(', ', 1)[0]}")
        if sep:
            for field in value.split(", "):
                name, _, number = field.partition(" ")
                pairs = [(name, number)]
                if name in _RATIOS:
                    number, _, total = number.partition("/")
                    pairs = [(name, number), (_RATIOS[name], total)]
                out.extend(f"{key}.{n} = {x}" for n, x in pairs if x and _is_numeric(x))
            continue
        if line.startswith("["):
            entry = line.split(" ", 1)[0][1:-1]
        label, colon, rest = line.strip().partition(": ")
        prefix = f"{entry}.{label}" if colon and " " not in label else entry
        for token in (rest if colon else line).split():
            name, eq, number = token.partition("=")
            number = number.rstrip(";,)")
            if eq and number and _is_numeric(number):
                out.append(f"{prefix}.{name} = {number}")
    return out


def csv_values(name, data):
    """``name[i].column = value`` for every numeric cell of a CSV output."""
    rows = csv.DictReader(io.StringIO(data.decode()))
    return [f"{name}[{i}].{col} = {val}" for i, row in enumerate(rows, start=1)
            for col, val in row.items() if val and _is_numeric(val)]


def value_lines(src_dir, call):
    """``exit=…``, then every number of the call's report and CSV outputs."""
    code, _, files = run_call(src_dir, call)
    lines = [f"exit={code}"]
    lines.extend(report_values(files.get("report.txt", b"").decode()))
    for name, data in files.items():
        if name.endswith(".csv"):
            lines.extend(csv_values(name, data))
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


def _within(old, new, rtol, atol):
    """|new - old| <= max(atol, rtol max(|old|, |new|)), NaN matching NaN."""
    move = _relative_move(old, new)
    return move <= rtol or (math.isfinite(move) and abs(new - old) <= atol)


def _keyed(rows):
    """``{(key, occurrence): numbers}`` of parsed ``--values`` rows, in their order."""
    seen, out = {}, {}
    for key, numbers in rows:
        seen[key] = seen.get(key, -1) + 1
        out[key, seen[key]] = numbers
    return out


def compare(old_path, new_path, rtol, atol=0.0):
    """Print the moves between two ``--values`` outputs; 1 when one exceeds its tolerance.

    Lines are paired by key, the n-th line of a key with its n-th line.  A
    number passes when it moved by at most max(atol, rtol max(|old|,
    |new|)).  Besides each key's largest move, prints the key of the
    largest move of all, and the largest move and its key among the
    numbers whose old and new values both exceed atol in size, which a
    roundoff-sized number cannot set.  A key that only one output has, or
    whose count of numbers changed, is printed and fails the comparison;
    the other keys are still compared.
    """
    old, new = _keyed(_parse_values(old_path)), _keyed(_parse_values(new_path))
    worst, above, failed = (0.0, None), (0.0, None), False
    for path, keys, other in ((old_path, old, new), (new_path, new, old)):
        for key, _ in (k for k in keys if k not in other):
            print(f"only in {path}: {key}")
            failed = True
    for (key, n), before in old.items():
        after = new.get((key, n))
        if after is None:
            continue
        if len(before) != len(after):
            print(f"line {key!r} has {len(before)} numbers, then {len(after)}")
            failed = True
            continue
        moves = list(map(_relative_move, before, after))
        move = max(moves, default=0.0)
        if move:
            print(f"{move:.3g} {key}")
        large = max((m for m, a, b in zip(moves, before, after) if min(abs(a), abs(b)) > atol),
                    default=0.0)
        if move > worst[0]:
            worst = (move, key)
        if large > above[0]:
            above = (large, key)
        failed |= not all(_within(a, b, rtol, atol) for a, b in zip(before, after))
    if worst[1] is not None:
        print(f"largest relative move {worst[0]:.3g} at {worst[1]}")
    if above[1] is not None:
        print(f"largest relative move of values above atol {atol:g}: {above[0]:.3g} at {above[1]}")
    floor = f", atol {atol:g}" if atol else ""
    print(f"{len(old)} lines, largest relative move {worst[0]:.3g} (rtol {rtol:g}{floor})")
    return int(failed)


def pipeline_calls():
    """``(seed, call)`` for each distinct call the digest runs, in its order."""
    calls = [(seed, call) for seed in SEEDS for name in workloads.NAMES
             for call in workloads.build(name, seed).calls]
    extra = [DOUBLING_RULE, POWER_TAIL, DISC, STRIP, *EXPORTS, README_CHECK,
             TABLE, CONSTANT, SURFACE_FILE, *CURVED]
    seen, out = set(), []
    for seed, call in calls + [(SEEDS[0], c) for c in extra]:
        if (call.kind, call.ini) not in seen:
            seen.add((call.kind, call.ini))
            out.append((seed, call))
    return out


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
    parser.add_argument("--atol", type=float, default=0.0,
                        help="absolute move --compare accepts whatever the relative one "
                             "(default 0)")
    args = parser.parse_args(argv[1:])
    if args.compare:
        return compare(*args.compare, args.rtol, args.atol)
    if args.src_dir is None:
        parser.error("need SRC_DIR or --compare OLD NEW")
    for seed, call in pipeline_calls():
        prefix = f"seed={seed} {call.label} {call.kind}"
        if args.values:
            for line in value_lines(args.src_dir, call):
                print(f"{prefix} {line}", flush=True)
        else:
            print(f"{prefix} {digest_call(args.src_dir, call)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
