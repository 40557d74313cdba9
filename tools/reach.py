#!/usr/bin/env python3
"""Which package code the digest's pipeline calls reach.

    python3 tools/reach.py [SRC_DIR]

Runs every call of ``tools/output_digest.py`` (``pipeline_calls``) in
this process, through ``tubespectra.cli.main``, with the package
imported from SRC_DIR (default ``src``).  ``sys.settrace`` records the
functions of SRC_DIR/tubespectra each call enters and the lines it runs;
``threading.settrace`` does the same on the thread that factors and
solves half of a split core.  Only the standard library is used.

Prints one line per call with its exit code, then the functions no call
enters (a nested function, lambda or method counts apart from the
function that holds it; comprehensions count with it), then, per
entered function, the lines of its body no call reaches apart from
``raise`` statements.  An executable line is one the compiled body of a
function maps an instruction to; module and class bodies are left out.
The full run takes 9 to 15 s on a 2-CPU VM, by the VM's speed at the
time, about half of it the ``[surface] file`` gate.
"""

import ast
import contextlib
import io
import sys
import tempfile
import threading
from collections import defaultdict
from inspect import CO_OPTIMIZED
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import output_digest  # noqa: E402

_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def function_lines(path):
    """``{(first line, qualified name): executable lines}`` of each function in a module.

    A comprehension's lines go to the function that holds it.
    """
    out = {}

    def walk(code, owner):
        if code.co_flags & CO_OPTIMIZED:
            if code.co_name not in _COMPREHENSIONS or owner is None:
                owner = (code.co_firstlineno, code.co_qualname)
                out[owner] = set()
            out[owner].update(line for _, _, line in code.co_lines() if line is not None)
        else:
            owner = None
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, owner)

    walk(compile(Path(path).read_text(), str(path), "exec"), None)
    return out


def raise_lines(path):
    """Every line a ``raise`` statement of the module spans."""
    return {line for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


class Census:
    """Functions entered and lines run in the modules of one directory."""

    def __init__(self, package_dir):
        self.files = {str(p) for p in Path(package_dir).glob("*.py")}
        self.entered = set()          # (file, first line, qualified name)
        self.reached = set()          # (file, line)

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))
        self.reached.add((code.co_filename, code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def tracing(self):
        """Trace this thread and every thread started inside; then restore the old tracers."""
        before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(before[0])
            threading.settrace(before[1])


def run_calls(census, calls):
    """Run each call through ``tubespectra.cli.main`` under the census; their exit codes."""
    codes = []
    with census.tracing():
        from tubespectra import cli

        for _, call in calls:
            with tempfile.TemporaryDirectory() as work:
                output_digest.write_inputs(work, call)
                argv = [call.kind, "--config", str(Path(work, "problem.ini")),
                        "--out", str(Path(work, "out"))]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
    return codes


def _ranges(lines):
    """``"3-5, 9"`` for the sorted lines 3, 4, 5, 9."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else "src").resolve()
    sys.path.insert(0, str(src))
    census = Census(src / "tubespectra")
    calls = output_digest.pipeline_calls()
    for (seed, call), code in zip(calls, run_calls(census, calls)):
        print(f"seed={seed} {call.label} {call.kind} exit={code}")

    never, missed = [], defaultdict(list)
    total = unreached = never_lines = 0
    for path in sorted(census.files):
        name, raises = Path(path).name, raise_lines(path)
        for (first, qualname), lines in function_lines(path).items():
            gone = {line for line in lines if (path, line) not in census.reached}
            total += len(lines)
            unreached += len(gone)
            if (path, first, qualname) not in census.entered:
                never.append(f"{name}:{first} {qualname}")
                never_lines += len(lines)
            elif gone - raises:
                missed[name].append(f"{qualname} {_ranges(gone - raises)}")

    print(f"functions never entered: {len(never)}, holding {never_lines} executable lines")
    for entry in never:
        print(f"  {entry}")
    print(f"lines never reached: {unreached} of {total} executable lines in function bodies; "
          "in entered functions, raise statements aside:")
    for name, entries in missed.items():
        for entry in entries:
            print(f"  {name} {entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
