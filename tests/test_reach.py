"""The census of tools/reach.py: functions entered and lines run, on every thread."""

import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import reach  # noqa: E402

MODULE = '''\
def used(x):
    if x < 0:
        raise ValueError("negative")
    return [y for y in range(x)]


def on_a_thread():
    return 1


def never():
    return 2


class Box:
    def method(self):
        return lambda: 3
'''


def test_census_records_entered_functions_and_lines_on_every_thread(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("reach_probe", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    census = reach.Census(tmp_path)
    with census.tracing():
        mod.used(2)
        worker = threading.Thread(target=mod.on_a_thread)
        worker.start()
        worker.join(timeout=10)
        mod.Box().method()
    assert not worker.is_alive()

    functions = reach.function_lines(path)
    assert sorted(functions) == [(1, "used"), (7, "on_a_thread"), (11, "never"),
                                 (16, "Box.method"), (17, "Box.method.<locals>.<lambda>")]
    never = {key for key in functions if (str(path), *key) not in census.entered}
    assert never == {(11, "never"), (17, "Box.method.<locals>.<lambda>")}
    # the comprehension's line counts with the function that holds it
    assert {4} <= functions[(1, "used")]
    gone = {line for line in functions[(1, "used")] if (str(path), line) not in census.reached}
    assert gone == {3} == reach.raise_lines(path)


# every function of src/tubespectra that no pipeline call enters, each kept on
# purpose: CHANGES.md gives each one's reason
KEPT = {
    "assumptions.py AssumptionReport.entry",
    "config.py load_config_text",
    "errors.py IntegrationError.__init__",
    "errors.py EllipticityError.__init__",
    "errors.py SolverError.__init__",
    "errors.py DiagnosticsError.__init__",
    "metric.py TubeMetric.jet",
    "operators.py TruncatedGrid.length",
    "operators.py DiscreteOperator.__init__",
    "operators.py assemble_weighted_form_hamiltonian",
    "operators.py assemble_commutator",
    "reporting.py strip_generated_line",
    "reporting.py extract_embedded_config",
    "spectral.py lower_band",
}


def test_the_pipeline_calls_enter_every_function_not_kept_on_purpose():
    # in a process of its own, so that the split factor's worker thread
    # starts under the census
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py"), str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    never = out.split("functions never entered:")[1].split("lines never reached:")[0]
    entries = [line.split() for line in never.splitlines()[1:]]
    assert {f"{where.split(':')[0]} {name}" for where, name in entries} == KEPT
