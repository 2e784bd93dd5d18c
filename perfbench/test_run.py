"""Self-tests of perfbench/run.py, run with

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They drive run.py's checks with stand-in programs, so they need no build.
"""

import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A stand-in `experiments`: writes fig8.csv, whose last row differs when the
# file named by TAMPER_FILE exists, and exits with EXIT_CODE.
FAKE_EXPERIMENTS = """#!{python}
import os, sys
out = sys.argv[sys.argv.index("--out") + 1]
os.makedirs(out, exist_ok=True)
rows = ["partial_pct,scheme"] + ["0,S%d" % i for i in range(27)]
if os.path.exists(os.environ["TAMPER_FILE"]):
    rows[-1] = "0,tampered"
open(os.path.join(out, "fig8.csv"), "w").write("\\n".join(rows) + "\\n")
sys.exit(int(os.environ.get("EXIT_CODE", "0")))
"""

# A stand-in tracer reporting one capped unit.
FAKE_TRACER = """#!{python}
import json, os, sys
out = sys.argv[sys.argv.index("--out") + 1]
rows = ["partial_pct,scheme"] + ["0,S%d" % i for i in range(27)]
open(os.path.join(out, "fig8.csv"), "w").write("\\n".join(rows) + "\\n")
print(json.dumps({{"units": 27, "traced_cpu_s": 1.0,
                  "failures": ["Mask4#p0: 1 capped pages (must be 0)"], "metrics": {{}}}}))
"""


def write_exe(path, text):
    path.write_text(text.format(python=sys.executable))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


class ManifestTest(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_unit(self):
        manifest = run.load_manifest()
        names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])
        self.assertEqual(sorted(w["name"] for w in manifest["workloads"]), sorted(run.WORKLOADS))

    def test_end_to_end_prints_every_manifest_metric_with_its_unit(self):
        manifest = run.load_manifest()
        values = run.end_to_end([(2.0, 3.0, 50.0), (2.2, 3.1, 51.0)], [(0.02, 0.0, 0.0)], 18, 4)
        block = run.metric_block(values, manifest["end_to_end"])
        for metric in manifest["end_to_end"]:
            self.assertEqual(block[metric["name"]]["unit"], metric["unit"])
            self.assertGreater(block[metric["name"]]["value"], 0)

    def test_a_missing_metric_is_an_error(self):
        manifest = run.load_manifest()
        with self.assertRaises(run.BenchError):
            run.metric_block({"wall_s": 1.0}, manifest["end_to_end"])

    def test_pages_zero_is_never_passed(self):
        with self.assertRaises(run.BenchError):
            run.command_args("fig5-sweep", 0, 1, 2, Path("out"))


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.tamper = self.dir / "tamper"
        os.environ["TAMPER_FILE"] = str(self.tamper)
        os.environ.pop("EXIT_CODE", None)
        self.bins = {
            "experiments": write_exe(self.dir / "experiments", FAKE_EXPERIMENTS),
            "tracer": write_exe(self.dir / "tracer", FAKE_TRACER),
        }

    def tearDown(self):
        self.tmp.cleanup()

    def series(self, ledger, reference=None):
        series = run.Series("fig8-partial", 4, reference)
        run.measure(self.bins, 1, 1, 0, self.dir / "work", ledger, [series])
        return series

    def test_identical_runs_pass(self):
        ledger = run.Ledger()
        series = self.series(ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (run.MIN_RUNS * 27, 0))
        self.assertEqual(len(series.samples), run.MIN_RUNS)
        self.assertIn("fig8.csv", series.reference)

    def test_a_tampered_csv_fails_its_units(self):
        ledger = run.Ledger()
        reference = self.series(ledger).reference
        self.tamper.touch()
        self.series(ledger, reference)
        failed = run.MIN_RUNS * 27
        self.assertEqual((ledger.attempted, ledger.failed), (2 * failed, failed))
        self.assertIn("fig8.csv differs", ledger.reasons[0])

    def test_a_nonzero_exit_fails_its_units(self):
        os.environ["EXIT_CODE"] = "1"
        ledger = run.Ledger()
        series = self.series(ledger)
        self.assertEqual((ledger.failed, len(series.samples)), (run.MIN_RUNS * 27, 0))

    def test_a_capped_unit_in_the_traced_run_fails(self):
        ledger = run.Ledger()
        reference = self.series(ledger).reference
        report = run.traced_run(self.bins, "fig8-partial", 1, 1, 4, self.dir / "work", ledger,
                                reference)
        self.assertEqual(report["units"], 27)
        self.assertEqual(ledger.failed, 27)
        self.assertIn("capped", ledger.reasons[0])

    def test_run_py_exits_nonzero_without_sources(self):
        bare = self.dir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        (bare / "BENCHMARK.json").write_text(json.dumps(run.load_manifest()))
        script = bare / "perfbench" / "run.py"
        script.write_text(Path(run.__file__).read_text())
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", "fig5-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
