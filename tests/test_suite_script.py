import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_census_suite.py"


def run_suite(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def test_out_dir_under_a_regular_file_exits_two(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = run_suite("--out-dir", str(blocker / "reports"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: cannot create")


def test_unwritable_report_exits_two_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "census_q2.json").mkdir()  # the first report's path is taken
    res = run_suite("--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: cannot write")
    assert [p.name for p in tmp_path.iterdir()] == ["census_q2.json"]
