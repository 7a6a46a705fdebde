import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from twistedcubic import bulk, cli, pg3, twisted
from twistedcubic.gfq import make_field


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "twistedcubic", *args],
        capture_output=True, text=True, env=env)


def test_classify_json_stdout():
    res = run_cli("classify", "--q", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["lines"]["EnG"] == 480
    assert doc["planes"]["gamma"] == 6


def test_classify_csv_out(tmp_path):
    out = tmp_path / "counts.csv"
    res = run_cli("classify", "--q", "5", "--format", "csv", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "q,kind,class,count"
    assert "5,line,EnG,480" in lines
    assert "5,plane,gamma,6" in lines


def test_orbits_with_class_filter():
    res = run_cli("orbits", "--q", "8", "--class", "UG")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    (entry,) = doc["classes"]
    assert sorted(o["size"] for o in entry["orbits"]) == [9, 63]


def test_stabilizer_by_line():
    res = run_cli("stabilizer", "--q", "5", "--line", "0,0,1,0,0,0", "--elements")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    (entry,) = doc["stabilizers"]
    assert entry["class"] == "RC"
    assert entry["stabilizer_order"] == 8
    assert [1, 0, 0, 1] in entry["elements"]


# SHA-256 of the JSON of `stabilizer --q Q --elements`: every orbit
# representative's stabilizer, element by element
STABILIZER_ELEMENTS_SHA256 = {
    5: "921e67218505e1af3600b6c58f6ad45b5f465db117790545ba8a73922e927f16",
    8: "4849a4a8963a2cd98a6dc25fdc5948e62164d07b55e0fc143ee47d3147ad9abe",
    9: "41180b833ac34a03da3f573b4143c886ef92136c72b63b3d865f1795824a8769",
}


@pytest.mark.parametrize("q", sorted(STABILIZER_ELEMENTS_SHA256))
def test_stabilizer_elements_are_byte_stable(capsys, q):
    assert cli.main(["stabilizer", "--q", str(q), "--elements"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STABILIZER_ELEMENTS_SHA256[q]


def test_stabilizer_line_with_class_is_a_usage_error():
    """The class of an explicit line is computed, so --class cannot name it."""
    res = run_cli("stabilizer", "--q", "5", "--line", "0,0,1,0,0,0", "--class", "T")
    assert res.returncode == 2
    assert res.stdout == ""
    (error,) = [line for line in res.stderr.splitlines() if "error:" in line]
    assert "--class" in error and "--line" in error


def test_verify_pass_lines_and_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--q", "5", "--out", str(out))
    assert res.returncode == 0
    assert "PASS class_size:RC" in res.stdout
    assert "all checks passed" in res.stdout
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["meta"]["q"] == 5


def test_census_document_and_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("census", "--q", "5", "--out", str(a)).returncode == 0
    assert run_cli("census", "--q", "5", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_csv():
    res = run_cli("census", "--q", "5", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "q,class,orbit_length,multiplicity,stabilizer_order"


def test_unsupported_q_exit_code():
    res = run_cli("verify", "--q", "6")
    assert res.returncode == 2
    assert "not supported" in res.stderr


def test_long_run_gate():
    res = run_cli("verify", "--q", "64")
    assert res.returncode == 2
    assert "--long-run" in res.stderr


def test_bad_modulus_exit_code():
    res = run_cli("classify", "--q", "4", "--modulus", "0,1,1")
    assert res.returncode == 2


def test_unpopulated_class_exit_code():
    for verb in ("stabilizer", "orbits"):
        res = run_cli(verb, "--q", "5", "--class", "EA")
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "error: class 'EA' is not populated at q=5; one of "
            + str(twisted.valid_line_classes(make_field(5)))]
        assert res.stdout == ""


def test_long_run_gate_covers_every_order_above_32():
    res = run_cli("verify", "--q", "61")
    assert res.returncode == 2
    assert "--long-run" in res.stderr


def test_threads_flag_is_rejected():
    res = run_cli("census", "--q", "5", "--threads", "4")
    assert res.returncode == 2
    assert "--threads" in res.stderr


def test_threads_env_changes_no_output_byte():
    env = {k: v for k, v in os.environ.items() if k != "TWISTEDCUBIC_THREADS"}
    plain = run_cli("census", "--q", "5", env=env)
    threaded = run_cli("census", "--q", "5", env={**env, "TWISTEDCUBIC_THREADS": "9"})
    assert plain.returncode == threaded.returncode == 0
    assert plain.stdout == threaded.stdout
    assert "threads" not in plain.stdout


def exit_code(argv):
    """In-process exit code: main's return value or argparse's SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_sampling_flags_are_rejected():
    """polarity_commutation covers the whole group, so the options that
    seeded and sized its sample are gone."""
    for flag, value in (("--samples", "3"), ("--seed", "1")):
        res = run_cli("verify", "--q", "5", flag, value)
        assert res.returncode == 2
        assert flag in res.stderr


def _not_a_positive_int(text):
    try:
        return int(text) < 1
    except ValueError:
        return True


@pytest.mark.parametrize("verb", ("verify", "census"))
@pytest.mark.parametrize("samples", ("0", "-3"))
def test_samples_below_one_is_a_usage_error(verb, samples):
    """The removed --samples option stays a usage error on both verbs."""
    res = run_cli(verb, "--q", "5", f"--samples={samples}")
    assert res.returncode == 2
    assert "--samples" in res.stderr


@hypothesis.given(st.one_of(st.integers(max_value=0).map(str),
                            st.text(max_size=8).filter(_not_a_positive_int)))
def test_malformed_samples_exit_two(samples):
    assert exit_code(["verify", "--q", "5", f"--samples={samples}"]) == 2


def _long_options(parser):
    """The long options of a parser and of its subparsers, --help aside."""
    opts = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _long_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            opts |= {o for o in action.option_strings if o.startswith("--")}
    return opts


def test_readme_names_exactly_the_cli_options():
    """Every --flag the README names (the pip line aside) is an option of
    the CLI or of the suite script, and every CLI option is named there."""
    root = pathlib.Path(__file__).resolve().parents[1]
    text = "\n".join(line for line in (root / "README.md").read_text().splitlines()
                     if "pip install" not in line)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    suite_help = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_census_suite.py"), "--help"],
        capture_output=True, text=True, check=True).stdout
    cli_options = _long_options(cli.build_parser())
    suite_options = set(re.findall(r"--[a-z][a-z0-9-]*", suite_help)) - {"--help"}
    assert named - cli_options - suite_options == set()
    assert cli_options - named == set()


_token = st.integers(min_value=-3, max_value=12).map(str)


@hypothesis.given(st.one_of(
    st.lists(_token, max_size=9).filter(lambda t: len(t) != 6),       # wrong arity
    st.lists(st.one_of(_token, st.sampled_from(["", "x", "1.5", "0x1"])),
             min_size=6, max_size=6).filter(lambda t: not all(
                 c.lstrip("-").isdigit() for c in t)),                 # not integers
    st.lists(_token, min_size=6, max_size=6).filter(
        lambda t: any(not 0 <= int(c) < 5 for c in t)),               # out of GF(5)
    st.lists(st.integers(0, 4), min_size=6, max_size=6).filter(
        lambda t: not any(t) or pg3.klein_value(make_field(5), t) != 0
    ).map(lambda t: [str(c) for c in t]),                               # not a line
))
def test_malformed_line_exit_two(tokens):
    text = ",".join(tokens)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert exit_code(["stabilizer", "--q", "5", "--line=" + text]) == 2
    if len(tokens) == 6 and not all(c.lstrip("-").isdigit() for c in tokens):
        assert err.getvalue().endswith(
            f"error: argument --line: expected comma-separated integers, got {text!r}\n")


def test_a_fault_of_the_census_exits_one_with_one_line(monkeypatch, capsys):
    """A sweep that meets a line of another class is a fault of the census,
    not bad input: verify prints one error line, no traceback, and exits 1."""
    image_cells = bulk.Engine._image_cells

    def meeting(eng, *args):
        met, index = image_cells(eng, *args)
        cells = eng.line_cells()
        stray = np.flatnonzero(cells != cells[met[0]])[0]
        return np.append(met, stray), np.append(index, 0)
    monkeypatch.setattr(bulk.Engine, "_image_cells", meeting)
    assert exit_code(["verify", "--q", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: a \w+ sweep met cell \d+ of (class|orbit) \w+\n", err)


def test_classify_has_the_long_run_gate():
    assert exit_code(["classify", "--q", "64"]) == 2


def test_out_into_missing_directory_is_a_usage_error(tmp_path):
    res = run_cli("classify", "--q", "5", "--out", str(tmp_path / "missing" / "r.json"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: cannot write")
    assert "Traceback" not in res.stderr


def test_out_is_replaced_atomically(tmp_path):
    out = tmp_path / "counts.json"
    out.write_text("stale")
    assert exit_code(["classify", "--q", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lines"]["EnG"] == 480
    assert [p.name for p in tmp_path.iterdir()] == ["counts.json"]


def test_out_onto_a_directory_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    assert exit_code(["classify", "--q", "5", "--out", str(target)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_out_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("stale")
    link = tmp_path / "link"
    link.symlink_to(target.name)
    assert exit_code(["classify", "--q", "5", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert json.loads(target.read_text())["lines"]["EnG"] == 480
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target.json"]


def test_out_through_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link"
    link.symlink_to("made.json")
    assert exit_code(["classify", "--q", "5", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads((tmp_path / "made.json").read_text())["lines"]["EnG"] == 480
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "made.json"]


def test_out_writes_a_fifo_directly(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    # the write blocks until a reader opens the FIFO
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert exit_code(["classify", "--q", "5", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert got and json.loads(got[0])["lines"]["EnG"] == 480
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@pytest.mark.parametrize("verb", ["classify", "verify"])
def test_empty_out_is_a_usage_error_and_writes_nothing(tmp_path, verb):
    res = subprocess.run([sys.executable, "-m", "twistedcubic", verb, "--q", "5", "--out", ""],
                         capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: --out needs a path\n"
    assert list(tmp_path.iterdir()) == []


def _monic_irreducible(coeffs, p, e):
    """Independent oracle for degree e <= 3: a monic polynomial of degree 2
    or 3 over GF(p) is irreducible iff it has no root in GF(p)."""
    c = [x % p for x in coeffs]
    if len(c) != e + 1 or c[-1] != 1:
        return False
    return e == 1 or all(
        sum(ci * x**i for i, ci in enumerate(c)) % p for x in range(p))


@hypothesis.given(st.sampled_from([(2, 2, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2)]),
                  st.lists(st.integers(min_value=-4, max_value=12), min_size=1, max_size=5))
def test_arbitrary_modulus_exit_zero_or_two(qpe, coeffs):
    q, p, e = qpe
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = exit_code(["classify", "--q", str(q),
                          "--modulus=" + ",".join(map(str, coeffs))])
    assert code == (0 if _monic_irreducible(coeffs, p, e) else 2)
    assert "Traceback" not in err.getvalue()
