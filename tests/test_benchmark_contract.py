"""The benchmark's reach into the program, checked in the package's suite.

perfbench's own tests run outside this suite, and a traced benchmark run
fails when an entry point its span recorder wraps is missing.  These tests
load perfbench/spans.py and perfbench/worker.py as they are and run them on
the program at q = 5, the census also at the q = 7 and 8 of verify_small,
and the query loop also at q = 49, the field of line_queries_q49.
"""

import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, worker = _load("spans"), _load("worker")


def test_the_span_recorder_finds_every_entry_point():
    recorder = spans.Recorder("t")
    try:
        recorder.install()
    finally:
        recorder.uninstall()


def test_the_workloads_run_and_pass_their_output_checks(tmp_path):
    for q in (5, 49):
        queries = worker.run_queries(q, 1, 0.3)
        assert queries["attempted"] > 0 and queries["failed"] == 0, (q, queries["errors"])
    verify = worker.run_verify([5, 7, 8], 0.05, tmp_path, worker.load_digests())
    assert verify["attempted"] > 0 and verify["failed"] == 0, verify["errors"]
