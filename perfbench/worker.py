"""One fresh benchmark process: a set-up sample or one workload run.

Called by run.py as ``python3 worker.py '<json job>'`` with the checkout's
``src`` on PYTHONPATH; prints one JSON object as its last stdout line.  The
job's "role" is "setup" (time import plus CensusRun construction) or
"workload" (run the workload, untraced or traced, and check every output).
"""

import hashlib
import json
import os
import random
import resource
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# -- inputs -------------------------------------------------------------------

def draw_lines(field, seed, count):
    """Plücker 6-tuples of `count` lines drawn uniformly over PG(3,q).

    A line is the row space of exactly one rank-2 reduced row echelon 2x4
    matrix, so a uniform index into those matrices is a uniform line.
    """
    q = field.q
    rng = random.Random(seed)
    shapes = []
    for c0 in range(3):
        for c1 in range(c0 + 1, 4):
            slots = [(0, j) for j in range(c0 + 1, 4) if j != c1]
            slots += [(1, j) for j in range(c1 + 1, 4)]
            shapes.append((c0, c1, slots, q ** len(slots)))
    total = sum(s[3] for s in shapes)
    lines = []
    for _ in range(count):
        r = rng.randrange(total)
        for c0, c1, slots, n in shapes:
            if r < n:
                break
            r -= n
        rows = [[0] * 4, [0] * 4]
        rows[0][c0] = rows[1][c1] = 1
        for row, j in slots:
            rows[row][j] = r % q
            r //= q
        u, v = rows
        p = [field.sub(field.mul(u[i], v[j]), field.mul(u[j], v[i])) for i, j in PAIRS]
        lead = field.inv(next(x for x in p if x))
        lines.append(tuple(field.mul(lead, x) for x in p))
    return lines


# -- checks ---------------------------------------------------------------------

def census_digest(report):
    """SHA-256 over canonical JSON of a report's classes and planes sections."""
    body = {"classes": report["classes"], "planes": report["planes"]}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads ---------------------------------------------------------------------

def census_call(cli, q, out_path, digests, errors):
    """One CLI census call; returns (seconds, ok)."""
    from twistedcubic import census

    argv = ["census", "--q", str(q), "--out", out_path]
    if q in census.LONG_RUN_Q:
        argv.append("--long-run")
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    except Exception as exc:  # a crash is one failed operation
        errors.append(f"q={q}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    if code != 0:
        errors.append(f"q={q}: exit code {code}")
        return elapsed, False
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("pass") is not True:
        errors.append(f"q={q}: report says pass={report.get('pass')}")
        return elapsed, False
    if census_digest(report) != digests.get(str(q)):
        errors.append(f"q={q}: census digest mismatch")
        return elapsed, False
    return elapsed, True


def run_verify(qs, seconds, out_dir, digests):
    """Rounds of CLI census calls, one per q; a round is one operation.

    Rounds repeat while the next one is expected to end within `seconds`;
    there is always at least one.
    """
    from twistedcubic import cli

    latencies, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t = 0.0
        ok = True
        for q in qs:
            dt, good = census_call(cli, q, os.path.join(out_dir, f"census_{q}.json"),
                                   digests, errors)
            t += dt
            ok &= good
        attempted += 1
        failed += not ok
        latencies.append(t)
        loop_s = time.perf_counter() - start
        if loop_s + t > seconds:
            break
    return {"latencies_s": latencies, "attempted": attempted, "failed": failed,
            "loop_s": loop_s, "errors": errors[:10]}


QUERY_POOL = 2000


def run_queries(q, seed, seconds):
    """Closed loop, one client: classify, stabilize and sweep seeded lines.

    Set-up (CensusRun, group build, drawing the lines) happens before the
    loop.  The loop runs for `seconds`, or until the pool of drawn lines
    runs out.
    """
    from twistedcubic import census, pg3, twisted

    run = census.CensusRun(q)
    eng = run.engine
    eng.group_abcd()
    order = q**3 - q
    allowed = {cls: set(pairs)
               for cls, pairs in census.expected_orbit_pattern(run.field).items()}
    pool = draw_lines(run.field, seed, QUERY_POOL)

    latencies, errors, mix = [], [], Counter()
    failed = 0
    loop_start = time.perf_counter()
    for plucker in pool:
        t0 = time.perf_counter()
        try:
            line = pg3.line_from_plucker(run.field, plucker)
            cls = twisted.classify_line(line, run.model)
            stab = len(eng.stabilizer_abcd(line))
            orbit = eng.orbit_sweep(line)
        except Exception as exc:  # a crash is one failed operation
            latencies.append(time.perf_counter() - t0)
            failed += 1
            errors.append(f"{plucker}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        mix[cls] += 1
        size = len(orbit)
        key = eng.pack_tuple(line.plucker)
        pos = int(orbit.searchsorted(key))
        bad = []
        if size * stab != order:
            bad.append(f"orbit {size} x stabilizer {stab} != {order}")
        if (size, stab) not in allowed.get(cls, ()):
            bad.append(f"(orbit, stabilizer) = ({size}, {stab}) not allowed for {cls}")
        if pos >= size or int(orbit[pos]) != key:
            bad.append("orbit does not contain the line")
        if bad:
            failed += 1
            errors.append(f"{plucker}: " + "; ".join(bad))
        if time.perf_counter() - loop_start >= seconds:
            break
    loop_s = time.perf_counter() - loop_start
    return {"latencies_s": latencies, "attempted": len(latencies), "failed": failed,
            "loop_s": loop_s, "class_mix": dict(sorted(mix.items())),
            "errors": errors[:10]}


# -- process roles ------------------------------------------------------------------

def _import_program(root):
    import twistedcubic.cli  # imports every module of the package

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(twistedcubic.__file__).startswith(src + os.sep):
        raise SystemExit(f"twistedcubic imported from {twistedcubic.__file__}, not {src}")


def setup_role(job):
    start = time.perf_counter()
    _import_program(job["root"])
    from twistedcubic import census

    spec = job["spec"]
    for q in spec["qs"]:
        run = census.CensusRun(q)
        if spec["kind"] == "queries":
            run.engine.group_abcd()
    return {"setup_s": time.perf_counter() - start}


def workload_role(job):
    _import_program(job["root"])
    spec = job["spec"]
    recorder = None
    if job["traced"]:
        from spans import Recorder

        recorder = Recorder(f"{job['workload']}-seed{job['seed']}-pid{os.getpid()}")
        recorder.install()
    start = time.perf_counter()
    if spec["kind"] == "verify":
        with tempfile.TemporaryDirectory(dir=job["out_dir"]) as tmp:
            res = run_verify(spec["qs"], job["seconds"], tmp, load_digests())
    else:
        res = run_queries(spec["qs"][0], job["seed"], job["seconds"])
    wall = time.perf_counter() - start
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()
        res["trace"] = recorder.metrics(wall)
        spans_dir = os.path.join(job["out_dir"], "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{recorder.run_id}.jsonl")
        recorder.write(path)
        res["spans_path"] = path
    return res


def main():
    job = json.loads(sys.argv[1])
    out = setup_role(job) if job["role"] == "setup" else workload_role(job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
