"""kypcert benchmark: one workload, its end-to-end or its per-layer metrics.

    python3 bench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; kypcert is imported from its ``src``. The
run generates the workload's inputs from the seed (in a child process, not
timed), loads them through ``Realization.load``, and repeats rounds until
``--seconds`` have passed and at least MIN_ROUNDS rounds are done. A round is
PASSES_PER_ROUND whole passes over the fixed job list, one cold CLI call and
one set-up probe (probe.py); no job is cut off. Every output is checked
against the reference code. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` the passes run with every layer wrapped (see
tracing.py) and the per-layer metrics are printed instead; the spans go to
``bench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import checks
import tracing
import workloads
from codec import decode

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("screen", "quantify", "certify", "boundary")
# Whole passes between two cold-call and set-up samples. A pass of screen or
# certify is short, so several make one round; quantify and boundary passes
# take seconds.
PASSES_PER_ROUND = {"screen": 3, "quantify": 1, "certify": 3, "boundary": 1}
MIN_ROUNDS = 3
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT = 150
CALIBRATION_SIZE = 80


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fill(arg, indir):
    return arg.replace("{in}", indir)


# ---------------------------------------------------------------------------
# set-up probe and cold CLI call, each in a fresh interpreter


def setup_sample(indir):
    p = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), indir],
                       cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {p.stderr.strip()[-500:]}")
    return float(p.stdout.strip().splitlines()[-1])


def cold_call(cold, indir, refs):
    """Wall time of one fresh ``python -m kypcert.cli`` process, and its check."""
    cmd = [sys.executable, "-m", "kypcert.cli"] + [_fill(a, indir) for a in cold["args"]]
    start = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - start
    err = None
    if p.returncode != cold["expect_exit"]:
        err = f"cold call exit {p.returncode}, expected {cold['expect_exit']}: {p.stderr.strip()[-300:]}"
    elif "expect" in cold and cold["expect"] not in p.stdout:
        err = f"cold call printed {p.stdout.strip()[:200]!r}"
    elif "bracket" in cold:
        try:
            value = float(p.stdout.split("\n")[0])
        except ValueError:
            return elapsed, f"cold call printed {p.stdout.strip()[:200]!r}"
        err = checks.bracket(value, "flag:" in p.stdout, cold["bracket"])
    elif "certificate" in cold:
        with open(_fill(cold["certificate"], indir)) as fh:
            data = json.load(fh)
        job = cold["job"]
        cert = SimpleNamespace(H=decode(data["H"]), T=decode(data["T"]))
        err = checks.check_certificate(refs[job["file"]], cert, job["beta"])
    return elapsed, err


# ---------------------------------------------------------------------------
# measuring


def _run_job(job):
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a raising job is a wrong answer, counted below
        out = exc
    return time.perf_counter() - start, out


class Tally:
    """attempted / failed counts, and the first failure reason of each job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = {}

    def add(self, name, err, known_fault=False):
        self.attempted += 1
        if err is None:
            return
        self.failed += 1
        if not known_fault:
            self.correct = False
        self.reasons.setdefault(name, err)


def one_pass(jobs, refs, tally, times, tracer=None, pass_index=0):
    for job in jobs:
        if tracer is not None:
            tracer.context = (pass_index, job.id)
        dt, out = _run_job(job)
        if tracer is not None:
            tracer.context = (None, None)
        times[job.id].append(dt)
        tally.add(job.id, checks.check(job, out, refs), job.known_fault)


def job_metrics(jobs, times):
    """jobs_per_s, small_job_ms and large_job_ms from per-job medians."""
    med = {j.id: statistics.median(times[j.id]) for j in jobs}
    classes = sorted({j.size for j in jobs})

    def class_ms(size):
        return 1e3 * statistics.median(med[j.id] for j in jobs if j.size == size)

    return {
        "jobs_per_s": (len(jobs) / sum(med.values()), "1/s"),
        "small_job_ms": (class_ms(classes[0]), "ms"),
        "large_job_ms": (class_ms(classes[-1]), "ms"),
    }, med


def calibration_kernel():
    """Seconds for eigenvalues of a fixed dense matrix: the machine's speed now.

    Recorded with the results for reference; no metric is scaled by it.
    """
    M = np.random.default_rng(0).standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvals(M)
    return time.perf_counter() - start


def measure(workload, seconds, jobs, refs, manifest, indir, tally):
    times = {j.id: [] for j in jobs}
    colds, setups, calibration = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for _ in range(PASSES_PER_ROUND[workload]):
            calibration.append(calibration_kernel())
            one_pass(jobs, refs, tally, times)
        elapsed, err = cold_call(manifest["cold"], indir, refs)
        colds.append(elapsed)
        tally.add("cold-call", err)
        setups.append(setup_sample(indir))
        rounds += 1
    metrics, med = job_metrics(jobs, times)
    metrics["cold_call_s"] = (statistics.median(colds), "s")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    detail = {"rounds": rounds, "passes": rounds * PASSES_PER_ROUND[workload],
              "cold_call_samples": colds, "setup_samples": setups,
              "calibration_s": calibration, "job_times_s": times, "job_median_s": med}
    return metrics, detail


def import_times():
    """(kypcert.cli import s, scipy.linalg import s) from ``python -X importtime``."""
    cli, scipy_linalg = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kypcert.cli"],
                           cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT, check=True)
        cum = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                us = int(parts[1])
            except ValueError:
                continue  # the header line
            cum.setdefault(parts[2].strip(), us)
        cli.append(1e-6 * (cum.get("kypcert", 0) + cum.get("kypcert.cli", 0)))
        scipy_linalg.append(1e-6 * cum.get("scipy.linalg", 0))
    return statistics.median(cli), statistics.median(scipy_linalg)


def measure_traced(seconds, jobs, refs, tally):
    tracer = tracing.Tracer()
    times = {j.id: [] for j in jobs}
    tracer.install()
    try:
        start = time.perf_counter()
        passes = 0
        while passes < 1 or time.perf_counter() - start < seconds:
            one_pass(jobs, refs, tally, times, tracer, passes)
            passes += 1
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    cli_s, scipy_s = import_times()
    metrics["cli.import_s"] = (cli_s, "s")
    metrics["cli.import_scipy_linalg_s"] = (scipy_s, "s")
    metrics["traced.jobs_per_s"] = job_metrics(jobs, times)[0]["jobs_per_s"]
    return metrics, {"passes": passes}, tracer


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="kypcert benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kypcert", "__init__.py")):
        print(f"error: no kypcert sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    indir = os.path.join(OUT, f"inputs-{tag}-{os.getpid()}")
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), "--workload",
                        args.workload, "--seed", str(args.seed), "--out", indir],
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)
        with open(os.path.join(indir, "manifest.json")) as fh:
            manifest = json.load(fh)
        sys.path.insert(0, SRC)
        import kypcert

        jobs, warm = workloads.build(kypcert, manifest, indir)
        refs = checks.load_references(manifest, indir)
        tally = Tally()
        err = checks.check(warm, _run_job(warm)[1], refs)
        if err:
            tally.correct = False
            tally.reasons["warmup"] = err
        if args.trace:
            metrics, detail, tracer = measure_traced(args.seconds, jobs, refs, tally)
        else:
            metrics, detail = measure(args.workload, args.seconds, jobs, refs, manifest, indir,
                                      tally)
            tracer = None
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    kind = "trace" if args.trace else "result"
    with open(os.path.join(OUT, f"{kind}-{tag}.json"), "w") as fh:
        record = dict(result, detail=detail, failures=tally.reasons)
        if tracer is not None:
            record["trace"] = tracer.dump({j.id: j.size for j in jobs})
        json.dump(record, fh)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for name, reason in tally.reasons.items():
        print(f"failed {name}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
