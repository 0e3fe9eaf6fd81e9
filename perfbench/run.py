#!/usr/bin/env python3
"""The lambdakit benchmark: one script for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is sweep, polynomial, stream, ingest, or all.  Run from anywhere
inside a checkout of the repository; the program under test is the
checkout's ``src/lambdakit``, built in place from source first.

Every workload is a closed loop with one client: run.py starts one
job, waits for it to finish and checks its output, then starts the
next.  A job is a fresh process, so module caches start empty each
time: ``python -m lambdakit ...`` as a user runs it, or for ``ingest``
a library loop (``ingest.py``) fed seeded records on stdin.  The seed
draws the job order and the ingest records.  The job list is repeated
while another pass still fits in ``--seconds``; a job's times are
medians over passes.  End-to-end times are scaled to a reference
machine speed by ``calibrate.py``, timed after every job (see
CALIBRATION below).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each pass runs every job untraced and traced
(``tracing.py``), and the last line reports the per-layer metrics and
the tracing overhead.  Earlier lines print each metric with its unit
and the environment stamp; ``--out`` also appends the result with that
stamp to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PY = sys.executable
perf = time.perf_counter

JOB_TIMEOUT_S = 150
SETUP_LAUNCHES = 9
INGEST_RECORDS = 12000
INGEST_JOBS = 4  # per pass, each on the same records: one pass spans seconds, not one spell
KEEP_STDOUT_BYTES = 1 << 20
TRACE_MARK = "@@perfbench-trace "

# End-to-end times are reported at a reference machine speed: a run's
# times are scaled by CALIBRATION_REFERENCE_S over the median time of
# calibrate.py, timed after every job of the run.  Fresh processes on a
# shared host run up to twice as slow in spells of seconds to minutes;
# the scaling cancels that, and calibrate.py shares no code with lambdakit.
# One calibration varies by more than a job does, so only their median
# over the whole run is used.
CALIBRATION = [PY, "-I", str(HERE / "calibrate.py")]
CALIBRATION_REFERENCE_S = 0.1

# Counts with no closed formula, recorded from the profile DP and
# confirmed by an independent forward DP over column-capacity multisets.
GOLDEN = {
    (20, 4): 37911589613425952733393718264069147678877877626169022024515000,
    (14, 5): 96986285294151066094112970262797953280,
    (10, 7): 8302816499443200,
}

# `enumerate` stdout recorded from the seed commit: (records, sha256).
STREAM_GOLDEN = {
    (6, 2): (67950, "bac22faa6a2cd2091aeab71b9270ac0d9e3add770ea0c7e4e920ffba201db035"),
    (5, 3): (2040, "3b1de1f1343eb08096bf6ded85487a81011ebb79fb79b0cfcf1fad084fcb700c"),
    (5, 2): (2040, "b24ac86ec4a15e37cf657b4caff91d3d2accbfb85ca1496f3e3ba5be67277035"),
    (4, 3): (24, "18103c42cb9b57d7d92c2df00a02cb03853c8ebf81c241c931cdaee58d8045df"),
    (4, 2): (90, "072c3726a7d7ad3479040a2d046cce22ab432eda39b8e316e085c4b47ecf161e"),
}

# verify --suite formulas --n-max 30: four-way k = 2 agreement for
# n = 1..30, k = 2 DP for n = 1..30, explicit k = 3 for n = 3..25, and
# the monotonicity check.
VERIFY_FORMULAS_CHECKS = 30 + 30 + 23 + 1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Mismatch(Exception):
    """A job's output disagrees with its independent reference."""


def require(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------- processes

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@dataclass
class Outcome:
    returncode: int
    started: float  # perf_counter() at spawn; the clock is monotonic and system-wide
    seconds: float
    first_s: float
    rss_mb: float
    lines: int
    digest: str
    text: str | None  # all of stdout, unless it is larger than KEEP_STDOUT_BYTES
    last_line: str
    stderr: str
    trace: dict | None = None


def run_process(cmd, stdin_path=None):
    """Run one job to completion through ``launch.py``, which times it
    from spawn to exit and reads its peak memory."""
    report_r, report_w = os.pipe()
    with open(stdin_path or os.devnull, "rb") as stdin:
        proc = subprocess.Popen([PY, "-S", str(HERE / "launch.py"), str(report_w), *cmd],
                                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=ENV, pass_fds=(report_w,), start_new_session=True)
    os.close(report_w)
    errors = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    killer = threading.Timer(JOB_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        head = proc.stdout.readline()
        first_at = perf()
        digest = hashlib.sha256(head)
        lines, size, kept, tail = head.count(b"\n"), len(head), [head], head
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
            tail = (tail + chunk)[-4096:]
            if size <= KEEP_STDOUT_BYTES:
                kept.append(chunk)
        proc.wait()
        report = os.read(report_r, 256).split()
    finally:
        killer.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
        os.close(report_r)
    stderr = errors[0].decode(errors="replace") if errors else ""
    if len(report) != 3:  # the launcher was killed: the job timed out
        start = end = first_at
        maxrss_kb = 0
        stderr += f"\njob killed after {JOB_TIMEOUT_S} s"
    else:
        start, end, maxrss_kb = float(report[0]), float(report[1]), int(report[2])
    tail_lines = tail.decode(errors="replace").rstrip("\n").rsplit("\n", 1)
    return Outcome(
        returncode=proc.returncode,
        started=start,
        seconds=end - start,
        first_s=(first_at if head else end) - start,
        rss_mb=maxrss_kb / 1024,
        lines=lines,
        digest=digest.hexdigest(),
        text=b"".join(kept).decode() if size <= KEEP_STDOUT_BYTES else None,
        last_line=tail_lines[-1],
        stderr=stderr,
    )


def split_trace(outcome):
    """Move the tracer's report line out of the job's stderr."""
    kept = []
    for line in outcome.stderr.splitlines(keepends=True):
        if line.startswith(TRACE_MARK):
            outcome.trace = json.loads(line[len(TRACE_MARK):])
        else:
            kept.append(line)
    outcome.stderr = "".join(kept)


# --------------------------------------------------------------------- jobs

@dataclass
class Job:
    """One operation: a command, and a check that returns the number of
    matrices (or exact values, or records) it answered."""

    name: str
    argv: tuple  # lambdakit CLI arguments; empty for the ingest job
    check: object
    known_failure: str | None = None  # an error the seed commit is known to raise

    def command(self, traced):
        if self.argv:
            head = [PY, str(HERE / "tracing.py"), "cli"] if traced else [PY, "-m", "lambdakit"]
            return head + list(self.argv)
        return [PY, str(HERE / "tracing.py"), "ingest"] if traced else [PY, str(HERE / "ingest.py")]


def cli_job(args, check, known_failure=None):
    return Job(args, tuple(args.split()), check, known_failure)


def check_split(n, k):
    def check(out, refs):
        match = re.fullmatch(r"plus=(\d+) minus=(\d+)\n", out.text)
        require(match, f"unexpected output {out.text!r}")
        plus, minus = map(int, match.groups())
        total = plus + minus
        require(total == refs["dp"][f"{n},{k}"], f"total {total} != profile DP")
        require(n * plus == k * total, "n*plus != k*total")
        return total
    return check


def check_census(n):
    def check(out, refs):
        census, report = map(json.loads, out.text.splitlines())
        classes = [census[f] for f in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")]
        plus, rest = divmod(3 * refs["dp"][f"{n},3"], n)
        require(rest == 0 and census["lambda_plus"] == plus, "census total != plus")
        require(sum(classes) == plus, "census classes do not sum to plus")
        alpha, beta, gamma, _, _, _, eta = classes
        rhs = 3 * (n - 1) * (3 * n - 8) // 2 * refs["dp"][f"{n - 1},3"] + alpha + beta + 2 * gamma - eta
        require(report == {"n": n, "lhs": plus, "rhs": rhs, "holds": True},
                f"census identity report {report}")
        return plus
    return check


def check_count(n, k):
    def check(out, refs):
        if k == 3:
            expected = refs["explicit3"][str(n)]
        elif k == 2:
            expected = refs["good2"][str(n)]
        else:
            expected = GOLDEN[(n, k)]
        require(out.text == f"{expected}\n", f"count({n},{k}) differs from the reference")
        return 1
    return check


def check_table(k, n_max):
    def check(out, refs):
        rows = out.text.splitlines()
        expected = ["n,k,lambda"] + [f"{n},{k},{refs['explicit3'][str(n)]}" for n in range(k, n_max + 1)]
        require(rows == expected, "table differs from the explicit k=3 sum")
        return len(rows) - 1
    return check


def check_verify(out, refs):
    lines = out.text.splitlines()
    checks = VERIFY_FORMULAS_CHECKS
    require(len(lines) == checks + 1 and all(line.startswith("ok   ") for line in lines[:-1]),
            "verify reported a failed or missing check")
    require(lines[-1] == f"{checks}/{checks} checks passed", f"verify summary {lines[-1]!r}")
    return checks


def check_stream(n, k):
    def check(out, refs):
        records, digest = STREAM_GOLDEN[(n, k)]
        require(out.lines == records + 1, f"{out.lines} lines, expected {records + 1}")
        require(json.loads(out.last_line) == {"count": records, "k": k, "n": n},
                f"summary record {out.last_line!r}")
        require(out.digest == digest, "stdout digest differs from the recorded one")
        return records
    return check


WORKLOADS = {
    "sweep": [
        cli_job("count --n 6 --k 3 --method enum --split", check_split(6, 3)),
        cli_job("count --n 6 --k 2 --method enum --split", check_split(6, 2)),
        cli_job("classify --n 6 --theorem4", check_census(6)),
    ],
    "polynomial": [
        cli_job("count --n 40 --k 3 --method dp", check_count(40, 3)),
        cli_job("count --n 20 --k 4 --method dp", check_count(20, 4)),
        cli_job("count --n 14 --k 5 --method dp", check_count(14, 5)),
        cli_job("count --n 10 --k 7 --method dp", check_count(10, 7)),
        cli_job("table --k 3 --n-max 25", check_table(3, 25)),
        cli_job("verify --suite formulas --n-max 30", check_verify),
    ],
    "stream": [
        cli_job(f"enumerate --n {n} --k {k}", check_stream(n, k)) for n, k in STREAM_GOLDEN
    ],
    "ingest": [Job("ingest", (), None)] * INGEST_JOBS,
}

# Run once per pass, outside the timed job list: the DP recursion grows
# one level per row, so at the seed commit this dies with RecursionError.
PROBES = {
    "polynomial": [cli_job("count --n 200 --k 2 --method dp", check_count(200, 2),
                           known_failure="RecursionError")],
}


# ------------------------------------------------------------------ the run

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # unexpected failures and wrong answers
    known: list = field(default_factory=list)   # failures the seed commit is known to have


class Workload:
    def __init__(self, name, seed, trace):
        self.name = name
        self.trace = trace
        self.rng = random.Random(f"order:{seed}")
        self.tally = Tally()
        self.setup = []  # setup launch times, unscaled
        self.calibrations = []
        self.jobs = WORKLOADS[name]
        self.stdin = None
        reference = run_process([PY, str(HERE / "reference.py"), name])
        if reference.returncode:
            raise BenchError(f"reference.py failed:\n{reference.stderr}")
        info = json.loads(reference.text)
        self.refs = info["refs"]
        self.env = environment(info["env"])
        if name == "ingest":
            self.prepare_ingest(seed)

    def prepare_ingest(self, seed):
        BUILD.mkdir(exist_ok=True)
        self.stdin = BUILD / f"ingest-{os.getpid()}.txt"
        self.expected = BUILD / f"ingest-{os.getpid()}.expected"
        made = run_process([PY, str(HERE / "ingest.py"), "make", str(seed), str(INGEST_RECORDS),
                            str(self.stdin), str(self.expected)])
        if made.returncode:
            raise BenchError(f"ingest record generation failed:\n{made.stderr}")

    def cleanup(self):
        if self.stdin is not None:
            self.stdin.unlink(missing_ok=True)
            self.expected.unlink(missing_ok=True)

    # one job -----------------------------------------------------------

    def run_job(self, job, traced):
        """Run and check one job; returns (outcome, matrices answered)."""
        out = run_process(job.command(traced), self.stdin)
        if traced:
            split_trace(out)
        if job.argv:
            return out, self.check_cli(job, out)
        return out, self.check_ingest(out)

    def check_cli(self, job, out):
        tally = self.tally
        tally.attempted += 1
        failure = None
        if out.returncode != 0 or "Traceback" in out.stderr:
            failure = f"exit {out.returncode}: {out.stderr.strip().splitlines()[-1:] or ''}"
        else:
            try:
                return job.check(out, self.refs)
            except (Mismatch, ValueError, KeyError, TypeError) as exc:
                failure = f"wrong output: {exc}"
        tally.failed += 1
        if job.known_failure and out.returncode != 0 and job.known_failure in out.stderr:
            tally.known.append(f"{job.name}: {job.known_failure}")
        else:
            tally.errors.append(f"{job.name}: {failure}")
        return 0

    def check_ingest(self, out):
        tally = self.tally
        tally.attempted += INGEST_RECORDS
        got = (out.text or "").splitlines()
        expected = self.expected.read_text().splitlines()
        wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
        first = re.search(r"^first-verdict (\S+)$", out.stderr, re.M)
        if out.returncode != 0 or "Traceback" in out.stderr or wrong or not first:
            wrong = min(max(wrong, 1), INGEST_RECORDS)
            tally.failed += wrong
            tally.errors.append(f"ingest: exit {out.returncode}, {wrong} wrong verdicts")
            return INGEST_RECORDS - wrong
        # the job reports when its first verdict was ready, on the same
        # monotonic clock as the launcher's spawn time
        out.first_s = float(first.group(1)) - out.started
        return INGEST_RECORDS

    def launch_setup(self):
        """Time a trivial CLI job from spawn to exit: interpreter start,
        the lambdakit import and argument parsing, as every CLI user
        pays them."""
        out = run_process([PY, "-m", "lambdakit", "count", "--n", "1", "--k", "1"])
        if out.returncode or out.text != "1\n":
            self.tally.errors.append(f"setup launch: exit {out.returncode}, output {out.text!r}")
        return out.seconds

    def calibrate(self):
        out = run_process(CALIBRATION)
        if out.returncode:
            raise BenchError(f"calibrate.py failed:\n{out.stderr}")
        self.calibrations.append(out.seconds)

    @property
    def scale(self):
        """The factor that takes this run's times to the reference speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations)

    # one pass ----------------------------------------------------------

    def run_pass(self):
        """Run the job list once in a seeded order (with --trace, each job
        untraced and traced, alternating which goes first), then the probes.
        Untraced, each job comes after a setup launch and before a
        calibration, so both are spread over the run like the jobs."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        result = Pass()
        for index, job in enumerate(order):
            if self.trace:
                modes = [False, True] if index % 2 == 0 else [True, False]
            else:
                modes = [False]
                self.setup.append(self.launch_setup())
            runs = {}
            result.jobs.append(job.name)
            for traced in modes:
                out, answers = self.run_job(job, traced)
                runs[traced] = out
                (result.traced if traced else result.plain).append(out)
                if not traced:
                    result.answered += answers
            if not self.trace:
                self.calibrate()
            else:
                if runs[False].digest != runs[True].digest:
                    self.tally.errors.append(f"{job.name}: traced stdout differs from untraced stdout")
                if runs[True].trace is None:
                    self.tally.errors.append(f"{job.name}: the traced job sent no trace report")
        for probe in PROBES.get(self.name, []):
            self.run_job(probe, traced=False)
        return result


@dataclass
class Pass:
    jobs: list = field(default_factory=list)    # job names, in the order run
    plain: list = field(default_factory=list)   # untraced outcomes
    traced: list = field(default_factory=list)  # traced outcomes (--trace 1)
    answered: int = 0  # matrices, values or records the untraced jobs answered

    @property
    def wall(self):
        return sum(o.seconds for o in self.plain)


def measure(seconds, step):
    """Repeat ``step`` while another repetition still fits in ``seconds``."""
    results = []
    start = perf()
    while True:
        began = perf()
        results.append(step())
        now = perf()
        if now - start + (now - began) > seconds:
            return results


# ----------------------------------------------------------------- metrics

def job_medians(passes, attribute):
    """Each job's median of an Outcome attribute over the passes."""
    values = {}
    for p in passes:
        for job, out in zip(p.jobs, p.plain):
            values.setdefault(job, []).append(getattr(out, attribute))
    return {job: statistics.median(v) for job, v in values.items()}


def unscaled_wall(passes):
    """The job list's time: the sum of each job's median time."""
    seconds = job_medians(passes, "seconds")
    return sum(seconds[job] for job in passes[0].jobs)


def end_to_end(passes, setup, scale):
    """End-to-end metrics at the reference speed, from each job's median
    over the passes."""
    jobs = [o for p in passes for o in p.plain]
    wall = scale * unscaled_wall(passes)
    return {
        "wall_s": (wall, "s"),
        "matrices_per_s": (statistics.median(p.answered for p in passes) / wall, "1/s"),
        "first_record_s": (scale * statistics.fmean(job_medians(passes, "first_s").values()), "s"),
        "setup_s": (scale * statistics.median(setup), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in jobs), "MB"),
    }


# Per-layer metric -> (part of the tracer's report, key, unit).  Busy
# time is a kind's spans; self time subtracts the spans nested in them.
LAYER_METRICS = {
    "kernel.calls": ("counts", "kernel.calls", "count"),
    "kernel.distinct_calls": ("distinct", "kernel", "count"),
    "kernel.busy_s": ("busy", "kernel", "s"),
    "kernel.matrices": ("counts", "kernel.matrices", "count"),
    "enumerator.items": ("counts", "enumerator.items", "count"),
    "enumerator.next_s": ("busy", "enumerator.iter", "s"),
    "enumerator.insertion_stats_s": ("busy", "enumerator.insertion_stats", "s"),
    "matrix.serialize_calls": ("counts", "matrix.serialize_calls", "count"),
    "matrix.serialize_s": ("busy", "matrix.serialize", "s"),
    "matrix.parse_calls": ("counts", "matrix.parse_calls", "count"),
    "matrix.parse_s": ("busy", "matrix.parse", "s"),
    "matrix.is_lambda_s": ("busy", "matrix.is_lambda", "s"),
    "matrix.rejected": ("counts", "matrix.rejected", "count"),
    "profile_dp.calls": ("counts", "profile_dp.calls", "count"),
    "profile_dp.distinct_calls": ("distinct", "profile_dp", "count"),
    "profile_dp.busy_s": ("busy", "profile_dp", "s"),
    "formulas.partition_sum_s": ("busy", "formulas.partition_sum", "s"),
    "formulas.explicit_s": ("busy", "formulas.explicit", "s"),
    "formulas.recursions_s": ("busy", "formulas.recursions", "s"),
    "classifier.self_s": ("self", "classifier", "s"),
    "verify.checks": ("counts", "verify.checks", "count"),
    "verify.failed_checks": ("counts", "verify.failed_checks", "count"),
    "verify.self_s": ("self", "verify", "s"),
    "cli.import_s": ("busy", "import", "s"),
    "cli.self_s": ("self", "cli", "s"),
    "cli.write_calls": ("counts", "cli.write_calls", "count"),
    "cli.flush_calls": ("counts", "cli.flush_calls", "count"),
    "cli.bytes_out": ("counts", "cli.bytes_out", "B"),
    "cli.write_s": ("busy", "cli.write", "s"),
}


def layer_metrics(outcomes):
    """Per-layer values of one traced pass, summed over its jobs."""
    values = {name: 0 if unit in ("count", "B") else 0.0
              for name, (_, _, unit) in LAYER_METRICS.items()}
    for out in outcomes:
        for name, (part, key, _) in LAYER_METRICS.items():
            values[name] += (out.trace or {}).get(part, {}).get(key, 0)
    for layer in ("kernel", "profile_dp"):
        calls = values[f"{layer}.calls"]
        # with no calls, no work was wasted
        values[f"{layer}.useful_ratio"] = values[f"{layer}.distinct_calls"] / calls if calls else 1.0
    busy = values["kernel.busy_s"]
    values["kernel.matrices_per_s"] = values["kernel.matrices"] / busy if busy else 0.0
    return values


UNITS = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
UNITS.update({"kernel.useful_ratio": "ratio", "profile_dp.useful_ratio": "ratio",
              "kernel.matrices_per_s": "1/s"})


def per_layer(passes, tally):
    """Per-layer metrics of the traced passes.  Counts must repeat exactly
    from pass to pass; times are medians over passes."""
    per_pass = [layer_metrics(p.traced) for p in passes]
    metrics = {}
    for name, unit in UNITS.items():
        values = [m[name] for m in per_pass]
        if unit in ("count", "B"):
            if len(set(values)) > 1:
                tally.errors.append(f"{name} differs between passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced = statistics.median(sum(o.seconds for o in p.traced) for p in passes)
    metrics["trace_overhead"] = (traced - statistics.median(p.wall for p in passes), "s")
    return metrics


# -------------------------------------------------------------- environment

def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".h"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(imported):
    if not Path(imported.pop("lambdakit_file")).resolve().is_relative_to(SRC):
        raise BenchError("lambdakit was imported from outside this checkout's src/")
    return {**imported, "cpu": cpu_model(), "nproc": os.cpu_count(),
            "commit": commit(), "source_sha256": source_digest()}


def build():
    """Build the package in place from source, once per checkout: the
    compiled kernel when setup.py can build it, else nothing."""
    stamp = BUILD / "built"
    if stamp.exists():
        return
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run([PY, "setup.py", "build_ext", "--inplace", "--build-temp", str(BUILD / "temp")],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=840)
    if proc.returncode:
        raise BenchError(f"setup.py build_ext failed:\n{proc.stdout}{proc.stderr}")
    stamp.write_text(proc.stdout)


# --------------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace):
    workload = Workload(name, seed, trace)
    try:
        workload.launch_setup()  # the first launch writes the bytecode caches
        passes = measure(seconds, workload.run_pass)
        if not trace:
            while len(workload.setup) < SETUP_LAUNCHES:
                workload.setup.append(workload.launch_setup())
                workload.calibrate()
    finally:
        workload.cleanup()
    tally = workload.tally
    metrics = per_layer(passes, tally) if trace else end_to_end(passes, workload.setup, workload.scale)
    notes = [f"{len(passes)} passes, {tally.attempted} operations, {tally.failed} failed"]
    if not trace:
        metrics["success_rate"] = (1 - tally.failed / tally.attempted, "ratio")
        notes.append(f"unscaled wall_s {unscaled_wall(passes):.6g} s, "
                     f"calibrate.py {statistics.median(workload.calibrations):.6g} s "
                     f"(reference {CALIBRATION_REFERENCE_S} s)")
    return workload.env, tally, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark lambdakit end to end and layer by layer.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and its environment stamp to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "lambdakit" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"error: no lambdakit source tree at {ROOT}", file=sys.stderr)
        return 2
    try:
        build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, (env, tally, values, notes) in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for note in notes:
            print(f"# {name}: {note}")
        for message in tally.known:
            print(f"# known failure: {message}")
        for message in tally.errors:
            print(f"# ERROR: {message}")
        for metric, (value, unit) in values.items():
            print(f"{prefix}{metric} = {value:.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        print(f"# env {json.dumps(env, sort_keys=True)}")
        correct &= not tally.errors
        attempted += tally.attempted
        failed += tally.failed
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                                      "trace": args.trace, "env": env, "correct": not tally.errors,
                                      "metrics": {m: v for m, (v, _) in values.items()}}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
