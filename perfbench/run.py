"""iamkit benchmark: one workload per invocation, results checked.

    python3 perfbench/run.py --workload rect-count --seed 1 --trace 0

Run from the root of a checkout; iamkit is imported from its src/ and from
nowhere else.  One caller drives each workload in a closed loop: no pool,
no thread.  The run

1. repeats passes of the workload's fixed check list until --seconds is
   used up (at least one pass), checking every result;
2. before each pass, measures set-up: it launches the workload process in
   set-up mode (interpreter start, ``import iamkit``, inputs built from the
   seed) and times it to ready;
3. climbs the workload's board ladder, each step under the workload's time
   budget, and reports the largest board verified.

The machine this runs on is shared, and its speed changes by up to about
1.8x from one second to the next.  So every timed check and set-up probe
is calibrated: a fixed pure-Python kernel that belongs to the benchmark is
timed next to it, and the time is reported at the speed at which that
kernel takes REFERENCE_S (see HostSpeed).

With --trace 1 it alternates untraced and traced passes instead, reports
the per-layer metrics of the traced passes and writes the spans.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A result file with the environment, the sample counts and the ladder step
times goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
IMPORT_PROBES = 5
# the calibration kernel takes REFERENCE_S at the speed the end-to-end
# times are reported at, and is re-timed once CALIBRATE_EVERY_S has passed
REFERENCE_S = 1e-3
CALIBRATE_EVERY_S = 0.025
KERNEL_STEPS = 2400

sys.path.insert(0, str(HERE))
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "verify_s": "s", "frontier_n": "side", "peak_rss_mb": "MB",
}
TRACED = (
    "oracle.oracle_count", "oracle.naive_enumerate",
    "oracle.enumerate_maximal_iams", "oracle.oracle_count_shape",
    "symmetry.class_histogram", "symmetry.classes_of",
    "formulas.count_iams", "formulas.count_symmetry",
    "skew.count_truncated_rect", "skew.reflection_det", "skew.lgv_count",
    "skew.count_skew_fillings", "skew.kratt_lhs", "skew.kratt_rhs",
    "core.is_maximal_iam",
    "bijection.matrix_to_pp", "bijection.pp_to_matrix",
    "bijection.matrix_to_paths", "bijection.paths_to_matrix",
    "bijection.count_zigzag_decompositions",
    "genfunc.stat_record", "genfunc.gf_lhs", "genfunc.gf_rhs",
    "genfunc.volume_gf", "genfunc.pp_volume_gf",
) + tuple("cli." + sub for sub in workloads.CLI_COMMANDS)


def per_layer_units():
    units = {}
    for name in TRACED:
        units[name + ".busy_s"] = "s"
        units[name + ".calls"] = "count"
    for layer in tracing.LAYERS:
        units[layer + ".busy_s"] = "s"
        units[layer + ".self_s"] = "s"
    units.update({
        "oracle.objects_counted": "count", "oracle.fillings_counted": "count",
        "oracle.objects_per_s": "1/s", "oracle.frontier_board_s": "s",
        "cli.import_s": "s", "cli.p50_ms": "ms", "cli.p90_ms": "ms",
        "trace.overhead_s": "s",
    })
    for sub in workloads.CLI_COMMANDS:
        units["cli.%s.p50_ms" % sub] = "ms"
    return units


PER_LAYER = per_layer_units()


def import_iamkit():
    """Import iamkit from this checkout's src/; fail if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import iamkit
    if Path(iamkit.__file__).resolve().parent != src / "iamkit":
        raise ImportError("iamkit was imported from %s, not from %s"
                          % (iamkit.__file__, src))
    return iamkit


# ---------------------------------------------------------------------------
# calibration


def calibration_kernel():
    """A fixed loop of the work iamkit's searches do in Python: integer bit
    operations, small tuples, a dict and a sliding list.  It never calls
    iamkit, so a change to iamkit cannot change its time."""
    acc = 0
    seen = {}
    window = []
    for i in range(KERNEL_STEPS):
        x = (i * 2654435761) & 0xFFFF
        acc ^= (x & (x >> 3)) | ((acc << 1) & 0xFFFFF)
        key = (x & 0xFF, acc & 0xF)
        seen[key] = seen.get(key, 0) + 1
        window.append(key)
        if len(window) > 16:
            window.pop(0)
    return acc, len(seen)


class HostSpeed:
    """How fast the machine runs this process now, as the time of the
    calibration kernel, re-timed when the last timing is older than
    CALIBRATE_EVERY_S.

    `calibrated(elapsed, before, after)` turns a wall time into the time it
    would have taken at the reference speed, using the kernel times just
    before and just after it.  The kernel's own time is never part of a
    timed interval."""

    def __init__(self):
        self.kernel_s = []      # every timing, for the result file
        self._at = float("-inf")

    def now(self, force=False):
        if force or time.perf_counter() - self._at > CALIBRATE_EVERY_S:
            start = time.perf_counter()
            calibration_kernel()
            self._at = time.perf_counter()
            self.kernel_s.append(self._at - start)
        return self.kernel_s[-1]

    @staticmethod
    def calibrated(elapsed, before, after):
        return elapsed * REFERENCE_S * 2 / (before + after)


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Runs checks, timing each; a check fails when it returns anything but
    True or raises.  Given a HostSpeed, it also keeps each check's
    calibrated time."""

    def __init__(self, tracer, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.latencies = []
        self.calibrated = []
        self.attempted = 0
        self.failures = []
        self.tallies = {}

    def run(self, label, fn):
        self.attempted += 1
        before = self.speed.now() if self.speed else None
        start = time.perf_counter()
        with self.tracer.span("check"):
            try:
                ok = fn() is True
                reason = "routes disagree"
            except Exception:  # a crash is a failed check, not the end
                ok = False
                reason = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if self.speed:
            self.calibrated.append(
                self.speed.calibrated(elapsed, before, self.speed.now()))
        if not ok:
            self.failures.append({"check": label, "reason": reason})

    def tally(self, name, value):
        self.tallies[name] = self.tallies.get(name, 0) + value


# ---------------------------------------------------------------------------
# the time budget of a ladder step


class BudgetExpired(BaseException):
    """Raised by the alarm when a ladder step runs out of time.  Not an
    Exception, so no handler in the code under test can swallow it."""


def within_budget(fn, seconds):
    """(result, elapsed) of fn(), or (BudgetExpired, elapsed) when the
    budget ran out first.  A subprocess.run interrupted this way kills its
    child and waits for it before the exception leaves it."""
    def expire(signum, frame):
        raise BudgetExpired

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExpired:
        result = BudgetExpired
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter() - start


def climb(workload, ik, inputs, budget, checks):
    """Ladder steps in order until one fails or runs out of budget.
    Returns (largest verified n, step records)."""
    frontier = None
    steps = []
    for n in workload.ladder:
        checks.attempted += 1
        try:
            outcome, elapsed = within_budget(
                lambda: workload.ladder_step(ik, inputs, n), budget)
        except Exception:  # a crash is a failed step
            outcome, elapsed = traceback.format_exc(limit=3), None
        if outcome is BudgetExpired:
            steps.append({"n": n, "seconds": elapsed, "outcome": "budget"})
            break
        if outcome is not True:
            steps.append({"n": n, "seconds": elapsed, "outcome": "failed"})
            checks.failures.append({"check": "ladder n=%d" % n,
                                    "reason": str(outcome)})
            break
        steps.append({"n": n, "seconds": elapsed, "outcome": "verified"})
        frontier = n
    return frontier, steps


# ---------------------------------------------------------------------------
# measurements


def digest(inputs):
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def probe_setup(args, inputs, checks):
    """Seconds from launching the workload process in set-up mode to its
    ready line, calibrated by the host speed around the launch.  The inputs
    it built must be ours: same seed, same inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    before = checks.speed.now(force=True)
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    after = checks.speed.now(force=True)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe exited with %d" % proc.returncode)
    checks.attempted += 1
    if line.decode().strip() != digest(inputs):
        checks.failures.append({"check": "set-up probe",
                                "reason": "inputs differ for one seed"})
    return elapsed, checks.speed.calibrated(elapsed, before, after)


def probe_import():
    """Seconds one fresh interpreter spends in ``import iamkit``."""
    code = ("import time; t = time.perf_counter(); import iamkit; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return float(proc.stdout)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def timed_pass(workload, ik, inputs, checks):
    """Wall time of one pass."""
    start = time.perf_counter()
    workload.run_pass(ik, inputs, checks)
    return time.perf_counter() - start


def best_times(latencies, passes):
    """Each check's minimum over the passes, in check order."""
    per_pass = len(latencies) // passes
    return [min(latencies[i::per_pass]) for i in range(per_pass)]


def median_times(latencies, passes):
    """Each check's median over the passes, in check order."""
    per_pass = len(latencies) // passes
    return [statistics.median(latencies[i::per_pass])
            for i in range(per_pass)]


def layer_metrics(spans, tallies):
    busy, calls, layer_busy, layer_self = tracing.summarise(spans)
    out = {}
    for name in TRACED:
        out[name + ".busy_s"] = busy.get(name, 0.0)
        out[name + ".calls"] = calls.get(name, 0)
    for layer in tracing.LAYERS:
        out[layer + ".busy_s"] = layer_busy[layer]
        out[layer + ".self_s"] = layer_self[layer]
    out["oracle.objects_counted"] = tallies.get("oracle.objects_counted", 0)
    out["oracle.fillings_counted"] = tallies.get("oracle.fillings_counted", 0)
    enum_s = busy.get("oracle.enumerate_maximal_iams", 0.0)
    enumerated = tallies.get("oracle.objects_enumerated", 0)
    out["oracle.objects_per_s"] = enumerated / enum_s if enum_s else 0.0
    return out


def cli_latencies(log):
    """Latency percentiles of the logged `iamkit` subprocesses, over all of
    them and per subcommand, and their sample counts."""
    ms = {sub: [seconds * 1e3 for name, seconds in log if name == sub]
          for sub in workloads.CLI_COMMANDS}
    every = [x for xs in ms.values() for x in xs]
    metrics = {"cli.p50_ms": statistics.median(every) if every else 0.0,
               "cli.p90_ms": p90(every) if len(every) > 1 else 0.0}
    samples = {"cli.p50_ms": len(every), "cli.p90_ms": len(every)}
    for sub, xs in ms.items():
        metrics["cli.%s.p50_ms" % sub] = statistics.median(xs) if xs else 0.0
        samples["cli.%s.p50_ms" % sub] = len(xs)
    return metrics, samples


# ---------------------------------------------------------------------------
# the run


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def commit_hash():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iamkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure(args, workload, inputs, ik):
    """End-to-end metrics, tracing off.

    Passes repeat until the next one would overrun --seconds, each after a
    set-up probe, so probes and passes spread over the whole run.  Times
    are calibrated (see HostSpeed): each check's time is the median of its
    calibrated times over the passes, and verify_s is the sum of those.
    The uncalibrated figures go to the result file."""
    speed = HostSpeed()
    checks = Checks(tracing.NULL, speed)
    probes, pass_s = [], []
    start = time.perf_counter()
    while True:
        probes.append(probe_setup(args, inputs, checks))
        pass_s.append(timed_pass(workload, ik, inputs, checks))
        if time.perf_counter() - start + pass_s[-1] > args.seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args, inputs, checks))
    rss = peak_rss_mb()
    frontier, steps = climb(workload, ik, inputs, args.budget, checks)
    setup = [calibrated for wall, calibrated in probes]
    metrics = {
        "setup_s": statistics.median(setup),
        "verify_s": sum(median_times(checks.calibrated, len(pass_s))),
        # a board the ladder never verified reads as the rung below it
        "frontier_n": frontier or workload.ladder[0] - 1,
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setup), "verify_s": len(pass_s),
               "frontier_n": len(steps), "peak_rss_mb": 1}
    detail = {
        "setup_samples_s": setup,
        "setup_wall_s": [wall for wall, calibrated in probes],
        "verify_wall_min_s": sum(best_times(checks.latencies, len(pass_s))),
        "pass_s": pass_s,
        "checks_per_pass": len(checks.latencies) // len(pass_s),
        "kernel_s": {"samples": len(speed.kernel_s),
                     "min": min(speed.kernel_s),
                     "median": statistics.median(speed.kernel_s)},
        "ladder": steps}
    return checks, metrics, samples, detail


def measure_traced(args, workload, inputs, ik, cli_log, tracer):
    """Per-layer metrics from traced passes, each after an untraced pass
    of the same inputs.  The tracing overhead is verify_s of the traced
    passes minus verify_s of the untraced ones.  The command-line latencies
    pool the subprocesses of both kinds of pass."""
    traced_ik = workloads.bind(tracer, ROOT, cli_log)
    checks = Checks(tracing.NULL)
    traced_latencies = []
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_pass(workload, ik, inputs, checks))
        pass_checks = Checks(tracer)
        mark = len(tracer.spans)
        with tracer.span("pass"):
            traced.append(timed_pass(workload, traced_ik, inputs, pass_checks))
        per_pass.append(layer_metrics(tracer.spans[mark:],
                                      pass_checks.tallies))
        checks.attempted += pass_checks.attempted
        checks.failures += pass_checks.failures
        traced_latencies += pass_checks.latencies
        if time.perf_counter() - start + plain[-1] + traced[-1] > args.seconds:
            break
    latency, latency_samples = cli_latencies(cli_log)
    frontier, steps = climb(workload, ik, inputs, args.budget, checks)
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    verified = [s["seconds"] for s in steps if s["outcome"] == "verified"]
    metrics["oracle.frontier_board_s"] = verified[-1] if verified else 0.0
    metrics["cli.import_s"] = statistics.median(
        probe_import() for _ in range(IMPORT_PROBES))
    metrics["trace.overhead_s"] = (
        sum(best_times(traced_latencies, len(traced)))
        - sum(best_times(checks.latencies, len(plain))))
    samples = {name: len(per_pass) for name in metrics}
    metrics.update(latency)
    samples.update(latency_samples)
    samples["cli.import_s"] = IMPORT_PROBES
    samples["oracle.frontier_board_s"] = 1
    samples["trace.overhead_s"] = len(plain) + len(traced)
    detail = {"untraced_pass_s": plain, "traced_pass_s": traced,
              "ladder": steps, "spans": len(tracer.spans)}
    return checks, metrics, samples, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small boards and budgets, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_iamkit()
    workload = workloads.WORKLOADS[args.workload]
    cli_log = []
    ik = workloads.bind(tracing.NULL, ROOT, cli_log)
    inputs = workload.build(ik, args.seed, args.tiny)
    if args.setup_probe:
        print(digest(inputs), flush=True)
        return 0
    args.budget = workload.budget_s / 5 if args.tiny else workload.budget_s

    if args.trace:
        tracer = tracing.Tracer()
        checks, metrics, samples, detail = measure_traced(
            args, workload, inputs, ik, cli_log, tracer)
        units = PER_LAYER
    else:
        checks, metrics, samples, detail = measure(args, workload, inputs, ik)
        units = END_TO_END

    failed = len(checks.failures)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "budget_s": args.budget, "environment": environment(),
        "commit": commit_hash(), "source_sha256": source_digest(),
        "input_digest": digest(inputs),
        "attempted": checks.attempted, "failed": failed,
        "fail_ratio": failed / checks.attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name],
                           "samples": samples[name]} for name in units},
        "detail": detail, "failures": checks.failures[:20],
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / (stem + "-spans.json"))

    for name in units:
        print("%-42s %14.6g %-5s (n=%d)" % (name, metrics[name], units[name],
                                            samples[name]))
    print("fail_ratio %d/%d  result file %s" % (
        failed, checks.attempted, (OUT / (stem + ".json")).relative_to(ROOT)))
    for failure in checks.failures[:5]:
        print("FAILED %s: %s" % (failure["check"], failure["reason"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
