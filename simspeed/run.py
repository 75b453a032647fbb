#!/usr/bin/env python3
"""Simulator-speed benchmark: how fast t4sim_cli simulates, and where
its host time and memory go.

Run from the repository root:

    python3 simspeed/run.py --workload cluster_bert0 --seed 1 --trace 0
    python3 simspeed/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 simspeed/run.py --self-test

The first call builds t4sim_cli and the traced-mode program in
.bench_build/ (RelWithDebInfo, the repository's default build type).

--trace 0 runs the workload through the shipped CLI, one process at a
time: zero-length runs for the set-up time, then a fixed number of
rounds (set by --seconds), each simulating its own seed derived from
--seed. It checks every run's outputs and prints the end-to-end metrics.
--trace 1 runs the CLI once at full length (and at a quarter length
where the length is a flag) and then the traced-mode program
(layers.cpp), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count
output checks. The line before it carries the run's provenance. A full
record of every run (commands, walls, checks) is written under
.bench_build/simspeed/results/. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "simspeed"
SCENARIO = "simspeed/retry_storm_jitter.scn"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 31  # zero-length runs per invocation; setup_s is their median
POISSON_Z = 5.0  # arrival-count bound in standard deviations
LENGTH_Z = 5.0  # LLM mean-length bound in standard errors
HOST_TIME_PREFIX = "compiler.pass."  # host wall-clock keys in report.json
# `simspeed_layers calibrate` on the reference host (README) when quiet,
# and the value its work must produce.
CALIBRATION_REFERENCE_S = 0.30
CALIBRATION_CHECK = 3931567
# How `check` reports a run whose only failure is the alert verdict.
ALERT_VERDICT = "scenario: FAILED (alert contract)"

CLUSTER_FLAGS = ["--app", "BERT0", "--cells", "3", "--load", "0.7"]
LLM_FLAGS = {
    "rate": 400.0,
    "prompt-mean": 768.0,
    "prompt-sigma": 0.3,
    "output-mean": 64.0,
    "output-sigma": 0.3,
    "max-batch": 16,
}


def llm_flag_list():
    out = []
    for key, value in LLM_FLAGS.items():
        out += ["--" + key, str(value)]
    return out


# name -> `length`: the simulated duration when it is a CLI flag (None:
# fixed by the scenario file); `rounds`: CLI runs per benchmark run at
# the declared run length (RUN_SECONDS), scaled with --seconds. The
# scenario's cost varies up to 2.5x between seeds (README), so it gets
# more seeds per run than its share of the time.
RUN_SECONDS = 15
WORKLOADS = {
    "cluster_bert0": {"length": 60.0, "rounds": 3},
    "scenario_retry_storm": {"length": None, "rounds": 4},
    "llm_continuous": {"length": 80.0, "rounds": 5},
}

END_TO_END = [("sim_req_per_s", "req/s"), ("rss_bytes_per_req", "B/req"),
              ("setup_s", "s")]

PER_LAYER = [
    ("compiler.compile_calls", "count"), ("compiler.compile_s", "s"),
    ("sim.simulate_calls", "count"), ("sim.simulate_s", "s"),
    ("llm.cost_calls", "count"), ("llm.cost_simulations", "count"),
    ("llm.cost_s", "s"),
    ("llm.iterations", "count"), ("llm.loop_s", "s"),
    ("llm.loop_ns_per_iteration", "ns/iteration"),
    ("cluster.requests", "count"), ("cluster.loop_s", "s"),
    ("cluster.loop_ns_per_req", "ns/req"),
    ("load.arrivals", "count"), ("load.take_s", "s"),
    ("load.feedback_calls", "count"), ("load.feedback_s", "s"),
    ("obs.slo.s", "s"),
    ("obs.timeseries.s", "s"), ("obs.timeseries.windows", "count"),
    ("obs.registry.s", "s"), ("obs.registry.samples", "count"),
    ("obs.trace.s", "s"), ("obs.trace.events", "count"),
    ("obs.spans.s", "s"), ("obs.spans.count", "count"),
    ("obs.alerts.s", "s"), ("obs.alerts.evaluations", "count"),
    ("obs.finish.s", "s"),
    ("obs.forensics.s", "s"), ("obs.sample.traces", "count"),
    ("obs.sample.kept", "count"),
    ("obs.report.s", "s"), ("obs.report.bytes", "B"),
    ("scaling.wall_ratio_4x", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------

class Checker:
    """Counts output checks; a failed one is logged with its detail."""

    def __init__(self, quiet=False):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.quiet = quiet

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
            if not self.quiet:
                log(f"CHECK FAILED {name}: {detail}")
        return ok


def poisson_ok(observed, mean):
    return abs(observed - mean) <= POISSON_Z * math.sqrt(max(mean, 1.0)) + 1


def parse_stdout_books(stdout):
    m = re.search(r"requests: (\d+) arrived.*?, (\d+) completed, (\d+) "
                  r"dropped, (\d+) shed", stdout)
    if not m:
        return None
    return tuple(int(x) for x in m.groups())


def report_books(report, family):
    """(arrived, completed, dropped, shed) summed over tenants."""
    books = []
    for field in ("arrived", "completed", "dropped", "shed"):
        prefix = f"{family}.{field}{{"
        books.append(int(sum(v for k, v in report["metrics"].items()
                             if k.startswith(prefix))))
    return tuple(books)


def check_books(ck, stdout, report, family):
    """Books close in stdout and in report.json, and the two agree."""
    books = parse_stdout_books(stdout)
    if not ck.check("stdout books present", books is not None):
        return None
    a, c, d, s = books
    ck.check("stdout books close", a == c + d + s, f"{a} != {c}+{d}+{s}")
    if report is not None:
        ra, rc, rd, rs = report_books(report, family)
        ck.check("report books close", ra == rc + rd + rs,
                 f"{ra} != {rc}+{rd}+{rs}")
        ck.check("report books match stdout", (ra, rc, rd, rs) == books,
                 f"{(ra, rc, rd, rs)} vs {books}")
    return books


def check_quantiles(ck, name, values):
    ok = all(values[i] <= values[i + 1] for i in range(len(values) - 1))
    ck.check(f"{name} quantiles ordered", ok, str(values))


def histogram(report, name):
    """The one histogram `name{...}` in report metrics, as a dict."""
    out = {}
    for key, value in report["metrics"].items():
        if key.startswith(name + "{"):
            out[key.rsplit(".", 1)[1]] = value
    return out


def check_histogram(ck, report, name, floor_s):
    """p50 <= p95 <= p99 <= max, and nothing faster than floor_s."""
    h = histogram(report, name)
    if not ck.check(f"{name} in report", {"min", "p50", "p95", "p99",
                                          "max"} <= set(h), str(h)):
        return
    check_quantiles(ck, name, [h["p50"], h["p95"], h["p99"], h["max"]])
    ck.check(f"{name} min >= {floor_s:.9g} s",
             h["min"] >= floor_s * (1 - 1e-9), f"min {h['min']}")


def strip_host_time(report):
    out = dict(report)
    out["metrics"] = {k: v for k, v in report["metrics"].items()
                      if not k.startswith(HOST_TIME_PREFIX)}
    out["series"] = [s for s in report["series"]
                     if not s.get("name", "").startswith(HOST_TIME_PREFIX)]
    return out


def check_determinism(ck, reference, report):
    """Same seed, same report, apart from the host wall-clock keys."""
    a, b = strip_host_time(reference), strip_host_time(report)
    differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if "metrics" in differing:
        differing += sorted(k for k in set(a["metrics"]) | set(b["metrics"])
                            if a["metrics"].get(k) != b["metrics"].get(k))[:5]
    ck.check("report identical to the reference run (host-time keys "
             f"{HOST_TIME_PREFIX}* excluded)", not differing, str(differing))


def check_forensics(ck, stdout, arrived):
    m = re.search(r"forensics: kept (\d+) of (\d+) traces \| paths (\d+) "
                  r"tiled, (\d+) untiled", stdout)
    if not ck.check("forensics line present", m is not None):
        return
    kept, traces, _, untiled = (int(x) for x in m.groups())
    ck.check("0 untiled paths", untiled == 0, f"{untiled} untiled")
    ck.check("kept <= traces == arrived", kept <= traces == arrived,
             f"kept {kept} traces {traces} arrived {arrived}")


def scenario_profile(path):
    """Expected non-retry arrivals of the scenario file: the tenant's
    rate (load x one cell's SLO-batch capacity under the runner's
    default affine device model, 1 ms + 0.1 ms/sample, batch <= 32,
    10 ms SLO) integrated over the flash-crowd rate profile."""
    text = Path(path).read_text()

    def num(pattern):
        return float(re.search(pattern, text, re.M).group(1))

    duration = num(r"^duration\s+(\S+)")
    devices = num(r"^devices\s+(\S+)")
    load = num(r"^tenant\s+\S+\s+.*?load=(\S+)")
    best = max(b for b in (1, 2, 4, 8, 16, 32) if 1e-3 + 1e-4 * b <= 0.010)
    rate = load * best / (1e-3 + 1e-4 * best) * devices
    crowd = re.search(r"^flash-crowd\s+.*?ramp=(\S+)\s+hold=(\S+)\s+"
                      r"mult=(\S+)", text, re.M)
    extra = 0.0
    if crowd:
        ramp, hold, mult = (float(x) for x in crowd.groups())
        extra = (mult - 1.0) * (ramp + hold)  # two linear ramps + hold
    return rate * (duration + extra), 1e-3 + 1e-4 * 1


def check_run(ck, workload, res, ctx, length):
    """Every property check on one full CLI run."""
    stdout, report = res["stdout"], res["report"]
    exit_ok = res["rc"] == 0
    at_file_seed = ctx["seed"] == ctx.get("file_seed")
    if workload == "scenario_retry_storm" and not at_file_seed:
        # Away from the file's seed the storm may still be paging at
        # run end (seed 109 does), which `check` grades as a failed
        # alert contract with exit 1. Only the file's seed must PASS.
        exit_ok = exit_ok or (res["rc"] == 1 and
                              ALERT_VERDICT in res["stderr"])
    ck.check("exit 0", exit_ok, f"rc {res['rc']}: {res['stderr'][-300:]}")
    ck.check("report.json written", report is not None)
    if workload == "cluster_bert0":
        books = check_books(ck, stdout, report, "cluster")
        m = re.search(r"\| ([0-9.]+) rps offered", stdout)
        rate = ctx["ladder"]["offered_rps"]
        ck.check("offered rate matches the Compile+Simulate ladder",
                 m is not None and abs(float(m.group(1)) - rate) <= 0.51,
                 f"{m.group(0) if m else None} vs {rate}")
        if books:
            ck.check("arrivals within Poisson bound of rate x duration",
                     poisson_ok(books[0], rate * length),
                     f"{books[0]} vs {rate * length:.1f}")
        m = re.search(r"latency: p50 ([0-9.]+) ms p95 ([0-9.]+) ms p99 "
                      r"([0-9.]+) ms", stdout)
        if ck.check("latency line present", m is not None):
            check_quantiles(ck, "stdout latency",
                            [float(x) for x in m.groups()])
        if report is not None:
            check_histogram(ck, report, "cluster.latency_seconds",
                            ctx["ladder"]["batch1_latency_s"])
    elif workload == "scenario_retry_storm":
        books = check_books(ck, stdout, report, "cluster")
        if at_file_seed:
            ck.check("scenario PASS at the file's seed",
                     "scenario: PASS" in stdout)
        m = re.search(r"\((\d+) client retries\)", stdout)
        expected, floor_s = scenario_profile(ctx["scenario"])
        if ck.check("client retries present", m is not None) and books:
            fresh = books[0] - int(m.group(1))
            ck.check("non-retry arrivals within Poisson bound of the "
                     "rate profile", poisson_ok(fresh, expected),
                     f"{fresh} vs {expected:.1f}")
            check_forensics(ck, stdout, books[0])
        if report is not None:
            check_histogram(ck, report, "cluster.latency_seconds", floor_s)
    else:
        books = check_books(ck, stdout, report, "llm")
        ck.check("conservation ok", "serve-llm: conservation ok" in stdout)
        if books:
            ck.check("arrivals within Poisson bound of rate x duration",
                     poisson_ok(books[0], LLM_FLAGS["rate"] * length),
                     f"{books[0]} vs {LLM_FLAGS['rate'] * length:.1f}")
        m = re.search(r"tokens: (\d+) in, (\d+) out", stdout)
        if ck.check("tokens line present", m is not None) and books:
            n = max(books[1], 1)
            for which, total in (("prompt", int(m.group(1))),
                                 ("output", int(m.group(2)))):
                mean = LLM_FLAGS[which + "-mean"]
                sigma = LLM_FLAGS[which + "-sigma"]
                se = mean * math.sqrt(math.expm1(sigma ** 2)) / math.sqrt(n)
                realized = total / n
                ck.check(f"mean {which} length within {LENGTH_Z:g} SE",
                         abs(realized - mean) <= LENGTH_Z * se + 0.5,
                         f"{realized:.2f} vs {mean} (se {se:.3f})")
        m = re.search(r"ttft p50/p95/p99 ([0-9.]+)/([0-9.]+)/([0-9.]+) s.*"
                      r"tpot p50/p99 ([0-9.]+)/([0-9.]+) s", stdout)
        if ck.check("ttft/tpot line present", m is not None):
            v = [float(x) for x in m.groups()]
            check_quantiles(ck, "ttft", v[:3])
            check_quantiles(ck, "tpot", v[3:])
        if report is not None:
            ttft = histogram(report, "llm.ttft_seconds")
            check_histogram(ck, report, "llm.latency_seconds",
                            ttft.get("min", math.inf))
    return books


# ---------------------------------------------------------------------
# Negative self-test: each check must fail on a broken output.
# ---------------------------------------------------------------------

def self_test():
    """Feeds each check a good synthetic output (must pass) and a broken
    one (must fail). Returns the list of problems; empty means pass."""
    problems = []

    def expect(label, fn, should_fail):
        ck = Checker(quiet=True)
        fn(ck)
        if should_fail and ck.failed == 0:
            problems.append(f"{label}: broken output passed every check")
        if not should_fail and ck.failed:
            problems.append(f"{label}: good output failed {ck.failures}")

    def report(arrived, completed, shed, extra=None):
        metrics = {"cluster.arrived{tenant=a}": arrived,
                   "cluster.completed{tenant=a}": completed,
                   "cluster.dropped{tenant=a}": 0,
                   "cluster.shed{tenant=a}": shed,
                   "compiler.pass.total.seconds.sum": 0.001}
        metrics.update(extra or {})
        return {"meta": {"seed": 1}, "metrics": metrics,
                "series": [{"name": "compiler.pass.total.seconds",
                            "points": [1e-4]},
                           {"name": "cluster.arrived", "points": [3]}]}

    stdout = "requests: 10 arrived, 7 completed, 0 dropped, 3 shed\n"
    expect("books", lambda ck: check_books(ck, stdout, report(10, 7, 3),
                                           "cluster"), False)
    expect("books that do not close",
           lambda ck: check_books(ck, stdout, report(10, 6, 3), "cluster"),
           True)
    expect("stdout books that do not close",
           lambda ck: check_books(ck, stdout.replace("7 completed",
                                                     "6 completed"),
                                  None, "cluster"), True)
    tiled = "forensics: kept 9 of 10 traces | paths 9 tiled, 0 untiled\n"
    expect("forensics", lambda ck: check_forensics(ck, tiled, 10), False)
    expect("non-zero untiled paths",
           lambda ck: check_forensics(
               ck, tiled.replace("0 untiled", "1 untiled"), 10), True)
    expect("kept > traces",
           lambda ck: check_forensics(
               ck, tiled.replace("kept 9", "kept 11"), 10), True)

    def poisson(ck, observed, mean):
        ck.check("poisson", poisson_ok(observed, mean))

    expect("arrivals at the rate", lambda ck: poisson(ck, 10100, 10000),
           False)
    expect("arrivals outside the Poisson bound",
           lambda ck: poisson(ck, 10700, 10000), True)
    base = report(10, 7, 3)
    host_only = report(10, 7, 3, {"compiler.pass.total.seconds.sum": 0.002})
    host_only["series"][0]["points"] = [2e-4]
    expect("reports differing only in host-time keys",
           lambda ck: check_determinism(ck, base, host_only), False)
    beyond = report(10, 7, 3)
    beyond["series"][1]["points"] = [4]
    expect("reports differing beyond host-time keys",
           lambda ck: check_determinism(ck, base, beyond), True)
    beyond_metric = report(10, 7, 3, {"cluster.p95{tenant=a}": 1.0})
    expect("reports differing in a metric",
           lambda ck: check_determinism(ck, base, beyond_metric), True)
    hist = report(10, 7, 3, {
        "cluster.latency_seconds{tenant=a}.min": 0.002,
        "cluster.latency_seconds{tenant=a}.p50": 0.003,
        "cluster.latency_seconds{tenant=a}.p95": 0.004,
        "cluster.latency_seconds{tenant=a}.p99": 0.005,
        "cluster.latency_seconds{tenant=a}.max": 0.006})
    expect("latency histogram", lambda ck: check_histogram(
        ck, hist, "cluster.latency_seconds", 0.001), False)
    expect("latency faster than the device floor", lambda ck: check_histogram(
        ck, hist, "cluster.latency_seconds", 0.0025), True)
    hist["metrics"]["cluster.latency_seconds{tenant=a}.p95"] = 0.0055
    expect("latency quantiles out of order", lambda ck: check_histogram(
        ck, hist, "cluster.latency_seconds", 0.001), True)
    return problems


# ---------------------------------------------------------------------
# Build, provenance, child processes
# ---------------------------------------------------------------------

def require_checkout():
    needed = ["CMakeLists.txt", "src/CMakeLists.txt",
              "examples/t4sim_cli.cpp", "simspeed/CMakeLists.txt",
              SCENARIO]
    missing = [p for p in needed if not Path(p).is_file()]
    if missing:
        log("simspeed: run from the repository root; missing " +
            ", ".join(missing))
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("simspeed: cmake not found")
        sys.exit(2)


def build():
    cmake_dir = BUILD_DIR / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "simspeed", "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "t4sim_cli", "simspeed_layers", "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            log(f"simspeed: build step failed ({rc}): {' '.join(cmd)}")
            sys.exit(3)
    cli = cmake_dir / "tpu4sim" / "examples" / "t4sim_cli"
    layers = cmake_dir / "simspeed_layers"
    return str(cli), str(layers), cmake_dir


def cmake_cache(cmake_dir):
    out = {}
    for line in (cmake_dir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def provenance(cmake_dir, seed):
    cache = cmake_cache(cmake_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = ""
    flags_make = (cmake_dir / "tpu4sim" / "examples" / "CMakeFiles" /
                  "t4sim_cli.dir" / "flags.make")
    if flags_make.is_file():
        m = re.search(r"^CXX_FLAGS = (.*)$", flags_make.read_text(), re.M)
        flags = m.group(1) if m else ""
    commit = "unknown (not a git checkout)"
    if Path(".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "simspeed"):
        paths = [Path(top)] if Path(top).is_file() else sorted(
            p for p in Path(top).rglob("*") if p.is_file())
        for p in paths:
            digest.update(str(p).encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": f"{compiler} ({version})",
        "cxx_flags": flags,
        "seed": seed,
        "host_cpus": os.cpu_count(),
        "commands": [],
    }


def run_child(argv, prov=None):
    """Runs one process to its end; returns wall, peak RSS and output."""
    if prov is not None:
        prov["commands"].append(" ".join(argv))
    out_path = BUILD_DIR / "child.out"
    err_path = BUILD_DIR / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "maxrss_bytes": usage.ru_maxrss * 1024,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def cli_argv(cli, workload, seed, length, report_path=None,
             scenario=SCENARIO):
    if workload == "cluster_bert0":
        argv = [cli, "serve-cluster"] + CLUSTER_FLAGS + [
            "--duration", repr(length), "--seed", str(seed)]
    elif workload == "scenario_retry_storm":
        argv = [cli, "check", "--scenario", scenario, "--seed", str(seed)]
    else:
        argv = [cli, "serve-llm", "--model", "TINYLM", "--mode",
                "continuous"] + llm_flag_list() + [
            "--duration", repr(length), "--seed", str(seed)]
    if report_path is not None:
        argv += ["--report-out", str(report_path)]
    return argv


def full_run(cli, workload, seed, length, run_dir, prov):
    report_path = run_dir / "report.json"
    if report_path.exists():
        report_path.unlink()
    res = run_child(cli_argv(cli, workload, seed, length, report_path), prov)
    res["report"] = None
    if report_path.is_file():
        try:
            res["report"] = json.loads(report_path.read_text())
        except ValueError:
            pass
    return res


def host_speed_probe(layers, ck):
    """One calibration run's seconds; see CALIBRATION_REFERENCE_S."""
    res = run_child([layers, "calibrate"])
    out = json.loads(res["stdout"]) if res["rc"] == 0 else {}
    ck.check("calibration did its work",
             out.get("check") == CALIBRATION_CHECK, res["stdout"][:200])
    return out.get("seconds", math.nan)


def ladder(layers, prov):
    res = run_child([layers, "ladder"] + CLUSTER_FLAGS, prov)
    if res["rc"] != 0:
        log("simspeed: ladder probe failed: " + res["stderr"])
        sys.exit(4)
    return json.loads(res["stdout"])


# ---------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------

def measure_setup(cli, workload, seed, run_dir, ck, prov):
    """Median wall of the workload's command with a simulated length of
    1 ns, too short for an arrival on almost every seed, so set-up, an
    empty loop and process start and exit remain."""
    scenario = run_dir / "zero_length.scn"
    scenario.write_text(re.sub(r"^duration\s+\S+", "duration 1e-9",
                               Path(SCENARIO).read_text(), flags=re.M))
    walls = []
    for i in range(SETUP_PROBES):
        argv = cli_argv(cli, workload, seed, 1e-9, scenario=str(scenario))
        res = run_child(argv, prov if i == 0 else None)
        ck.check("set-up probe exit 0", res["rc"] == 0, res["stderr"][-300:])
        check_books(ck, res["stdout"], None, None)
        walls.append(res["wall_s"])
    return statistics.median(walls)


def round_seeds(workload, seed, seconds, file_seed=None):
    """The seeds a run simulates, one per round. The first and last
    rounds simulate one seed, and their reports must match: the run's
    seed, or for the scenario the file's own seed, where its contract
    must PASS. The rounds between take the run's seed and seeds derived
    from it. The count depends only on --seconds, so a seed always
    gives the same inputs."""
    rounds = max(3, round(WORKLOADS[workload]["rounds"] * seconds /
                          RUN_SECONDS))
    anchor = seed if file_seed is None else file_seed
    middle = [] if file_seed is None else [seed]
    middle += [(seed * 1000 + i) % (1 << 62)
               for i in range(1, rounds - 1 - len(middle))]
    return [anchor] + middle + [anchor]


def untraced(workload, seed, seconds, cli, layers, run_dir, ck, prov):
    length = WORKLOADS[workload]["length"]
    ctx = context(workload, layers, prov)
    # Host seconds become reference-host seconds through the calibration
    # probes on either side of each measurement: the host's speed drifts
    # by tens of percent over minutes under other tenants' load.
    calibration = [host_speed_probe(layers, ck)]
    setup_s = measure_setup(cli, workload, seed, run_dir, ck, prov)
    calibration.append(host_speed_probe(layers, ck))

    def reference_s(host_s, i):
        return host_s * CALIBRATION_REFERENCE_S / (
            (calibration[i] + calibration[i + 1]) / 2)

    rounds = []
    first_report = None
    seeds = round_seeds(workload, seed, seconds, ctx.get("file_seed"))
    for i, round_seed in enumerate(seeds):
        res = full_run(cli, workload, round_seed, length, run_dir, prov)
        books = check_run(ck, workload, res, dict(ctx, seed=round_seed),
                          length)
        calibration.append(host_speed_probe(layers, ck))
        if i == 0:
            first_report = res["report"]
        elif i == len(seeds) - 1:
            if first_report is not None and res["report"] is not None:
                check_determinism(ck, first_report, res["report"])
            else:
                ck.check("reports present for the determinism check", False)
        arrived = max(books[0] if books else 0, 1)
        rounds.append({"seed": round_seed, "wall_s": res["wall_s"],
                       "reference_s": reference_s(res["wall_s"], i + 1),
                       "maxrss_bytes": res["maxrss_bytes"],
                       "arrived": arrived,
                       "rss_bytes_per_req": res["maxrss_bytes"] / arrived})
    metrics = {
        # Requests over the run's summed time, so that seeds with more
        # work weigh more, as they would in a longer run.
        "sim_req_per_s": (sum(r["arrived"] for r in rounds) /
                          sum(r["reference_s"] for r in rounds)),
        "rss_bytes_per_req": statistics.median(
            r["rss_bytes_per_req"] for r in rounds),
        "setup_s": reference_s(setup_s, 0),
    }
    return metrics, {"rounds": rounds, "setup_probes": SETUP_PROBES,
                     "setup_host_s": setup_s, "calibration_s": calibration}


def context(workload, layers, prov):
    """What the checks compare a workload's outputs against."""
    ctx = {"scenario": SCENARIO}
    if workload == "cluster_bert0":
        ctx["ladder"] = ladder(layers, prov)
    if workload == "scenario_retry_storm":
        ctx["file_seed"] = int(re.search(r"^seed\s+(\d+)",
                                         Path(SCENARIO).read_text(),
                                         re.M).group(1))
    return ctx


def traced(workload, seed, cli, layers, run_dir, ck, prov):
    length = WORKLOADS[workload]["length"]
    ctx = dict(context(workload, layers, prov), seed=seed)
    full = full_run(cli, workload, seed, length, run_dir, prov)
    books = check_run(ck, workload, full, ctx, length)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    record = {"cli_wall_s": full["wall_s"],
              "cli_maxrss_bytes": full["maxrss_bytes"]}
    if length is not None:
        quarter = full_run(cli, workload, seed, length / 4, run_dir, prov)
        check_run(ck, workload, quarter, ctx, length / 4)
        metrics["scaling.wall_ratio_4x"] = full["wall_s"] / quarter["wall_s"]
        record["quarter_wall_s"] = quarter["wall_s"]

    if workload == "cluster_bert0":
        argv = [layers, "cluster", "--seed", str(seed)] + CLUSTER_FLAGS + [
            "--duration", repr(length)]
    elif workload == "scenario_retry_storm":
        argv = [layers, "scenario", "--seed", str(seed),
                "--scenario", SCENARIO]
    else:
        argv = [layers, "llm", "--seed", str(seed), "--duration",
                repr(length)] + llm_flag_list()
    res = run_child(argv, prov)
    ck.check("traced-mode program exit 0", res["rc"] == 0,
             res["stderr"][-300:])
    layer_out = json.loads(res["stdout"]) if res["rc"] == 0 else {
        "metrics": {}, "runs": []}
    unknown = set(layer_out["metrics"]) - set(metrics)
    ck.check("traced mode reports only declared metrics", not unknown,
             str(sorted(unknown)))
    metrics.update(layer_out["metrics"])
    retries = re.search(r"\((\d+) client retries\)", full["stdout"])
    for run in layer_out["runs"]:
        got = (run["arrived"], run["completed"], run["dropped"], run["shed"])
        ck.check(f"{run['variant']} run books match the CLI run",
                 books is not None and got == books, f"{got} vs {books}")
        if retries:
            ck.check(f"{run['variant']} run client retries match",
                     run["client_retries"] == int(retries.group(1)))
    record["layer_runs"] = layer_out["runs"]
    record["layers_wall_s"] = res["wall_s"]
    record["summary"] = layer_summary(workload, metrics, layer_out["runs"],
                                      full["wall_s"])
    return metrics, record


def layer_summary(workload, m, runs, cli_wall):
    """Each layer's share of the CLI run's wall time, the unaccounted
    remainder (process start and exit, file writes, the sum of
    separately measured parts not adding exactly), and the tracing
    overhead: the extra time the timing decorators add to the loop
    (decorated minus undecorated run, fastest of each)."""
    def fastest(variant):
        walls = [r["wall_s"] for r in runs if r["variant"] == variant]
        return min(walls) if walls else 0.0

    loop = (m["llm.loop_s"] if workload == "llm_continuous"
            else m["cluster.loop_s"])
    parts = {
        "setup (compile+simulate)": (m["compiler.compile_s"] +
                                     m["sim.simulate_s"]),
        "loop, no sinks": loop,
        "registry": m["obs.registry.s"],
        "slo": m["obs.slo.s"],
        "timeseries": m["obs.timeseries.s"],
        "alerts": m["obs.alerts.s"],
        "trace": m["obs.trace.s"],
        "spans": m["obs.spans.s"],
        "finish": m["obs.finish.s"],
        "forensics": m["obs.forensics.s"],
        "report": m["obs.report.s"],
    }
    accounted = sum(parts.values())
    undecorated = fastest("no_sinks_undecorated")
    return {
        "cli_wall_s": cli_wall,
        "shares": {k: v / cli_wall for k, v in parts.items()},
        "unaccounted_s": cli_wall - accounted,
        "unaccounted_share": (cli_wall - accounted) / cli_wall,
        "tracing_overhead_s": (fastest("no_sinks") - undecorated
                               if undecorated else 0.0),
    }


def run_workload(workload, seed, seconds, trace, cli, layers, cmake_dir):
    prov = provenance(cmake_dir, seed)
    run_dir = BUILD_DIR / "runs" / f"{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ck = Checker()
    try:
        if trace:
            metrics, record = traced(workload, seed, cli, layers, run_dir,
                                     ck, prov)
            units = dict(PER_LAYER)
        else:
            metrics, record = untraced(workload, seed, seconds, cli, layers,
                                       run_dir, ck, prov)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"provenance": prov, "result": result, "record": record,
                    "check_failures": ck.failures}, indent=1))
    return result, prov, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only run the negative self-test of the checks")
    args = parser.parse_args()

    problems = self_test()
    for p in problems:
        log("SELF-TEST FAILED " + p)
    if args.self_test:
        log("self-test: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    require_checkout()
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cli, layers, cmake_dir = build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": not problems, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in names:
        result, prov, record = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), cli, layers,
                                            cmake_dir)
        for metric, v in result["metrics"].items():
            log(f"{name:22s} {metric:28s} {v['value']:14.6g} {v['unit']}")
        if "summary" in record:
            log(f"{name} layer summary: " + json.dumps(record["summary"]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(names) == 1:
            combined["metrics"] = result["metrics"]
        else:
            print(json.dumps({"workload": name, **result}))
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = v
    print("provenance: " + json.dumps(prov))
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
