#!/usr/bin/env python3
"""End-to-end benchmark of ConfSim: times real `confsim` invocations.

Run from the repository root:

  python3 bench/e2e/run.py --workload suite-live --seed 1 --seconds 20
  python3 bench/e2e/run.py --build build-rel --seed 1 --out r.json
  python3 bench/e2e/run.py --workload sweep-warm --trace 1

Without --build it builds bench/e2e (the confsim CLI, the timed_exec
launcher and, for --trace 1, layer_trace) as Release into
$CARGO_TARGET_DIR, or .bench_build. Without --workload it runs all four
workloads. Every invocation runs with --jobs 1, one at a time (a closed
loop with one client), on one CPU.

One run of a workload: set up SETUPS times (fresh work dir, grid files,
the warm-up invocation, and for sweep-warm the cold runs that fill the
artifact dir) and report the median as setup_s; then run whole passes
over the workload's 40 jobs until --seconds is used up, at least
MIN_PASSES times. A job's wall time is the median over the passes, so a
few seconds of host contention moves at most one sample of each job.
With --trace 1 each job is followed by the same job under layer_trace,
in one process with its own set-up, and the per-layer metrics are
reported instead.

Every invocation's simulated results are checked: identical across
repeats, warm equal to cold (sweep-warm), equal between traced and
untraced runs, and for the default seed equal to expected/seed-1.json.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("suite-live", "speccontrol", "sweep-warm", "sampled-synthetic")
PROGRAMS = ("compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex",
            "xlisp")
TABLE2_ESTIMATORS = ("jrs", "satcnt", "pattern", "static", "distance")
PAPER_ESTIMATORS = ("jrs", "jrs-base", "satcnt", "satcnt-both",
                    "satcnt-either", "pattern", "static", "distance",
                    "cir-ones", "cir-table", "mcf-jrs", "boost2", "boost3",
                    "perc-conf", "tage-conf")
KERNEL_LANES = PAPER_ESTIMATORS[:6]
PRESETS = ("mixed", "phased", "clustered", "high-entropy", "loopy")
SPECCONTROL_VARIANTS = (("--gate", "1"), ("--gate", "2"), ("--gate", "4"),
                        ("--gate", "2", "--estimator", "distance"),
                        ("--eager",))
PREDICTORS = ("gshare", "mcfarling")
JOB_TIMEOUT_S = 120


@dataclass(frozen=True)
class Size:
    """Job sizes. A full job takes 0.05-0.15 s on one core of a Xeon
    server, so the default 20 s holds 3 to 7 passes of 40 jobs."""
    live_scale: int = 6
    spec_scale: int = 8
    sweep_scale: int = 1
    synthetic_branches: int = 100_000_000
    jobs: int = 40
    min_passes: int = 3
    setups: int = 5


FULL = Size()
SMOKE = Size(live_scale=1, spec_scale=1, synthetic_branches=1_000_000,
             jobs=1, min_passes=1, setups=1)


@dataclass
class Job:
    args: list
    cold: bool = False  # a sweep that fills an empty --artifact-dir


@dataclass
class Plan:
    files: dict = field(default_factory=dict)  # name -> JSON document
    setup_jobs: list = field(default_factory=list)
    jobs: list = field(default_factory=list)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------
# Workload plans. The seed derives every input the program receives:
# job seeds, grid workload seeds, scenario seeds and sampling seeds.
# ---------------------------------------------------------------------

def make_plan(workload, seed, size):
    rng = random.Random(f"{workload}/{seed}")

    def draw():
        return rng.randrange(1, 2**31)

    plan = Plan()
    if workload == "suite-live":
        for i, (prog, est) in enumerate(
                itertools.product(PROGRAMS, TABLE2_ESTIMATORS)):
            plan.jobs.append(Job([
                "--workload", prog, "--estimator", est,
                "--predictor", PREDICTORS[i % 2],
                "--scale", str(size.live_scale), "--seed", str(draw()),
                "--json", "--jobs", "1"]))
    elif workload == "speccontrol":
        for prog, variant in itertools.product(PROGRAMS,
                                               SPECCONTROL_VARIANTS):
            plan.jobs.append(Job([
                "--workload", prog, "--estimator", "jrs", *variant,
                "--scale", str(size.spec_scale), "--seed", str(draw()),
                "--json", "--jobs", "1"]))
    elif workload == "sweep-warm":
        grid_seed = draw()
        for pred in PREDICTORS:
            plan.files[f"grid-{pred}.json"] = {
                "predictor": pred, "workloads": [],
                "workload_config": {"scale": size.sweep_scale,
                                    "seed": grid_seed},
                "thresholds": [1, 4, 8, 15],
                "estimators": [{"estimator": e} for e in PAPER_ESTIMATORS]}
        for i in range(size.jobs):
            plan.jobs.append(Job([
                "--sweep", f"grid-{PREDICTORS[i % 2]}.json",
                "--artifact-dir", "D", "--jobs", "1"]))
        # Set-up fills D with one cold run per grid the jobs use.
        for grid in dict.fromkeys(job.args[1] for job in plan.jobs):
            plan.setup_jobs.append(Job(
                ["--sweep", grid, "--artifact-dir", "D", "--jobs", "1"],
                cold=True))
    elif workload == "sampled-synthetic":
        for i, (preset, _) in enumerate(
                itertools.product(PRESETS, range(8))):
            name = f"grid-{i:02d}.json"
            plan.files[name] = {
                "predictor": "gshare", "workloads": [],
                "synthetic": [{"preset": preset,
                               "branches": size.synthetic_branches,
                               "seed": draw()}],
                "sampling": {"window_ops": 8192, "stride_ops": 1048576,
                             "warmup_ops": 2048, "seed": draw()},
                "estimators": [{"estimator": e} for e in KERNEL_LANES]}
            plan.jobs.append(Job(["--sweep", name, "--jobs", "1"]))
    else:
        raise BenchError(f"unknown workload '{workload}'")
    plan.jobs = plan.jobs[:size.jobs]
    # The warm-up invocation is the first timed job, run untimed.
    plan.setup_jobs.append(plan.jobs[0])
    return plan


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

def build_type(build):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1].strip()
    return ""


def ensure_build(build_arg, trace):
    """Return the bench/e2e build dir: tools/confsim, timed_exec and,
    for @p trace, layer_trace. Without @p build_arg, build them from
    this checkout."""
    if build_arg:
        build = Path(build_arg).resolve()
    else:
        if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
            raise BenchError(f"{ROOT} holds no ConfSim sources to build")
        build = Path(os.environ.get("CARGO_TARGET_DIR")
                     or ROOT / ".bench_build").resolve()
        log = sys.stderr.fileno()
        if build_type(build) is None:
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build), *gen,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, check=True)
        # layer_trace calls internal library functions; untraced runs
        # do not depend on it building.
        targets = ["confsim", "timed_exec"] + (["layer_trace"] if trace
                                               else [])
        subprocess.run(["cmake", "--build", str(build), "-j",
                        str(os.cpu_count() or 1), "--target", *targets],
                       stdout=log, check=True)
    kind = build_type(build)
    if kind not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"{build}: build type {kind or 'unset'!r}; timing "
                         "needs -DCMAKE_BUILD_TYPE=Release or RelWithDebInfo")
    return build


# ---------------------------------------------------------------------
# Result checks
# ---------------------------------------------------------------------

def checked_fields(doc):
    """The simulated statistics a job's output is checked on; timings,
    echoes and sections added later are left out."""
    if "runs" in doc:
        return [{"quadrants": r["quadrants"],
                 "stats": {k: r["stats"][k]
                           for k in ("pipeline", "predictor", "estimator")}}
                for r in doc["runs"]]
    workloads = []
    for w in doc["workloads"]:
        configs = []
        for c in w["configs"]:
            f = {k: c[k] for k in ("quadrants", "stats", "thresholds")
                 if k in c}
            if "sampled" in c:
                f["sampled"] = c["sampled"]["metrics"]
            configs.append(f)
        workloads.append({"workload": w["workload"],
                          "predictor": w.get("predictor"),
                          "configs": configs})
    return {"workloads": workloads, "aggregate": doc["aggregate"]}


def digest(doc):
    text = json.dumps(checked_fields(doc), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def lane_branches(doc):
    """Committed branches summed over every result lane."""
    if "runs" in doc:
        quads = [r["quadrants"]["committed"] for r in doc["runs"]]
    else:
        quads = [c["quadrants"]["committed"]
                 for w in doc["workloads"] for c in w["configs"]]
    return sum(q["chc"] + q["ihc"] + q["clc"] + q["ilc"] for q in quads)


class Checker:
    """Counts invocations and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def invocation(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"check failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------
# Untraced runs
# ---------------------------------------------------------------------

@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kib: int
    doc: dict  # None when the invocation failed


def run_job(build, job, work, checker, label):
    if "--artifact-dir" in job.args:
        # A journal hit would skip the replay being timed.
        store = work / job.args[job.args.index("--artifact-dir") + 1]
        for journal in store.glob("*.journal"):
            journal.unlink()
    out_path, err_path = work / "stdout.json", work / "stderr.txt"
    report = work / "rusage.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run([str(build / "timed_exec"), str(report),
                        str(JOB_TIMEOUT_S), str(build / "tools" / "confsim"),
                        *job.args], cwd=work, stdout=out, stderr=err,
                       check=True)
    code, wall, cpu, rss_kib = report.read_text().split()
    doc = None
    if code == "0":
        try:
            doc = json.loads(out_path.read_text())
            checked_fields(doc)  # the fields every check reads exist
        except (ValueError, KeyError, TypeError):
            doc = None
    reason = f"{label}: confsim {' '.join(job.args)}"
    if code != "0":
        reason += (f" exited {code}: "
                   f"{err_path.read_text(errors='replace').strip()[-300:]}")
    checker.invocation(doc is not None, reason)
    return Sample(float(wall), float(cpu), int(rss_kib), doc)


def set_up(plan, work):
    """Fresh work dir and grid files; returns the seconds it took."""
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    work.mkdir(parents=True)
    for name, doc in plan.files.items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")
    return time.perf_counter() - start


class LayerTrace:
    """layer_trace as a job server: one answer line per job line."""

    def __init__(self, build, work, trace_out):
        program = build / "layer_trace"
        if not program.is_file():
            raise BenchError(f"{program} missing: --trace needs a build of "
                             "bench/e2e")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([str(program), str(trace_out)], cwd=work,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, job, keep):
        self.proc.stdin.write(json.dumps(
            {"cold": job.cold, "keep": keep, "args": job.args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"layer_trace stopped at {' '.join(job.args)}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        if kind is not None:
            self.proc.kill()
        self.proc.stdin.close()
        if self.proc.wait(timeout=JOB_TIMEOUT_S) != 0 and kind is None:
            raise BenchError(f"layer_trace exited {self.proc.returncode}")


@dataclass
class Measured:
    plan: Plan
    setups: list
    passes: int
    samples: list          # per timed job: list of Sample
    digests: list          # per timed job: digest of its results
    setup_digests: list    # per set-up job: digest (last set-up)
    traced_setup: list     # per set-up job: layer_trace answer
    traced: list           # per timed job: layer_trace answer per pass


def measure(build, workload, seed, seconds, size, work, checker,
            trace_out=None):
    """Set up and time one workload. With @p trace_out, each untraced
    job is followed by the same job under layer_trace (its own work dir
    and set-up), so both see the same host conditions."""
    plan = make_plan(workload, seed, size)
    setups = []
    setup_digests = []
    for k in range(1 if trace_out else size.setups):
        took = set_up(plan, work)
        digests = []
        for i, job in enumerate(plan.setup_jobs):
            s = run_job(build, job, work, checker,
                        f"{workload} set-up {k} job {i}")
            took += s.wall
            digests.append(s.doc and digest(s.doc))
        if setup_digests and digests != setup_digests:
            checker.fail(f"{workload}: set-up {k} results differ from "
                         "set-up 0")
        setup_digests = digests
        setups.append(took)

    samples = [[] for _ in plan.jobs]
    traced = [[] for _ in plan.jobs]
    traced_setup = []
    passes = 0
    tracer = None
    if trace_out:
        set_up(plan, work / "traced")
        tracer = LayerTrace(build, work / "traced", trace_out)
    with tracer or contextlib.nullcontext():
        if tracer:
            traced_setup = [tracer.run(job, True) for job in plan.setup_jobs]
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for j, job in enumerate(plan.jobs):
                samples[j].append(run_job(
                    build, job, work, checker,
                    f"{workload} pass {passes} job {j}"))
                if tracer:
                    traced[j].append(tracer.run(job, passes == 0))
            passes += 1
            now = time.perf_counter()
            if (passes >= size.min_passes
                    and now + (now - pass_start) > start + seconds):
                break

    # Determinism: every repeat of a job (and the warm-up, which is
    # job 0 run untimed) yields the same simulated results.
    digests = []
    for j, runs in enumerate(samples):
        ds = [s.doc and digest(s.doc) for s in runs]
        if j == 0:
            ds.append(setup_digests[-1])
        ref = ds[0]
        for d in ds[1:]:
            if d != ref:
                checker.fail(f"{workload} job {j}: results differ between "
                             "repeats")
        digests.append(ref)

    # Warm equals cold: each sweep-warm job matches the cold set-up run
    # of its grid.
    cold = {tuple(job.args): d for job, d in
            zip(plan.setup_jobs, setup_digests) if job.cold}
    for j, job in enumerate(plan.jobs):
        if tuple(job.args) in cold and cold[tuple(job.args)] != digests[j]:
            checker.fail(f"{workload} job {j}: warm results differ from "
                         "the cold run")
    return Measured(plan, setups, passes, samples, digests, setup_digests,
                    traced_setup, traced)


def quartile3(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 \
        else values[0]


def end_to_end_metrics(m):
    walls = [statistics.median(s.wall for s in runs) for runs in m.samples]
    cpus = [statistics.median(s.cpu for s in runs) for runs in m.samples]
    work = sum(lane_branches(runs[0].doc) for runs in m.samples
               if runs[0].doc is not None)
    return {
        "wall_p50_s": statistics.median(walls),
        "wall_p75_s": quartile3(walls),
        "cpu_p50_s": statistics.median(cpus),
        "lane_branches_per_s": work / sum(walls),
        "peak_rss_mb": max(s.rss_kib for runs in m.samples
                           for s in runs) / 1024,
        "setup_s": statistics.median(m.setups),
    }


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------

LAYER_FRACS = {
    "workloads.build": "workloads.build_frac",
    "harness.profile": "harness.profile_frac",
    "pipeline": "pipeline.self_frac",
    "artifact.load": "artifact.load_frac",
    "sweep.replay": "sweep.replay_frac",
    "synthetic.generate": "synthetic.generate_frac",
    "sampling.replay": "sampling.replay_frac",
    "harness.grid_parse": "harness.grid_parse_frac",
    "harness.json_out": "harness.json_out_frac",
}
CACHE_COUNTS = ("program_hits", "program_misses", "profile_hits",
                "profile_misses", "recorded_hits", "recorded_misses",
                "decoded_hits", "decoded_misses")
MIB = 1 << 20


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(m, workload, checker):
    """Per-layer metrics from the layer_trace answers of a measure()."""
    setup, timed = m.traced_setup, m.traced
    # Traced results must equal the untraced run's, job for job.
    for i, (l, d) in enumerate(zip(setup, m.setup_digests)):
        checker.invocation(digest(l["doc"]) == d,
                           f"{workload} traced set-up job {i}: results "
                           "differ from the CLI's")
    for j, runs in enumerate(timed):
        first = runs[0]
        checker.invocation(
            digest(first["doc"]) == m.digests[j]
            and all(r["doc_hash"] == first["doc_hash"] for r in runs),
            f"{workload} traced job {j}: results differ from the CLI's")

    # Each job contributes its median-time pass, so shares add up.
    chosen = [sorted(runs, key=lambda r: r["job_s"])[(len(runs) - 1) // 2]
              for runs in timed]
    total = sum(r["job_s"] for r in chosen)
    self_s = {layer: sum(r["self_s"][layer] for r in chosen)
              for layer in chosen[0]["self_s"]}

    def count(key, rows=None):
        return sum(r["counts"].get(key, 0)
                   for r in (chosen if rows is None else rows))

    untraced = sum(statistics.median(s.wall for s in runs)
                   for runs in m.samples)
    setup_total = sum(l["job_s"] for l in setup)
    sweeps = [r for r, job in zip(chosen, m.plan.jobs)
              if job.args[0] == "--sweep"]
    metrics = {
        "job.traced_s": total,
        "job.other_frac": ratio(total - sum(self_s.values()), total),
        "trace.overhead_frac": ratio(total - untraced, untraced),
        "pipeline.insts_per_s": ratio(count("sim_insts"),
                                      self_s["pipeline"]),
        "pipeline.sim_insts": count("sim_insts"),
        "pipeline.sim_cycles": count("sim_cycles"),
        "pipeline.useful_frac": ratio(count("committed_insts"),
                                      count("sim_insts")),
        "pipeline.gated_cycles": count("gated_cycles"),
        "pipeline.forked_branches": count("forked_branches"),
        "artifact.load_mb": count("artifact_load_bytes") / MIB,
        "artifact.load_mb_per_s": ratio(count("artifact_load_bytes") / MIB,
                                        self_s["artifact.load"]),
        "artifact.hits": count("artifact_hits"),
        "artifact.misses": count("artifact_misses"),
        "artifact.corrupt": count("artifact_corrupt"),
        "sweep.lane_branches": count("lane_branches", sweeps),
        "sweep.lane_branches_per_s": ratio(count("lane_branches", sweeps),
                                           self_s["sweep.replay"]),
        "synthetic.branches": count("synthetic_branches"),
        "synthetic.branches_per_s": ratio(count("synthetic_branches"),
                                          self_s["synthetic.generate"]),
        "sampling.ops_detailed": count("ops_detailed"),
        "sampling.ops_warmup": count("ops_warmup"),
        "sampling.coverage": ratio(count("ops_detailed"),
                                   count("ops_total")),
        "setup.traced_s": setup_total,
        "setup.record_frac": ratio(
            sum(l["self_s"]["harness.record"] for l in setup), setup_total),
        "setup.decode_store_frac": ratio(
            sum(l["self_s"]["harness.decode_store"] for l in setup),
            setup_total),
        "trace.encoded_mb": count("encoded_bytes", setup) / MIB,
        "trace.bytes_per_branch": ratio(count("encoded_bytes", setup),
                                        count("trace_branches", setup)),
        "harness.json_mb": count("json_bytes") / MIB,
    }
    for layer, name in LAYER_FRACS.items():
        metrics[name] = ratio(self_s[layer], total)
    for key in CACHE_COUNTS:
        metrics[f"experiment_cache.{key}"] = sum(
            r["counts"]["cache"][key] for r in chosen)
    return metrics


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def context(build, confsim, seed, seconds, work_root):
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or None
    grid = work_root / "dry-run-grid.json"
    grid.write_text(json.dumps({"estimators": [{"estimator": "jrs"}]}))
    plan = subprocess.run([str(confsim), "--sweep", str(grid), "--dry-run"],
                          capture_output=True, text=True).stdout
    tier = next((l.split(":", 1)[1].strip() for l in plan.splitlines()
                 if "kernel dispatch:" in l), None)
    return {"git_rev": rev, "build_type": build_type(build),
            "kernel_tier": tier, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "seed": seed,
            "seconds": seconds}


def run_workload(build, workload, args, trace, size, work_root, units):
    checker = Checker()
    work = work_root / workload
    trace_out = (work_root.parent / "e2e-traces"
                 / f"{workload}-seed{args.seed}.json") if trace else None
    m = measure(build, workload, args.seed, args.seconds, size, work,
                checker, trace_out)
    if args.seed == 1 and size == FULL and not args.record_expected:
        expected = json.loads((EXPECTED_DIR / "seed-1.json").read_text())
        if expected.get(workload) != {"setup": m.setup_digests,
                                      "jobs": m.digests}:
            checker.fail(f"{workload}: results differ from "
                         "expected/seed-1.json")
    if trace_out:
        metrics = layer_metrics(m, workload, checker)
        print(f"trace written to {trace_out}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(m)
    shutil.rmtree(work, ignore_errors=True)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    return m, checker, {name: {"value": v, "unit": units[name]}
                        for name, v in metrics.items()}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per workload (default: "
                        "BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", help="existing Release or RelWithDebInfo "
                                   "build of bench/e2e")
    p.add_argument("--out", help="write the result file here")
    p.add_argument("--smoke", action="store_true",
                   help="1 job per workload at scale 1, untraced and "
                        "traced; checks metric names and results")
    p.add_argument("--record-expected", action="store_true",
                   help="write expected/seed-N.json from this run")
    return p.parse_args()


def main():
    args = parse_args()
    spec, units = load_benchmark()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    size = SMOKE if args.smoke else FULL
    if args.smoke and args.record_expected:
        raise BenchError("--record-expected needs the full job sizes")
    build = ensure_build(args.build, args.trace or args.smoke)
    # Run every job on one CPU, the last one allowed: no migrations, and
    # not CPU 0, which serves most device interrupts on Linux.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = build / "e2e-work"
    work_root.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ctx = context(build, build / "tools" / "confsim", args.seed,
                  args.seconds, work_root)

    results = {}
    expected = {}
    for workload in workloads:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            m, checker, metrics = run_workload(build, workload, args, trace,
                                               size, work_root, units)
            expected[workload] = {"setup": m.setup_digests,
                                  "jobs": m.digests}
            entry = results.setdefault(workload, {
                "correct": True, "attempted": 0, "failed": 0,
                "passes": m.passes, "metrics": {}, "errors": []})
            entry["attempted"] += checker.attempted
            entry["failed"] += checker.failed
            entry["correct"] = entry["failed"] == 0
            entry["errors"] += checker.errors
            entry["metrics"].update(metrics)
            for name, v in metrics.items():
                print(f"{workload} {name} {v['value']:.6g} {v['unit']}")

    if args.smoke:
        names = {n for r in results.values() for n in r["metrics"]}
        missing = set(units) - names
        if missing:
            raise BenchError(f"BENCHMARK.json metrics never printed: "
                             f"{sorted(missing)}")
    if args.record_expected:
        EXPECTED_DIR.mkdir(exist_ok=True)
        path = EXPECTED_DIR / f"seed-{args.seed}.json"
        if path.exists():
            expected = {**json.loads(path.read_text()), **expected}
        path.write_text(json.dumps(expected, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"context": ctx, "workloads": results}, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(workloads) == 1 and not args.smoke:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}/{n}": v for w, r in results.items()
                   for n, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def on_sigterm(signum, frame):
    # Unwind, so the job in flight is killed before the runner exits.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
