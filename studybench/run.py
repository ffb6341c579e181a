#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of uavf1 study runs.

Builds the library, the skyline CLI and the benchmark's own driver
(studybench/driver.cc) from the checkout, then runs one workload in
fresh child processes, one at a time (a closed loop), and checks
every run's outputs against studybench/references.json.

    python3 studybench/run.py --workload faults_mixed --seed 1 \\
        --seconds 40 --trace 0
    python3 studybench/run.py --report [--seed 1] [--seconds 20]
    python3 studybench/run.py --smoke
    python3 studybench/run.py --record-references

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of the traced replay. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Result and provenance files are written beside each other under
.bench_build/results/. See studybench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
RUNS = BUILD / "runs"
RESULTS = BUILD / "results"
REFERENCES = BENCH / "references.json"
CLI = BUILD / "uavf1" / "example_skyline_cli"
DRIVER = BUILD / "studybench"

# --seed n selects input slot n % SEED_SLOTS; references.json holds
# the expected outputs of every slot.
SEED_SLOTS = 8
WARMUP_S = 3.0
CHILD_TIMEOUT_S = 30.0
MEAN_REL_TOL = 1e-9

WORKLOADS = {
    "faults_mixed": {"kind": "faults", "samples": 2_000_000,
                     "levels": 9,
                     "setup": {"samples": 10, "levels": 2}},
    "mc_pipeline": {"kind": "mc", "samples": 2_000_000,
                    "setup": {"samples": 10}},
    "roofline_hires": {"kind": "roofline", "samples": 50_000,
                       "setup": {"samples": 97}},
}

# Layers each workload's run goes through, and the replayed spans
# that make up each layer's time; <layer>.share is that time over
# the base span. Layers not listed are off the workload's path:
# their replays run at setup size and their share is 0.
BASE_SPAN = {"faults": "scenario.run", "mc": "sim.mc_run",
             "roofline": "scenario.run"}
ON_PATH = {
    "faults": {
        "skyline": ["skyline.session"],
        "fault": ["fault.construct", "fault.run", "fault.curve"],
        "sim": ["sim.reduce"],
        "support": ["support.rng", "support.write"],
        "plot": ["plot.artifacts"],
        "platform": ["platform.plan_compile"],
        "core": ["core.kernel"],
        "exec": ["exec.dispatch"],
    },
    "mc": {
        "sim": ["sim.reduce"],
        "support": ["support.rng"],
        "workload": ["workload.plan_compile", "workload.kernel"],
        "platform": ["platform.plan_compile", "platform.kernel"],
        "core": ["core.kernel"],
        "exec": ["exec.dispatch"],
    },
    "roofline": {
        "support": ["support.write"],
        "plot": ["plot.artifacts"],
    },
}
SHARE_LAYERS = ["skyline", "fault", "sim", "workload", "platform",
                "core", "exec", "support", "plot"]


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        raise BenchError("no uavf1 source tree beside studybench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "-j", str(nproc()),
                   "--target", "studybench", "example_skyline_cli"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode:
        raise BenchError("build failed")


# ------------------------------------------------------------ inputs

def inputs(seed):
    """The program inputs --seed generates: a seed slot, the sampler
    seed and the roofline chart's upper AI bound."""
    slot = seed % SEED_SLOTS
    return {"slot": slot, "program_seed": 1000 + slot,
            "ai_max": 500 + 100 * slot}


def command(workload, inp, threads, out_dir, setup=False):
    spec = WORKLOADS[workload]
    size = spec["setup"] if setup else spec
    if spec["kind"] == "faults":
        return [str(CLI), "run", "faults", "--set", "fault=mixed",
                "--set", f"samples={size['samples']}",
                "--set", f"levels={size['levels']}",
                "--set", f"seed={inp['program_seed']}",
                "--threads", str(threads), "--out", str(out_dir)]
    if spec["kind"] == "roofline":
        return [str(CLI), "run", "roofline",
                "--set", "workloads=annotated",
                "--set", f"samples={size['samples']}",
                "--set", f"ai_max={inp['ai_max']}",
                "--threads", str(threads), "--out", str(out_dir)]
    return [str(DRIVER), "mc", "--samples", str(size["samples"]),
            "--seed", str(inp["program_seed"]),
            "--threads", str(threads)]


def trace_command(workload, inp, threads, out_dir):
    spec = WORKLOADS[workload]
    kind = spec["kind"]
    faults = spec if kind == "faults" else \
        WORKLOADS["faults_mixed"]["setup"]
    mc = spec if kind == "mc" else WORKLOADS["mc_pipeline"]["setup"]
    roof = spec if kind == "roofline" else \
        WORKLOADS["roofline_hires"]["setup"]
    return [str(DRIVER), "trace", "--primary", kind,
            "--threads", str(threads), "--out", str(out_dir),
            "--seed", str(inp["program_seed"]),
            "--ai-max", str(inp["ai_max"]),
            "--fault-samples", str(faults["samples"]),
            "--levels", str(faults["levels"]),
            "--mc-samples", str(mc["samples"]),
            "--roofline-samples", str(roof["samples"])]


# -------------------------------------------------------------- runs

class Run:
    """One child process: wall time on this process's monotonic
    clock from spawn to exit, rusage from wait4, and its outputs."""

    def __init__(self, argv, out_dir):
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        stdout_path = out_dir.parent / (out_dir.name + ".stdout")
        stderr_path = out_dir.parent / (out_dir.name + ".stderr")
        with open(stdout_path, "wb") as stdout, \
                open(stderr_path, "wb") as stderr:
            self.spawned = time.monotonic()
            child = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
            killed = threading.Event()

            def kill():
                killed.set()
                child.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            self.exited = time.monotonic()
            child.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"{argv[0]} ran over {CHILD_TIMEOUT_S} s")
        self.stderr = stderr_path.read_text(errors="replace")
        self.wall = self.exited - self.spawned
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.code = child.returncode
        self.stdout_path = stdout_path
        self.out_dir = out_dir

    def outputs(self, kind):
        """Paths of the run's results by name: the artifacts the CLI
        wrote, or the driver's printed UncertaintyResult. They are
        read from disk when checked and never held, so this process
        stays small (a child's ru_maxrss includes the RSS of the
        process that spawned it, at exec)."""
        if kind == "mc":
            return {"mc.json": self.stdout_path}
        return {p.name: p for p in self.out_dir.iterdir()}


def digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0")
        with open(outputs[name], "rb") as f:
            h.update(hashlib.file_digest(f, "sha256").digest())
    return h.hexdigest()


# ------------------------------------------------------------ checks

def summarize(kind, outputs):
    """The values a run is checked on: named numbers for the faults
    and Monte-Carlo workloads, the artifact digest for roofline."""
    if kind == "roofline":
        return {"digest": digest(outputs)}
    if kind == "mc":
        return json.loads(outputs["mc.json"].read_text())
    metrics = {m["name"]: m["value"] for m in
               json.loads(outputs["faults.json"].read_text())["metrics"]}
    curve = outputs["faults.csv"].read_text().splitlines()[1:]
    for index, row in enumerate(curve):
        series, x, y = row.rsplit(",", 2)
        metrics[f"curve[{index}].{series}.x"] = float(x)
        metrics[f"curve[{index}].{series}.y"] = float(y)
    return metrics


def tolerant(name):
    """Means and standard deviations may move by a reduction-order
    change; everything else (counts, order statistics, rates,
    probabilities) must match exactly."""
    return "mean" in name or "stddev" in name


def compare(reference, got):
    """Mismatches between a reference summary and a run's."""
    problems = []
    for name in sorted(set(reference) | set(got)):
        if name not in reference or name not in got:
            problems.append(f"{name}: present in only one side")
            continue
        want, have = reference[name], got[name]
        if isinstance(want, str) or not tolerant(name):
            ok = want == have
        else:
            ok = math.isclose(want, have, rel_tol=MEAN_REL_TOL,
                              abs_tol=0.0)
        if not ok:
            problems.append(f"{name}: expected {want!r}, got {have!r}")
    return problems


def self_check(reference):
    """The checker must pass the reference itself and flag a
    perturbed copy: one exact value moved by one ulp, one tolerant
    value moved by 1e-6 relative, or a changed digest."""
    if compare(reference, reference):
        return False
    perturbed = []
    if "digest" in reference:
        flipped = "0" if reference["digest"][0] != "0" else "1"
        perturbed.append({"digest": flipped + reference["digest"][1:]})
    else:
        exact = next(k for k in reference if not tolerant(k))
        loose = next(k for k in reference if tolerant(k))
        bumped = dict(reference)
        bumped[exact] = math.nextafter(reference[exact], math.inf)
        perturbed.append(bumped)
        bumped = dict(reference)
        bumped[loose] = reference[loose] * (1 + 1e-6) + 1e-300
        perturbed.append(bumped)
    return all(compare(reference, p) for p in perturbed)


def load_reference(workload, slot):
    if not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES.name}")
    return json.loads(REFERENCES.read_text())[workload][slot]


class Checker:
    """Checks each run: a zero exit, outputs equal to the reference
    for the seed slot, and bytes identical to the first run's (so
    1-thread and nproc-thread outputs are byte-identical)."""

    def __init__(self, workload, slot):
        self.kind = WORKLOADS[workload]["kind"]
        self.reference = load_reference(workload, slot)
        self.checked = {}  # digest -> mismatches
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check_outputs(self, outputs, compare_bytes=True):
        key = digest(outputs)
        if key not in self.checked:
            try:
                got = summarize(self.kind, outputs)
                self.checked[key] = compare(self.reference, got)
            except (KeyError, ValueError) as e:
                self.checked[key] = [f"unreadable output: {e!r}"]
        problems = list(self.checked[key])
        if compare_bytes:
            if self.first is None:
                self.first = key
            elif key != self.first:
                problems.append("output bytes differ from the first "
                                "run's")
        return problems

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems[:5]))
        return not problems

    def check_run(self, run, what):
        if run.code != 0:
            return self.record([f"exit code {run.code}: "
                                f"{run.stderr.strip()[-300:]}"], what)
        return self.record(self.check_outputs(run.outputs(self.kind)),
                           what)


# ----------------------------------------------------------- metrics

def tail(values):
    """(percentile, value) of the highest percentile with at least
    ten runs beyond it, or None with ten runs or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def timing(values, unit):
    entry = {"value": statistics.median(values), "unit": unit,
             "runs": len(values), "values": values}
    t = tail(values)
    if t:
        entry["tail_percentile"], entry["tail_value"] = t
    return entry


def warm_up(workload, inp, checker):
    """Run the workload at nproc threads, untimed, for WARMUP_S.
    On a VM, idle vCPUs wake slowly: a parallel run that follows
    idle time or single-threaded work runs almost serially for
    about two seconds, so timed parallel runs start warm."""
    out = RUNS / workload
    deadline = time.monotonic() + WARMUP_S
    while time.monotonic() < deadline:
        checker.check_run(Run(command(workload, inp, nproc(), out), out),
                          "warm-up run")


def measure_e2e(workload, inp, seconds, checker):
    """After the warm-up, cycles until --seconds have passed: one
    full run at nproc threads, two setup-size runs, one full run at
    one thread. Once warm, the vCPUs stay warm through the cycle."""
    threads = nproc()
    out = RUNS / workload
    warm_up(workload, inp, checker)
    runs = {threads: [], 1: []}
    setup = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(runs[1]) < 3:
        for t in (threads, 1):
            run = Run(command(workload, inp, t, out), out)
            checker.check_run(run, f"{t}-thread run {len(runs[t])}")
            runs[t].append(run)
            for _ in range(2 if t == threads else 0):
                run = Run(command(workload, inp, t, out, setup=True),
                          out)
                checker.record([] if run.code == 0 else
                               [f"exit code {run.code}"],
                               f"setup run {len(setup)}")
                setup.append(run.wall)
    full = runs[threads]
    return {
        "wall_s": timing([r.wall for r in full], "s"),
        "wall_1t_s": timing([r.wall for r in runs[1]], "s"),
        "cpu_s": timing([r.cpu for r in full], "s"),
        "peak_rss_mb": timing([r.rss_mb for r in full], "MiB"),
        "setup_s": timing(setup, "s"),
    }, {"threads": threads}


def layer_metrics(kind, spans, counts, child_wall, spawned,
                  untraced_wall):
    """Per-layer metrics of one traced child."""
    total = {}
    for span in spans:
        total[span["name"]] = total.get(span["name"], 0.0) + \
            span["end"] - span["start"]
    total["plot.artifacts"] = (total["scenario.run"] -
                               total["scenario.run_noartifacts"])
    m = {
        "scenario.run_s": (total["scenario.run"], "s"),
        "skyline.session_s": (total["skyline.session"], "s"),
        "fault.construct_s": (total["fault.construct"], "s"),
        "fault.run_s": (total["fault.run"], "s"),
        "fault.curve_s": (total["fault.curve"], "s"),
        "sim.mc_construct_s": (total["sim.mc_construct"], "s"),
        "sim.mc_run_s": (total["sim.mc_run"], "s"),
        "sim.reduce_s": (total["sim.reduce"], "s"),
        "sim.sample_buffer_mb":
            (counts["sim.sample_buffer_bytes"] / 2**20, "MiB"),
        "support.rng_s": (total["support.rng"], "s"),
        "support.write_s": (total["support.write"], "s"),
        "plot.artifacts_s": (total["plot.artifacts"], "s"),
        "plot.bytes": (counts["plot.bytes"], "bytes"),
        "workload.plan_compile_s":
            (total["workload.plan_compile"], "s"),
        "workload.kernel_ns_per_eval":
            (1e9 * total["workload.kernel"] /
             counts["workload.kernel_evals"], "ns"),
        "platform.plan_compile_s":
            (total["platform.plan_compile"], "s"),
        "platform.kernel_ns_per_eval":
            (1e9 * total["platform.kernel"] /
             counts["platform.kernel_evals"], "ns"),
        "core.kernel_ns_per_eval":
            (1e9 * total["core.kernel"] / counts["core.kernel_evals"],
             "ns"),
        "exec.dispatch_s": (total["exec.dispatch"], "s"),
    }
    base = total[BASE_SPAN[kind]]
    for layer in SHARE_LAYERS:
        spent = sum(total[s] for s in ON_PATH[kind].get(layer, []))
        m[f"{layer}.share"] = (spent / base, "ratio")
    primary_end = max(s["end"] for s in spans
                      if s["name"] == BASE_SPAN[kind])
    spanned = sum(s["end"] - s["start"] for s in spans)
    m["trace.coverage"] = (spanned / child_wall, "ratio")
    m["trace.overhead"] = ((primary_end - spawned) / untraced_wall - 1.0,
                           "ratio")
    for name in ("trace.samples", "core.kernel_blocks",
                 "support.draws", "exec.chunks"):
        m[name] = (counts[name], "count")
    return m


def measure_layers(workload, inp, seconds, checker):
    kind = WORKLOADS[workload]["kind"]
    threads = nproc()
    out = RUNS / workload
    warm_up(workload, inp, checker)
    reps = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not reps:
        plain = Run(command(workload, inp, threads, out), out)
        checker.check_run(plain, f"untraced run {len(reps)}")
        traced = Run(trace_command(workload, inp, threads, out), out)
        what = f"traced run {len(reps)}"
        if traced.code != 0:
            checker.record([f"exit code {traced.code}: "
                            f"{traced.stderr.strip()[-300:]}"], what)
            if not reps and checker.failed >= 3:
                raise BenchError(f"traced child failed: {traced.stderr}")
            continue
        doc = json.loads(traced.stdout_path.read_text())
        outputs = traced.outputs(kind)
        if kind == "mc":
            outputs = {"mc.json": out / "mc.json"}
            outputs["mc.json"].write_text(json.dumps(doc["mc"]))
        checker.record(checker.check_outputs(outputs,
                                             compare_bytes=False), what)
        reps.append(layer_metrics(kind, doc["spans"], doc["counts"],
                                  traced.wall, traced.spawned,
                                  plain.wall))
    metrics = {}
    for name, (_, unit) in reps[0].items():
        values = [rep[name][0] for rep in reps]
        metrics[name] = {"value": statistics.median(values),
                         "unit": unit, "runs": len(values),
                         "values": values}
    return metrics, {"threads": threads}


# -------------------------------------------------------- provenance

def cmake_cache(key):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("src/**/*")) + \
            [ROOT / "CMakeLists.txt", ROOT / "examples/skyline_cli.cpp",
             BENCH / "driver.cc", BENCH / "CMakeLists.txt"]:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, inp, loadavg, extra):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "HEAD"], capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"],
                             capture_output=True, text=True)
    info = json.loads(subprocess.run([str(DRIVER), "info"],
                                     capture_output=True,
                                     text=True).stdout)
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "march": cmake_cache("UAVF1_MARCH") or "toolchain default",
        "compiler": compiler,
        "compiler_version": version.stdout.splitlines()[0]
        if version.stdout else "",
        "simd_backend": info["simd_backend"],
        "simd_width": info["simd_width"],
        "simd_mode": info["simd_mode"],
        "threads": extra["threads"],
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inp,
        "trace": args.trace,
        "seconds": args.seconds,
        "uavf1_env": {k: v for k, v in os.environ.items()
                      if k.startswith("UAVF1_")},
        "loadavg_at_start": loadavg,
        "host": platform.machine(),
        "python": platform.python_version(),
    }


def write_results(args, result, prov):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    (RESULTS / f"{stem}.provenance.json").write_text(
        json.dumps(prov, indent=1))


# ------------------------------------------------------------- modes

def print_metrics(header, metrics):
    print(header)
    for name, m in metrics.items():
        line = f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6}" \
               f" median of {m['runs']}"
        if "tail_value" in m:
            line += (f"; p{m['tail_percentile']:.0f} "
                     f"{m['tail_value']:.6g}")
        print(line)


def run_workload(args):
    loadavg = os.getloadavg()
    inp = inputs(args.seed)
    checker = Checker(args.workload, inp["slot"])
    self_check_ok = self_check(checker.reference)
    if args.trace:
        metrics, extra = measure_layers(args.workload, inp,
                                        args.seconds, checker)
    else:
        metrics, extra = measure_e2e(args.workload, inp, args.seconds,
                                     checker)
    correct = self_check_ok and checker.failed == 0
    prov = provenance(args, inp, loadavg, extra)
    write_results(args, {"correct": correct,
                         "self_check": self_check_ok,
                         "attempted": checker.attempted,
                         "failed": checker.failed,
                         "failed_frac": checker.failed /
                         checker.attempted,
                         "problems": checker.problems,
                         "metrics": metrics}, prov)
    print_metrics(f"{args.workload} seed={args.seed} "
                  f"(slot {inp['slot']}) trace={args.trace} "
                  f"threads={extra['threads']}: failed_frac "
                  f"{checker.failed}/{checker.attempted}, "
                  f"self-check {'ok' if self_check_ok else 'FAILED'}",
                  metrics)
    for problem in checker.problems[:10]:
        print(f"  FAILED {problem}")
    return {"correct": correct, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}


def smoke():
    """Every workload at its setup_s size, at nproc and 1 thread;
    the two must exit 0 and produce identical bytes."""
    ok = True
    for workload, spec in WORKLOADS.items():
        inp = inputs(1)
        outs = []
        for threads in (nproc(), 1):
            run = Run(command(workload, inp, threads,
                              RUNS / workload, setup=True),
                      RUNS / workload)
            outs.append((run.code, digest(run.outputs(spec["kind"]))))
        good = outs[0][0] == 0 and outs[0] == outs[1]
        ok = ok and good
        print(f"smoke {workload}: {'ok' if good else 'FAILED'} {outs}")
    return ok


def record_references():
    refs = {}
    for workload, spec in WORKLOADS.items():
        refs[workload] = []
        for slot in range(SEED_SLOTS):
            inp = inputs(slot)
            got = []
            for threads in (nproc(), 1):
                run = Run(command(workload, inp, threads,
                                  RUNS / workload), RUNS / workload)
                if run.code != 0:
                    raise BenchError(f"{workload} slot {slot}: "
                                     f"{run.stderr}")
                got.append(summarize(spec["kind"],
                                     run.outputs(spec["kind"])))
            if got[0] != got[1]:
                raise BenchError(f"{workload} slot {slot}: 1-thread "
                                 "and nproc outputs differ")
            refs[workload].append(got[0])
            log(f"recorded {workload} slot {slot}")
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its setup size")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        if args.smoke:
            return 0 if smoke() else 1
        if args.record_references:
            record_references()
            return 0
        if args.report:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    args.workload, args.trace = workload, trace
                    ok = run_workload(args)["correct"] and ok
            return 0 if ok else 1
        if not args.workload:
            parser.error("--workload is required")
        result = run_workload(args)
    except BenchError as e:
        log(f"studybench: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
