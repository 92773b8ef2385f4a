"""Benchmark the imaxcal command line on seeded workloads, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload fit-k100 --seed 1 --seconds 10 --trace 0

Each CLI command runs as a fresh ``python -m imaxcal.cli`` child, one at a
time, with the BLAS/OpenMP thread counts pinned to 1. Inputs come from
``--seed`` and are written before timing starts. The workload's command
sequence is repeated until ``--seconds`` have passed (at least once), every
output is checked, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` they are the per-layer ones: the same commands are also
replayed in one process through ``imaxcal.cli.main`` with every layer
boundary wrapped (see tracer.py), and span self times are summed per layer.
``--smoke`` shrinks every shape, for the package's own test.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("fit-k100", "eval-k10", "mi-binary")
SHAPES = {
    "fit-k100": {"k": 100, "n_cal": 20_000, "n_test": 20_000, "bootstrap": 0},
    "eval-k10": {"k": 10, "n_cal": 20_000, "n_test": 200_000, "bootstrap": 20},
    "mi-binary": {"n": 100_000},
}
SMOKE_SHAPES = {
    "fit-k100": {"k": 12, "n_cal": 400, "n_test": 400, "bootstrap": 0},
    "eval-k10": {"k": 4, "n_cal": 400, "n_test": 1_000, "bootstrap": 2},
    "mi-binary": {"n": 20_000},
}
T_GEN = 0.5
N_BINS = 15
MI_BINS = "2,4,8,16"
# The fit's default iteration cap; the CLI has no flag for it.
DEFAULT_MAX_ITER = 200

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 4
IMPORTTIME_REPEATS = 3
# Children still running this long after the start are killed, so a run
# always ends inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fit_s": "s",
    "apply_s": "s",
    "eval_s": "s",
    "mi_report_s": "s",
    "error_rate": "fraction",
    "heldout_top1_ece": "1",
    "mi_bound_err_nats": "nats",
    "cli.read_csv_s": "s",
    "cli.read_csv_mb": "MB",
    "cli.write_csv_s": "s",
    "cli.write_csv_mb": "MB",
    "cli.self_s": "s",
    "data.softmax_s": "s",
    "data.softmax_calls": "count",
    "data.decompose_s": "s",
    "binning.seed_s": "s",
    "binning.alternate_s": "s",
    "binning.alternate_calls": "count",
    "binning.iterations": "count",
    "binning.fits_at_cap": "count",
    "binning.alternate_msamples_per_s": "M/s",
    "binning.empty_bin_events": "count",
    "binning.fit_imax_self_s": "s",
    "binning.representatives_s": "s",
    "bundle.apply_bundle_s": "s",
    "metrics.ranked_classes_s": "s",
    "metrics.rows_ranked_per_row": "ratio",
    "metrics.cw_ece_s": "s",
    "metrics.top1_ece_self_s": "s",
    "metrics.build_report_self_s": "s",
    "metrics.bootstrap_s": "s",
    "info.kde_density_s": "s",
    "info.mi_bound_s": "s",
    "info.mi_of_quantizer_s": "s",
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "setup.scipy_import_s": "s",
    "setup.imaxcal_import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# Per-layer self times: metric -> span names summed (span names: tracer.py).
SELF_TIMES = {
    "cli.read_csv_s": ("cli.read_csv",),
    "cli.write_csv_s": ("cli.write_csv",),
    "data.softmax_s": ("data.softmax",),
    "data.decompose_s": ("data.ovr_decompose", "data.merge_sets"),
    "binning.seed_s": ("binning.seed",),
    "binning.alternate_s": ("binning.alternate",),
    "binning.fit_imax_self_s": ("binning.fit_imax",),
    "binning.representatives_s": ("binning.representatives",),
    "bundle.apply_bundle_s": ("bundle.apply_bundle",),
    "metrics.ranked_classes_s": ("metrics.ranked_classes",),
    "metrics.cw_ece_s": ("metrics.cw_ece",),
    "metrics.top1_ece_self_s": ("metrics.top1_ece",),
    "metrics.build_report_self_s": ("metrics.build_report",),
    "info.kde_density_s": ("info.kde_density",),
    "info.mi_bound_s": ("info.mi_bound",),
    "info.mi_of_quantizer_s": ("info.mi_of_quantizer",),
}
COMMAND_METRICS = {"fit": "fit_s", "apply": "apply_s", "eval": "eval_s", "mi-report": "mi_report_s"}


class Run:
    """One benchmark run: its work directory, clock, children and tallies."""

    def __init__(self, root, workload, seed, smoke):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
        self.started = time.perf_counter()
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ, **THREAD_PINS)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        self.attempted = 0
        self.failed = 0
        self.bundle_bytes = None
        self.children = 0

    def note(self, problems, what):
        """Count one attempted check; report and count it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}")

    def child(self, argv):
        """Run argv to completion; returns rc, wall, cpu, peak RSS and output."""
        self.children += 1
        base = os.path.join(self.work, f"child-{self.children}")
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.time_left(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(base + ".out", errors="replace") as fh:
            stdout = fh.read()
        with open(base + ".err", errors="replace") as fh:
            stderr = fh.read()
        return {
            "rc": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout,
            "stderr": stderr,
        }

    def time_left(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.started)


def prepare(run):
    """Write the workload's inputs; returns what the checks need to know."""
    rng = np.random.default_rng(run.seed)
    path = lambda name: os.path.join(run.work, name)
    if run.workload == "mi-binary":
        scores, labels = gen.binary_mixture(rng, run.shape["n"])
        gen.write_scores(path("scores.csv"), scores)
        gen.write_labels(path("labels.csv"), labels)
        return {"mi_nats": gen.mixture_mi_nats()}
    n_cal = run.shape["n_cal"]
    scores, labels = gen.multiclass(rng, n_cal + run.shape["n_test"], run.shape["k"], T_GEN)
    gen.write_scores(path("cal-scores.csv"), scores[:n_cal])
    gen.write_labels(path("cal-labels.csv"), labels[:n_cal])
    gen.write_scores(path("test-scores.csv"), scores[n_cal:])
    gen.write_labels(path("test-labels.csv"), labels[n_cal:])
    return {"test_scores": scores[n_cal:], "test_labels": labels[n_cal:]}


def command_plan(run, out):
    """The workload's CLI commands, reading inputs from run.work, writing into out."""
    inp = lambda name: os.path.join(run.work, name)
    res = lambda name: os.path.join(out, name)
    if run.workload == "mi-binary":
        return [["mi-report", inp("scores.csv"), inp("labels.csv"), "--bins", MI_BINS,
                 "-o", res("mi.csv")]]
    fit = ["fit", inp("cal-scores.csv"), inp("cal-labels.csv"), "-o", res("b.json"),
           "--method", "imax", "--strategy", "scw", "--bins", str(N_BINS), "--seed", "0"]
    evaluate = ["eval", inp("test-scores.csv"), inp("test-labels.csv"), "--bundle",
                res("b.json"), "-o", res("r.json")]
    bootstrap = run.shape["bootstrap"]
    if bootstrap:
        evaluate += ["--bootstrap", str(bootstrap)]
    if run.workload == "fit-k100":
        return [fit, evaluate]
    return [fit, ["apply", res("b.json"), inp("test-scores.csv"), "-o", res("cal.csv")], evaluate]


def source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, src).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def check_refit(run, text):
    """A bundle must match, byte for byte, every earlier fit of the same inputs
    by the same source: within this run, and across runs through a digest
    kept under .perfbench_work/refit."""
    if run.bundle_bytes is None:
        run.bundle_bytes = text
        key = "{}-{}-{}-{}".format(run.workload, run.seed, "smoke" if run.smoke else "full",
                                   source_digest(run.root)[:16])
        store = os.path.join(run.root, ".perfbench_work", "refit", key + ".sha256")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if os.path.exists(store):
            with open(store) as fh:
                if fh.read().strip() != digest:
                    return ["bundle differs from an earlier run with the same seed"]
        else:
            os.makedirs(os.path.dirname(store), exist_ok=True)
            with open(store, "w") as fh:
                fh.write(digest + "\n")
        return []
    if text != run.bundle_bytes:
        return ["bundle differs from the first fit of this run"]
    return []


def check_outputs(run, inputs, out, results):
    """Check one replay of the plan; returns the quality figures it read."""
    for argv, res in zip(command_plan(run, out), results):
        problems = []
        if res["rc"] != 0:
            problems.append(f"exit code {res['rc']}")
        if "Traceback" in res["stderr"]:
            problems.append("traceback on stderr")
        run.note(problems, argv[0])
    quality = {}
    if run.workload == "mi-binary":
        bound, problems = checks.check_mi_report(os.path.join(out, "mi.csv"), inputs["mi_nats"])
        run.note(problems, "mi-report output")
        if bound is not None:
            quality["mi_bound_err_nats"] = abs(bound - inputs["mi_nats"])
        return quality

    k = run.shape["k"]
    try:
        with open(os.path.join(out, "b.json")) as fh:
            text = fh.read()
    except OSError as exc:
        run.note([f"bundle unreadable: {exc!r}"], "fit output")
        bundle = None
    else:
        bundle, problems = checks.check_bundle(text, k, N_BINS)
        run.note(problems, "fit output")
        run.note(check_refit(run, text), "refit determinism")
    if bundle is not None:
        quality["bundle_iterations"] = [c["binner"]["iterations"] for c in bundle["calibrators"]]
    if run.workload == "eval-k10":
        problems = checks.check_calibrated(os.path.join(out, "cal.csv"), bundle, inputs["test_scores"])
        run.note(problems, "apply output")
    ece, problems = checks.check_report(os.path.join(out, "r.json"), bundle,
                                        inputs["test_scores"], inputs["test_labels"])
    run.note(problems, "eval output")
    if ece is not None:
        quality["heldout_top1_ece"] = ece
    return quality


def measure_untraced(run, inputs, seconds):
    """Replay the plan in fresh children until `seconds` have passed (at least
    once, and never past the run's time limit)."""
    reps = []
    measure_start = time.perf_counter()
    while True:
        out = os.path.join(run.work, f"rep-{len(reps)}")
        os.makedirs(out)
        plan = command_plan(run, out)
        started = time.perf_counter()
        results = [run.child([sys.executable, "-m", "imaxcal.cli", *argv]) for argv in plan]
        wall = time.perf_counter() - started
        quality = check_outputs(run, inputs, out, results)
        reps.append({"wall": wall, "results": results, "quality": quality})
        print(f"rep {len(reps)}: pipeline {wall:.3f} s = "
              + " + ".join(f"{argv[0]} {r['wall']:.3f}" for argv, r in zip(plan, results)))
        elapsed = time.perf_counter() - measure_start
        if elapsed >= seconds or run.time_left() < 2.0 * elapsed / len(reps):
            return reps


def setup_samples(run, repeats):
    """Wall times of fresh interpreters importing the CLI."""
    probe = [sys.executable, "-c", "import imaxcal.cli"]
    walls = []
    for _ in range(repeats):
        res = run.child(probe)
        run.note(["import failed"] if res["rc"] else [], "import imaxcal.cli")
        walls.append(res["wall"])
    return walls


def import_self_times(run):
    """Median self time of the scipy and imaxcal modules under -X importtime."""
    totals = {"scipy": [], "imaxcal": []}
    for _ in range(IMPORTTIME_REPEATS):
        res = run.child([sys.executable, "-X", "importtime", "-c", "import imaxcal.cli"])
        sums = dict.fromkeys(totals, 0.0)
        for line in res["stderr"].splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line.split(":", 1)[1].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += float(self_us) / 1e6
        for top in totals:
            totals[top].append(sums[top])
    return {f"setup.{top}_import_s": statistics.median(v) for top, v in totals.items()}


def environment(run):
    """What the numbers depend on, printed next to them."""
    probe = "import imaxcal, imaxcal.cli; print(getattr(imaxcal, 'BACKEND', 'absent'))"
    res = run.child([sys.executable, "-c", probe])
    env = {
        "git_sha": "absent",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "l3": "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": "absent",
        "backend": res["stdout"].strip() if res["rc"] == 0 else "import failed",
        "threads": THREAD_PINS,
    }
    try:
        from importlib.metadata import version

        env["scipy"] = version("scipy")
    except ImportError:
        pass
    head = os.path.join(run.root, ".git", "HEAD")
    if os.path.exists(head):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True, text=True)
        env["git_sha"] = sha.stdout.strip() or "absent"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        env["cpu_model"] = models[0] if models else "unknown"
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            env["l3"] = fh.read().strip()
    except OSError:
        pass
    return env


def span_tree(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, cmd, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_) in enumerate(spans)], child


def layer_metrics(trace, bundle_iterations):
    """Per-layer figures from one traced replay."""
    spans = trace["spans"]
    self_time, child_time = span_tree(spans)
    by_name, calls = {}, {}
    for (name, *_), st in zip(spans, self_time):
        by_name[name] = by_name.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
    m = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SELF_TIMES.items()}

    def counted(name, key):
        return [s[5][key] for s in spans if s[0] == name and key in s[5]]

    m["cli.read_csv_mb"] = sum(counted("cli.read_csv", "bytes")) / 1e6
    m["cli.write_csv_mb"] = sum(counted("cli.write_csv", "bytes")) / 1e6
    m["data.softmax_calls"] = calls.get("data.softmax", 0)
    m["binning.alternate_calls"] = calls.get("binning.alternate", 0)
    iterations = counted("binning.alternate", "iterations")
    caps = counted("binning.alternate", "max_iter")
    sizes = counted("binning.alternate", "n")
    if len(iterations) == len(caps) == len(sizes) == calls.get("binning.alternate", -1):
        m["binning.iterations"] = sum(iterations)
        m["binning.fits_at_cap"] = sum(i >= c for i, c in zip(iterations, caps))
        work = sum(i * n for i, n in zip(iterations, sizes))
        alt = m["binning.alternate_s"]
        m["binning.alternate_msamples_per_s"] = work / alt / 1e6 if alt > 0 else 0.0
    else:
        # The kernel boundary is gone: fall back on the bundle's own record.
        m["binning.iterations"] = sum(bundle_iterations)
        m["binning.fits_at_cap"] = sum(i >= DEFAULT_MAX_ITER for i in bundle_iterations)
        m["binning.alternate_msamples_per_s"] = 0.0
    m["binning.empty_bin_events"] = sum(counted("binning.alternate", "empty_bin_events"))
    eval_rows = sum(counted("metrics.build_report", "rows"))
    ranked = sum(counted("metrics.ranked_classes", "rows"))
    m["metrics.rows_ranked_per_row"] = ranked / eval_rows if eval_rows else 0.0

    # The bootstrap is the part of build_report after its first pass of
    # metric calls (top-k accuracies, top-1 ECE, one cw_ece per threshold).
    bootstrap = 0.0
    for i, (name, start, end, parent, cmd, counts) in enumerate(spans):
        if name != "metrics.build_report" or not counts.get("bootstrap"):
            continue
        kids = sorted((s[1], s[2]) for s in spans if s[3] == i)
        if len(kids) > counts["first_pass"]:
            bootstrap += end - kids[counts["first_pass"] - 1][1]
    m["metrics.bootstrap_s"] = bootstrap

    commands = []
    for i, (name, start, end, parent, cmd, counts) in enumerate(spans):
        if parent < 0:
            layers = {}
            for (n, *_, c, _), st in zip(spans, self_time):
                if c == cmd and n != name:
                    layers[n] = layers.get(n, 0.0) + st
            commands.append({
                "command": name,
                "wall": end - start,
                "coverage": child_time[i] / (end - start),
                "self": end - start - child_time[i],
                "top": sorted(layers.items(), key=lambda kv: -kv[1])[:4],
            })
    m["cli.self_s"] = sum(c["self"] for c in commands)
    m["trace.coverage"] = min(c["coverage"] for c in commands)
    return m, commands


def traced_replay(run, inputs):
    """Replay the plan in one traced process and check its outputs; returns
    the spans, or None if the replay wrote none."""
    out = os.path.join(run.work, "traced")
    os.makedirs(out)
    plan = command_plan(run, out)
    plan_path = os.path.join(run.work, "plan.json")
    spans_path = os.path.join(run.work, "spans.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    res = run.child([sys.executable, os.path.join(HERE, "tracer.py"),
                     os.path.join(run.root, "src"), plan_path, spans_path])
    try:
        with open(spans_path) as fh:
            trace = json.load(fh)
    except (OSError, ValueError):
        run.note([f"traced replay wrote no spans (exit code {res['rc']})"], "traced replay")
        return None
    check_outputs(run, inputs, out, [{"rc": c["rc"], "stderr": res["stderr"]} for c in trace["commands"]])
    return trace


def end_to_end_metrics(run, inputs, seconds):
    # Set-up is sampled on both sides of the measured commands, so that its
    # median spans the run rather than one moment of it.
    repeats = 2 if run.smoke else SETUP_REPEATS
    setup = setup_samples(run, repeats // 2)
    reps = measure_untraced(run, inputs, seconds)
    setup += setup_samples(run, repeats - len(setup))
    return {
        "pipeline_s": statistics.median(r["wall"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(res["rss_mb"] for r in reps for res in r["results"]),
    }


def per_layer_metrics(run, inputs, seconds):
    reps = measure_untraced(run, inputs, seconds)
    metrics = import_self_times(run)
    names = [argv[0] for argv in command_plan(run, run.work)]
    for command, metric in COMMAND_METRICS.items():
        if command in names:
            metrics[metric] = statistics.median(r["results"][names.index(command)]["wall"] for r in reps)
    metrics["proc.cpu_s"] = statistics.median(sum(x["cpu"] for x in r["results"]) for r in reps)
    metrics["proc.wait_s"] = statistics.median(
        sum(x["wall"] - x["cpu"] for x in r["results"]) for r in reps)
    first = reps[0]["quality"]
    for name in ("heldout_top1_ece", "mi_bound_err_nats"):
        if name in first:
            metrics[name] = first[name]

    trace = traced_replay(run, inputs)
    if trace is not None:
        layers, commands = layer_metrics(trace, first.get("bundle_iterations", []))
        metrics.update(layers)
        pipeline = statistics.median(r["wall"] for r in reps)
        metrics["trace.overhead_s"] = sum(c["wall"] for c in commands) - pipeline
        for c in commands:
            top = ", ".join(f"{n} {t:.3f}" for n, t in c["top"])
            print(f"traced {c['command']}: {c['wall']:.3f} s, coverage {c['coverage']:.3f}; "
                  f"top self times: {top}")
        if trace["absent"]:
            print("absent boundaries: " + ", ".join(trace["absent"]))
    metrics["error_rate"] = run.failed / max(run.attempted, 1)
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        print("not measured on this workload (reported as 0): " + ", ".join(missing))
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def run_benchmark(root, workload, seed, seconds, trace, smoke):
    """Returns the result object whose JSON is the run's last stdout line."""
    run = Run(root, workload, seed, smoke)
    os.makedirs(run.work)
    try:
        inputs = prepare(run)
        print("env " + json.dumps(environment(run), sort_keys=True))
        if trace:
            metrics, units = per_layer_metrics(run, inputs, seconds), PER_LAYER
        else:
            metrics, units = end_to_end_metrics(run, inputs, seconds), END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the imaxcal CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced shapes, for the self-test")
    opts = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "imaxcal", "cli.py")):
        print("perfbench: run from the root of an imaxcal checkout (no src/imaxcal/cli.py here)",
              file=sys.stderr)
        return 2
    result = run_benchmark(root, opts.workload, opts.seed, opts.seconds, opts.trace, opts.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
