"""Traced in-process replay of CLI commands.

Usage (run as its own process, from the directory the commands expect):

    python3 perfbench/tracer.py SRC_DIR PLAN.json SPANS.json

PLAN.json is a list of argv lists for ``imaxcal.cli.main``. Before the first
command, every module-level function at a layer boundary is wrapped, in
each ``imaxcal`` namespace that holds it, so that calls made through names
imported elsewhere are traced too. Each call records a span
``[name, start, end, parent, command, counts]``; spans stay in memory and
SPANS.json is written once, after the last command. A boundary that the
program no longer has is listed under ``absent`` instead of failing.
"""

import importlib
import json
import os
import sys
import time

# (defining module, attribute, span name). Spans are named after the layer
# the benchmark reports them in, which for mi_of_quantizer is info.
BOUNDARIES = [
    ("imaxcal.cli", "_read_matrix", "cli.read_csv"),
    ("imaxcal.cli", "_write_matrix", "cli.write_csv"),
    ("imaxcal.data", "softmax", "data.softmax"),
    ("imaxcal.data", "ovr_decompose", "data.ovr_decompose"),
    ("imaxcal.data", "merge_sets", "data.merge_sets"),
    ("imaxcal.binning", "fit_imax", "binning.fit_imax"),
    ("imaxcal.binning", "_seed_phis", "binning.seed"),
    ("imaxcal.kernels", "alternate", "binning.alternate"),
    ("imaxcal.binning", "set_representatives", "binning.representatives"),
    ("imaxcal.bundle", "fit_bundle", "bundle.fit_bundle"),
    ("imaxcal.bundle", "apply_bundle", "bundle.apply_bundle"),
    ("imaxcal.metrics", "ranked_classes", "metrics.ranked_classes"),
    ("imaxcal.metrics", "accuracy_topk", "metrics.accuracy_topk"),
    ("imaxcal.metrics", "top1_ece", "metrics.top1_ece"),
    ("imaxcal.metrics", "cw_ece", "metrics.cw_ece"),
    ("imaxcal.metrics", "build_report", "metrics.build_report"),
    ("imaxcal.info", "kde_density", "info.kde_density"),
    ("imaxcal.info", "mi_bound_of_set", "info.mi_bound"),
    ("imaxcal.metrics", "mi_of_quantizer", "info.mi_of_quantizer"),
]


def _counts_before(name, args):
    if name == "cli.read_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "binning.alternate":
        return {"n": len(args[0]), "max_iter": int(args[7])}
    if name == "metrics.ranked_classes":
        return {"rows": len(args[0])}
    if name == "metrics.build_report":
        cfg = args[2]
        first_pass = len(cfg.top_k) + 1 + len(cfg.cw_thresholds)
        return {"rows": len(args[0]), "first_pass": first_pass, "bootstrap": cfg.bootstrap}
    return {}


def _counts_after(name, args, result):
    if name == "cli.write_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "binning.alternate":
        return {"iterations": int(result[4]), "empty_bin_events": int(result[5])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = 0
        self.absent = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, self.command, {}]
            self.spans.append(span)
            self.stack.append(index)
            try:
                try:
                    span[5].update(_counts_before(name, args))
                except (IndexError, AttributeError, TypeError, ValueError, OSError):
                    pass
                result = fn(*args, **kwargs)
                try:
                    span[5].update(_counts_after(name, args, result))
                except (IndexError, AttributeError, TypeError, ValueError, OSError):
                    pass
                return result
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self):
        modules = []
        for module_name in sorted({"imaxcal", *(b[0] for b in BOUNDARIES)}):
            try:
                modules.append(importlib.import_module(module_name))
            except ImportError:
                pass
        for module_name, attr, name in BOUNDARIES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def run(self, plan):
        from imaxcal import cli

        commands = []
        for self.command, argv in enumerate(plan):
            root = len(self.spans)
            self.spans.append(["cmd." + argv[0], time.perf_counter(), None, -1, self.command, {}])
            self.stack.append(root)
            try:
                rc = cli.main(list(argv))
            except Exception as exc:  # report, then replay the next command
                print(f"traced command {argv[0]} raised {exc!r}", file=sys.stderr)
                rc = 1
            finally:
                self.spans[root][2] = time.perf_counter()
                self.stack.pop()
            commands.append({"argv": list(argv), "rc": rc})
        return commands


def main(src, plan_path, out_path):
    sys.path.insert(0, os.path.abspath(src))
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    tracer.install()
    commands = tracer.run(plan)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "commands": commands, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
