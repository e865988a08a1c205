"""Run one workload of the confspace benchmark and print its metrics.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass runs the workload's invocation list, one
fresh ``python -m confspace`` subprocess at a time, and checks every output.
With ``--trace 0`` passes repeat while the next one still fits in
``--seconds`` (at least one) and the end-to-end metrics are medians over the
passes.  With ``--trace 1`` one untraced pass is followed by one traced pass
(``python -m perfbench.tracer``) and the per-layer metrics are printed.

The second-to-last stdout line records the environment and the generated
inputs; the last line is the result object.  Exit status 0 means the run
finished, whether or not outputs were correct; 2 means it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from .checks import check
from .tracer import TRACE_MARK
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fresh interpreters timed for setup_s per run: one before each invocation
# of the untraced passes until there are this many, topped up at the end
SETUP_STARTS = 20
# a run still going after this many seconds is stopped and its child killed
RUN_LIMIT_S = 170

VERBS = ("complex", "abc", "disc", "gallery-verify", "braid-equal",
         "braid-search", "braid-gallery")


class Child:
    """What one finished subprocess cost and printed."""

    def __init__(self, wall, cpu, rss_kib, status, stdout, stderr):
        self.wall, self.cpu, self.rss_kib = wall, cpu, rss_kib
        self.status, self.stdout, self.stderr = status, stdout, stderr
        self.trace = None


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = None

    def spawn(self, args):
        with tempfile.TemporaryFile(dir=ROOT) as out, \
                tempfile.TemporaryFile(dir=ROOT) as err:
            start = perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, wait_status, usage = os.wait4(self.proc.pid, 0)
            wall = perf_counter() - start
            self.proc.returncode = os.waitstatus_to_exitcode(wait_status)
            status, self.proc = self.proc.returncode, None
            out.seek(0)
            err.seek(0)
            return Child(wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss, status, out.read(), err.read())

    def kill(self):
        """Stop the running child, if any, and wait for it."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def setup_start(self):
        child = self.spawn(["-c", "import confspace.cli"])
        if child.status != 0:
            raise RuntimeError("import confspace.cli failed: %s"
                               % child.stderr.decode(errors="replace"))
        return child.wall


class Pass:
    """One pass over a workload: per-invocation children and verdicts."""

    def __init__(self):
        self.children = []     # (invocation, Child, error or None)
        self.setup = []

    @property
    def batch_s(self):
        return sum(c.wall for _, c, _ in self.children)

    @property
    def failed(self):
        return [(inv, err) for inv, _, err in self.children if err]


def run_pass(runner, invocations, traced=False, setup_starts=0):
    """Run every invocation once; time a fresh start before the first
    ``setup_starts`` of them."""
    p = Pass()
    module = "perfbench.tracer" if traced else "confspace"
    for i, inv in enumerate(invocations):
        if i < setup_starts:
            p.setup.append(runner.setup_start())
        child = runner.spawn(["-m", module, *inv.argv])
        stderr = child.stderr.decode(errors="replace")
        if traced:
            head, _, last = stderr.rstrip("\n").rpartition("\n")
            child.trace = (json.loads(last[len(TRACE_MARK):])
                           if last.startswith(TRACE_MARK) else None)
            stderr = head
        error = check(inv, child.status, child.stdout)
        if error is None and traced and child.trace is None:
            error = "the traced child wrote no trace"
        if error is not None and stderr:
            error += "; stderr: " + stderr[-500:]
        p.children.append((inv, child, error))
    return p


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes):
    """Medians over the passes of a run; setup_s over all its starts."""
    setup = [s for p in passes for s in p.setup]
    return {
        "batch_s": (statistics.median(p.batch_s for p in passes), "s"),
        "slowest_s": (statistics.median(
            max(c.wall for _, c, _ in p.children) for p in passes), "s"),
        "cpu_s": (statistics.median(
            sum(c.cpu for _, c, _ in p.children) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(
            max(c.rss_kib for _, c, _ in p.children) / 1024
            for p in passes), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


class Layers:
    """Spans and counts of a traced pass, summed over its invocations."""

    def __init__(self, traced):
        self.spans = {}
        self.counts = {}
        for _, child, _ in traced.children:
            if child.trace is None:
                continue
            for name, _, calls, total, self_s in child.trace["spans"]:
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, k in child.trace["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + k

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name):
        if name in self.spans:
            return self.spans[name][0]
        return self.counts.get(name, 0)

    def count(self, name):
        return self.counts.get(name, 0)

    def layer_self_s(self, layer):
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.startswith(layer + "."))


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric -> (unit, better); the order is the print order
PER_LAYER = {
    **{"cli.%s.wall_s" % verb: ("s", "lower") for verb in VERBS},
    "cli.self_s": ("s", "lower"),
    "ratios.self_s": ("s", "lower"),
    "ratios.build_complex.self_s": ("s", "lower"),
    "ratios.build_complex.calls": ("count", "lower"),
    "ratios.simplices": ("count", "lower"),
    "ratios.divides_oracle.calls": ("count", "lower"),
    "ratios.normal_form.self_s": ("s", "lower"),
    "ratios.normal_form.calls": ("count", "lower"),
    "ratios.orbit_decomposition.self_s": ("s", "lower"),
    "ratios.verify_abc.self_s": ("s", "lower"),
    "homology.self_s": ("s", "lower"),
    "homology.boundary_matrix.self_s": ("s", "lower"),
    "homology.smith_diagonal.self_s": ("s", "lower"),
    "homology.smith_diagonal.calls": ("count", "lower"),
    "homology.smith_diagonal.entries": ("count", "lower"),
    "polyring.self_s": ("s", "lower"),
    "polyring.bareiss_det.self_s": ("s", "lower"),
    "polyring.bareiss_det.calls": ("count", "lower"),
    "polyring.MultiPoly.exact_divide.self_s": ("s", "lower"),
    "polyring.MultiPoly.exact_divide.calls": ("count", "lower"),
    "polyring.MultiPoly.sorted_terms.self_s": ("s", "lower"),
    "polyring.MultiPoly.sorted_terms.calls": ("count", "lower"),
    "polyring.MultiPoly.__mul__.self_s": ("s", "lower"),
    "polyring.MultiPoly.__mul__.calls": ("count", "lower"),
    "polyring.sorted_terms_per_divide": ("ratio", "lower"),
    "polyring.resultant_int.self_s": ("s", "lower"),
    "polyring.resultant_int.calls": ("count", "lower"),
    "polyring.discriminant_int.self_s": ("s", "lower"),
    "polyring.discriminant_int.calls": ("count", "lower"),
    "morphisms.self_s": ("s", "lower"),
    "morphisms.feler_nine_symbolic.self_s": ("s", "lower"),
    "braid.self_s": ("s", "lower"),
    "braid.canonical_form.self_s": ("s", "lower"),
    "braid.canonical_form.calls": ("count", "lower"),
    "braid.canonical_form.letters": ("count", "lower"),
    "braid.canonical_form.factors": ("count", "lower"),
    "braid.search_homs.self_s": ("s", "lower"),
    "braid.hom_from_pair.calls": ("count", "lower"),
    "braid.check_relations.calls": ("count", "lower"),
    "braid.check_relations.pass_ratio": ("ratio", "higher"),
    "braid.hom_properties.self_s": ("s", "lower"),
    "braid.hom_properties.calls": ("count", "lower"),
    "braid.are_conjugate.self_s": ("s", "lower"),
    "braid.are_conjugate.calls": ("count", "lower"),
    "braid.are_conjugate.hit_ratio": ("ratio", "higher"),
    "braid.Perm.__mul__.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
}


def per_layer(plain, traced):
    """Every PER_LAYER metric from an untraced and a traced pass."""
    layers = Layers(traced)
    values = {}
    for verb in VERBS:
        values["cli.%s.wall_s" % verb] = sum(
            c.wall for inv, c, _ in plain.children if inv.verb == verb)
    run_total = layers.spans.get("cli.run", (0, 0.0, 0.0))[1]
    values["cli.self_s"] = layers.self_s("cli.run")
    values["trace.overhead_s"] = traced.batch_s - plain.batch_s
    values["trace.coverage"] = _ratio(run_total - values["cli.self_s"],
                                      run_total)
    values["polyring.sorted_terms_per_divide"] = _ratio(
        layers.calls("polyring.MultiPoly.sorted_terms"),
        layers.calls("polyring.MultiPoly.exact_divide"))
    values["braid.check_relations.pass_ratio"] = _ratio(
        layers.count("braid.check_relations.passed"),
        layers.calls("braid.check_relations"))
    values["braid.are_conjugate.hit_ratio"] = _ratio(
        layers.count("braid.are_conjugate.hits"),
        layers.calls("braid.are_conjugate"))
    attempted = len(plain.children) + len(traced.children)
    values["failed_frac"] = (len(plain.failed) + len(traced.failed)) / attempted
    for name in PER_LAYER:
        if name in values:
            continue
        layer, _, metric = name.rpartition(".")
        if name.count(".") == 1 and metric == "self_s":
            values[name] = layers.layer_self_s(layer)
        elif metric == "self_s":
            values[name] = layers.self_s(layer)
        elif metric == "calls":
            values[name] = layers.calls(layer)
        else:
            values[name] = layers.count(name)
    return {name: (values[name], unit)
            for name, (unit, _) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256():
    """Digest of the package sources, which names the code in a checkout
    that is not a git work tree."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "confspace").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, invocations, passes):
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "invocations_per_pass": len(invocations),
        "passes": len(passes),
    }
    pairs = [inv.expect["pair"] for inv in invocations if "pair" in inv.expect]
    if pairs:
        env["word_pairs"] = pairs
    return env


def measure(runner, args, invocations):
    """The passes of one run and the metrics they give."""
    if args.trace:
        plain = run_pass(runner, invocations)
        traced = run_pass(runner, invocations, traced=True)
        return [plain, traced], per_layer(plain, traced)
    passes = []
    starts = SETUP_STARTS
    start = perf_counter()
    while True:
        passes.append(run_pass(runner, invocations, setup_starts=starts))
        starts -= len(passes[-1].setup)
        spent = perf_counter() - start
        if spent + spent / len(passes) > args.seconds:
            break
    for _ in range(starts):
        passes[-1].setup.append(runner.setup_start())
    return passes, end_to_end(passes)


class Stopped(Exception):
    """Raised by SIGALRM (the run limit) and SIGTERM, so the running child
    is killed and reaped before the benchmark exits."""


def _stop(signum, frame):
    raise Stopped("stopped by %s" % signal.Signals(signum).name)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "confspace" / "cli.py").is_file():
        sys.stderr.write("error: no confspace sources under %s\n" % SRC)
        return 2

    invocations = WORKLOADS[args.workload](args.seed)
    runner = Runner()
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(RUN_LIMIT_S)
    try:
        runner.setup_start()  # compiles bytecode; not measured
        passes, metrics = measure(runner, args, invocations)
    except (Stopped, KeyboardInterrupt, RuntimeError) as exc:
        runner.kill()
        sys.stderr.write("error: %s\n" % exc)
        return 2
    finally:
        signal.alarm(0)

    failures = [(inv, err) for p in passes for inv, err in p.failed]
    for inv, err in failures:
        sys.stderr.write("FAILED %s: %s\n" % (inv.key[:120], err))
    attempted = sum(len(p.children) for p in passes)
    print(json.dumps({"env": environment(args, invocations, passes)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
