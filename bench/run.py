"""Benchmark of supersolve: one closed-loop client on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload unsat-scan --seed 1 --seconds 20 --trace 0

The client is one process with one thread.  It issues each operation only
after the previous one has finished: `supersolve.cli.main(argv)` in-process
on files written during set-up, or `malcev.ternary_term_clone` directly.
Operations run in whole passes over the workload until --seconds have
elapsed and at least MIN_OPS operations have completed.  Every output is
checked against the workload's construction.  Each timing is scaled by a
reference kernel timed around it, which cancels the drift in speed of a
shared host; the wall-clock figures are in the report.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, from passes
that alternate untraced and traced.  The line before it is a report with
the environment, the deterministic counters, the output digest and every
metric computed, and the same report is written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("unsat-scan", "sat-early", "combinatorics")
MIN_OPS = 100
SETUP_REPEATS = 5  # set-ups per run: this process plus SETUP_REPEATS - 1 fresh ones
COLD_STARTS_PER_PASS = 4
CALIBRATION_PAIRS_PER_PASS = 10
IMPORT_PROBES = 5
SUBPROCESS_TIMEOUT = 120
# Every timing is scaled by a reference kernel (see _reference_seconds):
# seconds * REFERENCE_S / reference seconds.  This is the time the
# operation would take on a machine where the kernel takes REFERENCE_S,
# about its time on the 2-core Xeon the bounds were set on.  The kernel runs
# before each op of a pass; a timing taken before op i is scaled by the
# median of the kernel runs before ops i - REFERENCE_WINDOW .. i +
# REFERENCE_WINDOW, so that one preempted kernel run does not skew it.
REFERENCE_S = 2.5e-3
REFERENCE_WINDOW = 3
REFERENCE_PROBES = 5  # reference runs after a set-up, whose median scales it


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny workload sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Set-up, timed passes and checks of one workload."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failures = []
        self.outputs = []  # first-pass output of each op, in op order
        self.digests = []
        self.tracer = None
        self.calibration_digests = {}
        self.calibration_samples = {}  # kind -> [(candidates, pass, op index, wall seconds)]
        self.cold = []  # [(pass, op index, wall seconds)]
        self.references = []  # seconds of the reference kernel before each op, per pass
        self.position = None  # (pass, op index) of the op about to run

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Import the package, generate and write the workload, warm up.

        Returns (wall seconds, scaled seconds); the set-up is scaled by the
        median of reference runs made just after it.
        """
        start = time.perf_counter()
        sys.path[:0] = [SRC, BENCH_DIR]
        import supersolve

        if os.path.dirname(os.path.abspath(supersolve.__file__)) != os.path.join(SRC, "supersolve"):
            raise RuntimeError(f"imported supersolve from {supersolve.__file__}, not from {SRC}")
        import checks
        import workloads

        self.checks = checks
        self.workdir = os.path.join(
            BENCH_DIR, ".work", f"{self.args.workload}-{self.args.seed}-{os.getpid()}")
        self.workload = workloads.generate(
            self.args.workload, self.args.seed, self.workdir, small=self.args.small)
        self.workload.write(self.workdir)
        for op in self.workload.warmup_ops():
            self._checked(op, self._execute(op))
        wall = time.perf_counter() - start
        reference = statistics.median(_reference_seconds() for _ in range(REFERENCE_PROBES))
        return wall, _scaled(wall, reference)

    def cleanup(self):
        shutil.rmtree(getattr(self, "workdir", ""), ignore_errors=True)

    # -- operations ---------------------------------------------------------

    def _execute(self, op):
        """(seconds, exit code or clone result, stdout, error) of one operation."""
        import supersolve.cli
        import supersolve.malcev

        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op.kind == "clone":
                    code = supersolve.malcev.ternary_term_clone(op.algebra)
                else:
                    code = supersolve.cli.main(list(op.argv))
        except Exception:  # an unexpected error is a failed operation, not a crash
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), error

    def _checked(self, op, executed):
        """Check one first-time output; returns its bytes for the digest."""
        _, code, out, error = executed
        self.attempted += 1
        if error is not None:
            self._fail(f"{op.label}: raised {error.strip().splitlines()[-1]}")
            return b""
        if op.kind == "clone":
            problem = self.checks.check_clone(op, code)
            out = _clone_bytes(code)
        else:
            problem = self.checks.check(op, code, out, self.workload)
        if problem:
            self._fail(problem)
        return out.encode() if isinstance(out, str) else out

    def _fail(self, message):
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def run_pass(self, index, sides=None):
        """One pass over the workload; returns per-op wall seconds.

        sides maps an op position to side measurements taken just before
        that op, outside its timing, so that they spread over the run.
        """
        times, references = [], []
        self.references.append(references)
        for i, op in enumerate(self.workload.ops):
            self.position = (index, i)
            for side in (sides or {}).get(i, ()):
                side()
            references.append(_reference_seconds())
            if self.tracer is not None:
                self.tracer.op_id = (index, i)
            executed = self._execute(op)
            times.append(executed[0])
            if index == 0:
                data = self._checked(op, executed)
                self.outputs.append(data)
                self.digests.append(hashlib.sha256(data).hexdigest())
            else:
                self._repeat_checked(op, executed, self.digests[i])
        if index == 0:
            self._check_pairs()
        return times

    def _repeat_checked(self, op, executed, digest):
        """A repeated operation must give the bytes it gave the first time."""
        self.attempted += 1
        _, code, out, error = executed
        if error is None:
            data = _clone_bytes(code) if op.kind == "clone" else out.encode()
            if hashlib.sha256(data).hexdigest() == digest:
                return
        self._fail(f"{op.label}: output differs from the first pass")

    def _check_pairs(self):
        pairs = {}
        for op, data in zip(self.workload.ops, self.outputs):
            if op.pair is not None:
                pairs.setdefault(op.pair, {})[op.kind] = data.decode()
        for pid, both in sorted(pairs.items()):
            try:
                problem = self.checks.check_pair(both["solve"], both["brute"])
            except (KeyError, ValueError) as exc:
                problem = f"pair {pid}: {exc}"
            if problem:
                self._fail(f"pair {pid}: {problem}")

    # -- timed loop ---------------------------------------------------------

    def loop(self, traced_passes):
        """Whole passes until --seconds and MIN_OPS are reached.

        traced_passes: None for untraced runs, which also take the side
        measurements; otherwise passes alternate untraced and traced, and
        each traced pass's spans are appended.
        """
        import tracing

        min_ops = 1 if self.args.small else MIN_OPS
        sides = self._side_schedule(cold_starts=traced_passes is None)
        self.tracer = None
        passes = []
        start = time.perf_counter()
        while True:
            traced = traced_passes is not None and len(passes) % 2 == 1
            if traced:
                self.tracer = tracing.Tracer()
                self.tracer.install()
            try:
                times = self.run_pass(len(passes), sides)
            finally:
                if traced:
                    self.tracer.uninstall()
            if traced:
                traced_passes.append((self.tracer.spans, self.tracer.kept))
                self.tracer = None
            passes.append(times)
            done = sum(len(p) for p in passes)
            elapsed = time.perf_counter() - start
            enough = elapsed >= self.args.seconds and done >= min_ops
            if enough and (traced_passes is None or len(passes) >= 2):
                return passes

    # -- side measurements --------------------------------------------------

    def _side_schedule(self, cold_starts):
        """Side measurements spread evenly over a pass.

        The calibration ops run in traced runs too, so that the layers they
        stand in for have spans there.
        """
        sides = [self._cold_start] * (COLD_STARTS_PER_PASS if cold_starts else 0)
        for _ in range(CALIBRATION_PAIRS_PER_PASS):
            sides += [functools.partial(self._calibrate, op) for op in self.workload.calibration]
        n = len(self.workload.ops)
        schedule = {}
        for k, side in enumerate(sides):
            schedule.setdefault((2 * k + 1) * n // (2 * len(sides)), []).append(side)
        return schedule

    def _calibrate(self, op):
        """One op of the fixed same-set pair, for workloads that lack solve or brute."""
        if self.tracer is not None:
            self.tracer.op_id = ("calibration", op.label)
        executed = self._execute(op)
        if op.label in self.calibration_digests:
            self._repeat_checked(op, executed, self.calibration_digests[op.label])
        else:
            data = self._checked(op, executed)
            self.calibration_digests[op.label] = hashlib.sha256(data).hexdigest()
        self.calibration_samples.setdefault(op.kind, []).append(
            (op.expect["candidates"], *self.position, executed[0]))

    def _cold_start(self):
        """Wall time of `python -m supersolve solve --json` on the fixed problem."""
        argv = [sys.executable, "-m", "supersolve"] + self.workload.cold_start_argv
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_subprocess_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
        self.cold.append((*self.position, time.perf_counter() - start))
        try:
            doc = json.loads(proc.stdout)
            ok = proc.returncode == 0 and doc["verdict"]["kind"] == "solution_found" \
                and doc["verdict"]["assignment"] == [3, 0, 0]
        except (ValueError, KeyError):
            ok = False
        if not ok:
            self._fail(f"cold start: exit {proc.returncode}, output {proc.stdout[:200]!r}")

    def setup_in_fresh_processes(self):
        samples = []
        for _ in range(SETUP_REPEATS - 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
                    "--seed", str(self.args.seed), "--setup-only"] + (["--small"] if self.args.small else [])
            self.attempted += 1
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT)
            try:
                doc = json.loads(proc.stdout.splitlines()[-1])
                samples.append((doc["wall_s"], doc["setup_s"]))
            except (IndexError, ValueError, KeyError):
                self._fail(f"set-up in a fresh process failed: {proc.stderr.strip()[-300:]}")
        return samples

    # -- scaling ------------------------------------------------------------

    def scaled(self, pass_index, op_index, seconds):
        """seconds taken before op op_index of a pass, scaled (see REFERENCE_S)."""
        references = self.references[pass_index]
        window = references[max(0, op_index - REFERENCE_WINDOW):op_index + REFERENCE_WINDOW + 1]
        return _scaled(seconds, statistics.median(window))

    def scaled_passes(self, passes):
        return [[self.scaled(k, i, t) for i, t in enumerate(times)]
                for k, times in enumerate(passes)]


def _scaled(seconds, reference):
    return seconds * REFERENCE_S / reference


def _reference_seconds():
    """Wall time of a fixed kernel that does the kinds of work the package does.

    The host is shared, and its speed drifts by tens of percent over
    minutes.  The kernel mixes a pure-Python loop, numpy table lookups on
    long arrays (as in a scan chunk) and many numpy calls on tiny arrays (as
    in a scan of one row per support), so dividing by it cancels most of
    that drift.  It does not depend on the package, so a change to the
    package moves the scaled times in full.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i % 7
    table = np.arange(64, dtype=np.int64) % 5
    x = np.arange(20000, dtype=np.int64) % 8
    for _ in range(6):
        x = table[x * 8 + 3] + 1
    y = np.zeros(8, dtype=np.int64)
    for k in range(150):
        row = np.full((1, 8), 1, dtype=np.int64)
        y = table[(y * 8 + k) % 64]
        row[:, k % 8] = y[0]
    return time.perf_counter() - start


def _clone_bytes(result):
    from supersolve.terms import format_term

    tables, complete = result
    return json.dumps(
        [complete, [[list(t.table), format_term(t.witness)] for t in tables]],
        separators=(",", ":"),
    ).encode()


def _import_seconds():
    """Best `import supersolve` in a fresh interpreter minus the best bare start."""
    def best_wall(code):
        samples = []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_subprocess_env(),
                           check=True, timeout=SUBPROCESS_TIMEOUT)
            samples.append(time.perf_counter() - start)
        return min(samples)

    return best_wall("import supersolve") - best_wall("pass")


def _percentile(values, q):
    """Percentile by statistics.quantiles (exclusive method), q in 1..99."""
    return statistics.quantiles(values, n=100)[q - 1]


def _counters(workload, outputs):
    """Deterministic counters of one pass, read from the CLI JSON outputs."""
    c = {"solver.candidates_tested": 0, "solver.term_evaluations": 0,
         "solver.brute_candidates_tested": 0, "solver.brute_term_evaluations": 0}
    for op, data in zip(workload.ops, outputs):
        if op.kind not in ("solve", "brute") or not data:
            continue
        try:
            stats = json.loads(data)["stats"]
        except (ValueError, KeyError):
            continue
        prefix = "solver." if op.kind == "solve" else "solver.brute_"
        c[prefix + "candidates_tested"] += stats["candidates_tested"]
        c[prefix + "term_evaluations"] += stats["term_evaluations"]
    return c


def _environment(args):
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _end_to_end(run, passes, setup_samples):
    """End-to-end metrics from each operation's median scaled time.

    passes holds wall seconds.  Each operation runs once per pass.  Its
    time is the median over the passes of its scaled time, and percentiles
    and rates are taken over these per-operation times, one sample per
    operation of the workload.  setup_samples hold (wall, scaled) seconds.
    """
    ops = run.workload.ops
    per_op = _per_op_medians(run.scaled_passes(passes))
    cold = [run.scaled(*sample) for sample in run.cold]
    metrics = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "verdict_s_p50": statistics.median(per_op),
        "verdict_s_p90": _percentile(per_op, 90),
        "ops_per_s": len(per_op) / sum(per_op),
        "cold_start_s": statistics.median(cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    def rate(kind, pairs_only=False):
        """Candidates and scaled seconds of one operation kind, per pass."""
        idx = [i for i, op in enumerate(ops)
               if op.kind == kind and (op.pair is not None or not pairs_only)]
        return idx, sum(ops[i].expect["candidates"] for i in idx), sum(per_op[i] for i in idx)

    bases = {}
    for kind, name in (("solve", "bounded_cands_per_s"), ("brute", "brute_cands_per_s")):
        idx, cands, seconds = rate(kind)
        source = "workload"
        if not idx:
            samples = run.calibration_samples[kind]
            cands, source = samples[0][0], "calibration pair"
            seconds = statistics.median(run.scaled(*sample[1:]) for sample in samples)
        metrics[name] = cands / seconds
        bases[name] = {"candidates": cands, "seconds": seconds, "source": source}
    same_set = {}
    for kind in ("solve", "brute"):
        idx, cands, seconds = rate(kind, pairs_only=True)
        if idx:
            same_set[kind] = {"candidates": cands, "seconds": seconds, "per_s": cands / seconds}
    wall = _per_op_medians(passes)
    wall_clock = {
        "setup_s": statistics.median(w for w, _ in setup_samples),
        "verdict_s_p50": statistics.median(wall),
        "verdict_s_p90": _percentile(wall, 90),
        "ops_per_s": len(wall) / sum(wall),
        "cold_start_s": statistics.median(w for _, _, w in run.cold),
    }
    return metrics, {"bases": bases, "same_set": same_set, "samples": len(per_op),
                     "runs_per_op": len(passes), "wall_clock": wall_clock,
                     "setup_samples": setup_samples, "cold_start_samples": cold}


def _per_op_medians(passes):
    return [statistics.median(times) for times in zip(*passes)]


def _by_label(run, passes):
    groups = {}
    for i, op in enumerate(run.workload.ops):
        key = op.label.split("/band")[0]
        groups.setdefault(key, []).extend(p[i] for p in passes)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in sorted(groups.items())}


def _load_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "supersolve", "__init__.py")):
        print(f"error: no package source at {SRC}/supersolve; run from a repository checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _load_metric_names()
    run = Run(args)
    try:
        setup = run.setup()
        if args.setup_only:
            print(json.dumps({"wall_s": setup[0], "setup_s": setup[1]}))
            return 0
        import tracing

        report = {"environment": _environment(args)}
        if args.trace == 0:
            setup_samples = [setup] + run.setup_in_fresh_processes()
            traced = None
        else:
            traced = []
        passes = run.loop(traced)
        counters = _counters(run.workload, run.outputs)
        report.update({
            "passes": len(passes),
            "ops_per_pass": len(run.workload.ops),
            "counters": counters,
            "digest": hashlib.sha256("".join(run.digests).encode()).hexdigest(),
            "by_class": _by_label(run, run.scaled_passes(passes)),
        })
        if args.trace == 0:
            metrics, extra = _end_to_end(run, passes, setup_samples)
            report.update(extra)
            wanted = end_to_end
        else:
            # a pass's cost is the sum of each op's median scaled time over
            # the passes of its kind, as in the untraced run
            scaled = run.scaled_passes(passes)
            untraced = sum(_per_op_medians(scaled[0::2]))
            traced_walls = sum(_per_op_medians(scaled[1::2]))
            layer = [tracing.layer_metrics(spans, kept) for spans, kept in traced]
            metrics = {k: statistics.mean(m[k] for m in layer) for k in layer[0]}
            metrics["cli.import_s"] = _import_seconds()
            metrics["trace.untraced_pass_s"] = untraced
            metrics["trace.traced_pass_s"] = traced_walls
            metrics["trace.overhead_s"] = traced_walls - untraced
            metrics["trace.overhead_ratio"] = traced_walls / untraced
            report["spans"] = sum(len(spans) for spans, _ in traced)
            wanted = per_layer
        failed = len(run.failures)
        report["error_rate"] = failed / max(run.attempted, 1)
        report["failures"] = run.failures[:20]
        report["metrics"] = metrics
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"metrics named in BENCHMARK.json but not computed: {missing}")
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(dict(report, labels=[op.label for op in run.workload.ops],
                           pass_times=run.scaled_passes(passes), wall_pass_times=passes),
                      handle, indent=1)
        if traced is not None:
            with open(stem + "-spans.jsonl", "w", encoding="utf-8") as handle:
                for pass_index, (spans, _) in enumerate(traced):
                    for span in spans:
                        handle.write(json.dumps([pass_index] + span) + "\n")
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                        for m in wanted},
        }))
        return 0
    finally:
        run.cleanup()


if __name__ == "__main__":
    sys.exit(main())
