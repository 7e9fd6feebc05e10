"""nillab benchmark: closed-loop runs of one workload, with output checks.

    python3 perfbench/run.py --workload nets --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; nillab is imported from its `src/`.
One client in one process runs the workload's op list pass after pass, each
op starting when the previous one returns, until the next pass would end
after `--seconds`. Set-up (groups, systems, grids, targets) is timed in
several samples before the first op and reported as their median.

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes, per traced pass, plus the tracing overhead (fastest
traced pass against fastest untraced pass). The metric names and units
printed on the last line are the ones listed in BENCHMARK.json.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
`perfbench-summary` JSON object with provenance, every end-to-end metric,
per-op latencies, the ROADMAP baseline cross-check and known-defect probes.
Full results (and spans, when tracing) go to `.perfbench_out/`.
`--workload all` runs each workload in its own process and prints a table.
`--record-reference` (seed 0 only) stores the first pass's discrete outputs
in reference_seed0.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# pinned to 1 before numpy is first imported: the benchmark measures one
# client on one core, and a second pool thread would compete with it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_ORDER = ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "ops_failed_frac",
             "peak_rss_mb", "orbit_err_max")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference_seed0.json")
WORKLOAD_NAMES = ("nets", "quotient", "ip-scan", "orbits")
SETUP_SAMPLES, SETUP_SAMPLE_SECONDS = 5, 0.2
SWEEP_TUPLES_M4_B50 = 292_825          # C(53, 4), the ROADMAP baseline scan


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def import_library():
    """Import nillab from this checkout's src/ and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import nillab
    except ImportError as exc:
        sys.exit("perfbench: cannot import nillab from %s (%s)" % (src, exc))
    if not os.path.abspath(nillab.__file__).startswith(src + os.sep):
        sys.exit("perfbench: nillab resolved to %s, not this checkout" % nillab.__file__)
    return nillab


def provenance(seed):
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": usable, "cpu_count": os.cpu_count(), "cpu": cpu,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed, "platform": platform.platform()}


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes of one workload's op list and keeps latencies and failures."""

    def __init__(self, ops, reference, record):
        self.ops = ops
        self.reference = reference          # {op name: discrete outputs} or None
        self.record = record
        self.recorded = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latency = {op.name: [] for op in ops}      # untraced passes only

    def run_pass(self, tracer=None):
        """One pass; returns the summed op latency (checks are not timed)."""
        total = 0.0
        for op in self.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = op.name
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.fn()
                error = None
            except Exception:               # a raising op is a failed op
                result, error = None, traceback.format_exc(limit=-3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            total += dt
            if tracer is None:
                self.latency[op.name].append(dt)
            if error is None:
                error = self._check(op, result)
            if error is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": op.name, "error": error})
        return total

    def _check(self, op, result):
        from workloads import CheckFailed
        try:
            # through JSON, so tuples compare equal to the lists the reference file holds
            summary = json.loads(json.dumps(op.check(result)))
        except CheckFailed as exc:
            return "check: %s" % exc
        except Exception as exc:
            return "check raised %s: %s" % (type(exc).__name__, exc)
        if self.record:
            self.recorded.setdefault(op.name, summary)
        elif self.reference is not None:
            want = self.reference.get(op.name)
            if want is None:
                return "no reference recorded for this op"
            if summary != want:
                return "discrete outputs differ from reference: %s != %s" % (summary, want)
        return None


def time_setup(setup_fn, inputs, tmp):
    """Set up SETUP_SAMPLES times; returns the last state, the per-set-up time
    of each sample and the number of set-ups.

    A sample repeats the set-up until SETUP_SAMPLE_SECONDS have passed and
    divides by the repetitions, so a sub-millisecond set-up is timed over
    enough work to read reliably and a long one is timed once per sample.
    """
    per_setup, reps = [], 0
    for _ in range(SETUP_SAMPLES):
        n = 0
        t0 = time.perf_counter()
        while True:
            state = setup_fn(inputs, tmp)
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_SECONDS:
                break
        per_setup.append(elapsed / n)
        reps += n
    return state, per_setup, reps


def find_handles(state):
    from nillab.systems import SystemHandle
    return [v for v in state.values() if isinstance(v, SystemHandle)]


def measure(args):
    import_library()
    import numpy as np
    import workloads as wl
    from tracing import Tracer, all_entry_stats, layer_metrics

    setup_fn, ops_fn = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    tmp = os.path.join(OUT_DIR, "tmp-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        state, setup_times, setup_reps = time_setup(setup_fn, inputs, tmp)

        errors = wl.OrbitErrors()
        ops = ops_fn(state, inputs, errors) if args.workload == "orbits" \
            else ops_fn(state, inputs)
        reference = None
        if args.seed == 0 and not args.record_reference:
            with open(REFERENCE) as fh:
                reference = json.load(fh).get(args.workload, {})
        runner = Runner(ops, reference, args.record_reference)

        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        pass_elapsed = []
        while True:
            p0 = time.perf_counter()
            if tracer is not None and len(plain) > len(traced):
                tracer.install()
                for handle in find_handles(state):
                    tracer.wrap_system(handle)
                try:
                    traced.append(runner.run_pass(tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(runner.run_pass())
            pass_elapsed.append(time.perf_counter() - p0)
            elapsed = time.perf_counter() - start
            if args.trace and not traced:
                continue
            if elapsed + statistics.median(pass_elapsed) > args.seconds:
                break
        measured_s = time.perf_counter() - start
        # before the probe and the cross-check below, which are not part of the workload
        rss_mb = peak_rss_mb()

        probes = {}
        if args.workload == "ip-scan":
            code, err = wl.threads_probe(inputs, tmp)
            probes["threads2_ip_search"] = {
                "argv": "--threads 2 ip-search ... (criterion-10 ladder, m=2, B=15)",
                "exit": code, "stderr": err.strip().splitlines()[:1],
                "note": "not in the op list: it exits 64 because main() reads '2' "
                        "as the subcommand (ROADMAP item 4)"}
        crosscheck = baseline_crosscheck(args.workload, runner, errors, state, np)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    latencies = [dt for v in runner.latency.values() for dt in v]
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(plain), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "ops_failed_frac": (runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "orbit_err_max": (errors.max(), "turns"),
    }
    layers = {}
    if tracer is not None:
        layers = layer_metrics(tracer.stats, len(traced))
        layers["trace.overhead_frac"] = ((min(traced) - min(plain)) / min(plain), "ratio")
        layers["trace.spans"] = (len(tracer.spans) / len(traced), "count")
        layers["trace.pass_wall_s"] = (statistics.median(traced), "s")
        dqb = tracer.stats.get("nilmetric.dist_quotient_block")
        layers["nilmetric.dist_quotient_block.wall_share"] = (
            (dqb.busy if dqb else 0.0) / sum(traced), "ratio")
        layers["orbit_err_max"] = (errors.max() or 0.0, "turns")
        layers["ops_failed_frac"] = e2e["ops_failed_frac"]

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s,
        "provenance": provenance(args.seed),
        "inputs": inputs,
        "load": "closed loop, 1 client, 1 process",
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_walls": {"untraced": plain, "traced": traced},
        "setup_reps": setup_reps,
        "setup_samples_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "op_samples": len(latencies),
        "op_p90_samples_above": sum(1 for dt in latencies if dt > e2e["op_p90_s"][0]),
        "ops": {name: {"n": len(v), "median_s": statistics.median(v)}
                for name, v in runner.latency.items() if v},
        "failures": runner.failures,
        "orbit_errors": errors.by_op,
        "known_defect_probes": probes,
        "baseline_crosscheck": crosscheck,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    full = dict(summary, layers={k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                op_latencies_s=runner.latency)
    if tracer is not None:
        full["entry_points"] = all_entry_stats(tracer.stats, len(traced))
        full["dropped_spans"] = tracer.dropped_spans
        tracer.write_spans(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    if args.record_reference:
        record_reference(args, runner)

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for m in wanted:
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError("unit of %s is %s, BENCHMARK.json says %s"
                               % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print("perfbench-summary " + json.dumps(summary, sort_keys=True, default=str))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def baseline_crosscheck(workload, runner, errors, state, np):
    """Measured values next to the ROADMAP 'Baseline measured at this re-anchor' rows."""
    med = {k: statistics.median(v) for k, v in runner.latency.items() if v}
    rows = []
    if workload == "ip-scan":
        from workloads import IP_SCANS
        m, B = IP_SCANS[-1]
        tuples = math.comb(B + m - 1, m)
        per_tuple = med["sturmian.ip.m=%d.B=%d" % (m, B)] / tuples
        rows.append({"row": "Sturmian find_ip_independence(m=4, B=50)",
                     "baseline": "14.6 s for 292,825 tuples",
                     "measured_s_extrapolated": per_tuple * SWEEP_TUPLES_M4_B50,
                     "how": "m=4, B=%d scan (%d tuples) per-tuple time x 292,825; the "
                            "full B=50 scan does not fit one run" % (B, tuples)})
    if workload == "quotient":
        from workloads import HEIS_BATCH_PAIRS
        batch = [v for k, v in med.items() if k.startswith("dqb.heisenberg3.")]
        rows.append({"row": "dist_quotient_block (heisenberg3)",
                     "baseline": "~157 us/pair",
                     "measured_us_per_pair": 1e6 * statistics.median(batch) / HEIS_BATCH_PAIRS,
                     "how": "median %d-pair batch" % HEIS_BATCH_PAIRS})
        H = state["H"]
        rng = np.random.default_rng(0)
        T = rng.uniform(-4, 4, (10 ** 6, 3))
        U = rng.uniform(-4, 4, (10 ** 6, 3))
        mul = min(_timed(lambda: H.mul_block(T, U)) for _ in range(3))
        red = min(_timed(lambda: H.reduce_block(T)) for _ in range(3))
        rows.append({"row": "mul_block / reduce_block, 10^6 rows",
                     "baseline": "0.032 s / 0.198 s",
                     "measured_s": [mul, red],
                     "measured_rows_per_s": [1e6 / mul, 1e6 / red],
                     "how": "best of 3 on 10^6 uniform rows in [-4, 4)^3, after timing"})
    if workload == "nets":
        rows.append({"row": "cover-skew test, criterion 5",
                     "baseline": "53 s (cover n=20: 25 s); 19 s",
                     "measured": None,
                     "note": "not covered: this workload's cover (radius 0.35, delta 0.1, "
                             "n in {2, 4}) and skew curve (n <= 14) are smaller, so that "
                             "a pass fits a run"})
    if workload == "quotient":
        rows.append({"row": "Heisenberg nilsystem shadowing net, eps=0.25, grid 4,913",
                     "baseline": "n=0: 9 s; n=2: 17 s; n=4: 33 s",
                     "measured": None,
                     "note": "not covered: this workload's nets use eps=0.4 on 1,331 points"})
    if workload == "orbits":
        rows.append({"row": "nilsystem orbit_block, 10^6 points",
                     "baseline": "0.17 s; drift 4.4e-4 @10^6",
                     "measured_s": med["heisenberg.orbit_block.1e6"],
                     "measured_drift": errors.by_op.get("heisenberg.orbit_block")})
        rows.append({"row": "nilsystem orbit_span(x, n, n) jump",
                     "baseline": "error 1.3e-4 @10^6, 0.99 @10^7",
                     "measured_error": [errors.by_op.get("heisenberg.jump.1e6"),
                                        errors.by_op.get("heisenberg.jump.1e7")],
                     "measured_unwrapped_difference": [
                         errors.raw.get("heisenberg.jump.1e6"),
                         errors.raw.get("heisenberg.jump.1e7")],
                     "note": "errors are wrap-around distances in turns; the baseline's "
                             "0.99 at 10^7 matches the plain difference, which is "
                             "1 minus a small wrap-around error"})
    return rows


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def record_reference(args, runner):
    if args.seed != 0:
        sys.exit("perfbench: references are recorded at seed 0 only")
    doc = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            doc = json.load(fh)
    doc[args.workload] = runner.recorded
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in its own process (peak RSS is per workload); prints a table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        summary = json.loads(lines[-2].split(" ", 1)[1])
        rows.append((name, summary, json.loads(lines[-1])))
    units = rows[0][1]["end_to_end"]
    print("%-10s" % "workload" + "".join("%18s" % n for n in E2E_ORDER))
    print("%-10s" % "" + "".join("%18s" % ("[%s]" % units[n]["unit"]) for n in E2E_ORDER))
    for name, summary, final in rows:
        vals = summary["end_to_end"]
        print("%-10s" % name + "".join(
            "%18s" % ("-" if vals[n]["value"] is None else "%.6g" % vals[n]["value"])
            for n in E2E_ORDER))
    for name, summary, final in rows:
        print("%s: attempted=%d failed=%d correct=%s probes=%s" % (
            name, final["attempted"], final["failed"], final["correct"],
            json.dumps(summary["known_defect_probes"])))
    ok = all(final["correct"] for _, _, final in rows)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
