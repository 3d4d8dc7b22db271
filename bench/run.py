"""Pipeline benchmark for ltmplan.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N

Run from the root of a source checkout: the program is imported from
./src and driven in process through `ltmplan.cli.main`, one CLI stage at a
time with every flag spelled out.  One operation is the workload's stage
sequence; operations repeat on the same generated inputs for about --seconds,
from one process and one thread of control.

--trace 0 times the operations and prints the end-to-end metrics.
--trace 1 alternates untraced operations with traced ones, in which every
call into an ltmplan module is a span, and prints the per-layer metrics and
the tracing overhead.  Either way the outputs of every operation are
checked; a failed check or a failed stage counts the operation as failed.
The last line of standard output is one JSON object; the lines before it
are the human-readable report.  Scratch files go to .bench-work/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench-work")
SETUP_REPEATS = 3
# operations whose layer self times miss the root span by more than this
# have a span outside the root, which is a tracing defect
SPAN_SUM_TOL = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to import, bad arguments)."""


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # the CLI reads LTMPLAN_* defaults; flags must be the only input
    for key in [k for k in os.environ if k.startswith("LTMPLAN_")]:
        del os.environ[key]
    try:
        cli = importlib.import_module("ltmplan.cli")
    except ImportError as exc:
        raise BenchError("cannot import ltmplan from %s: %s" % (src, exc))
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError("ltmplan imported from %s, not from %s" % (cli.__file__, src))
    return cli


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def first_line(text):
    lines = str(text).strip().splitlines()
    return lines[0] if lines else ""


def call_stage(cli, stage, argv):
    """Run one CLI stage in process; returns a failure record or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an uncaught error is the failure being recorded
        return "%s: %s: %s" % (stage, type(exc).__name__, first_line(exc))
    if rc not in (0, None):
        return "%s: exit %s: %s" % (stage, rc, first_line(err.getvalue()))
    return None


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(path) for f in files)


class Op:
    """One operation: stage times, failure record and what the checks read."""

    def __init__(self):
        self.stage_s = {}
        self.total_s = 0.0
        self.failure = None
        self.outcome = None
        self.spans = None
        self.replay = None
        self.bytes_written = 0

    @property
    def failed(self):
        return self.failure is not None or bool(self.outcome.problems)


def run_op(cli, wl, facts, d, out, tracer=None):
    op = Op()
    fresh_dir(out)
    done = []
    root = tracer.open("cli.op") if tracer else None
    t_op = time.perf_counter()
    for stage, argv in wl.stages(d, out):
        span = tracer.open("cli." + stage) if tracer else None
        t = time.perf_counter()
        op.failure = call_stage(cli, stage, argv)
        op.stage_s[stage] = time.perf_counter() - t
        if tracer:
            tracer.close(span, error=op.failure and op.failure.split(": ")[1])
        if op.failure:
            if tracer:
                with tracer.span("cli.replay"):
                    op.replay = wl.replay_after_failure(stage, d, out)
            break
        done.append(stage)
    op.total_s = time.perf_counter() - t_op
    if tracer:
        tracer.close(root)
        op.spans = spans.OpSpans(root, tracer.spans[root.sid:])
    op.outcome = wl.check(facts, d, out, done)
    op.bytes_written = dir_bytes(out)
    return op


def set_up(wl_cls, seed, base):
    """Generate the inputs SETUP_REPEATS times (the last with another seed)
    and self-test the generator; returns (median seconds, facts, input dir,
    self-test problems)."""
    seeds = [seed] * (SETUP_REPEATS - 1) + [seed + 1]
    times, digests, facts = [], [], None
    for i, s in enumerate(seeds):
        wl = wl_cls(s)
        d = fresh_dir(os.path.join(base, "inputs%d" % i))
        t = time.perf_counter()
        got = wl.generate(d)
        times.append(time.perf_counter() - t)
        digests.append(workloads.file_digest(wl.input_files(d)))
        if i == 0:
            facts = got
    problems = []
    if len(set(digests[:-1])) != 1:
        problems.append("generator: the same seed gave different inputs")
    if digests[-1] == digests[0]:
        problems.append("generator: seeds %d and %d gave the same inputs" % (seed, seed + 1))
    for label, ok in wl_cls(seed).properties(facts):
        if not ok:
            problems.append("generator: property failed: %s" % label)
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(base, "inputs%d" % i))
    return statistics.median(times), facts, os.path.join(base, "inputs0"), problems


def percentile_note(values):
    """The highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return ", p%d %.6g" % (p, q)
    return ""


def sampler_law(out):
    """Draws, acceptance and both predicted laws from validate.json and the
    moments in statistics.json (Monte Carlo validation only)."""
    path = os.path.join(out, "validate.json")
    if not os.path.exists(path):
        return None
    val = workloads.load_json(path)
    if "mean_attempts" not in val:
        return None
    moments = workloads.load_json(os.path.join(out, "statistics.json"))["moments"]
    draws = val["mean_attempts"] * val["replicates"]
    return {"replicates": val["replicates"], "draws": draws,
            "acceptance": val["replicates"] / draws,
            "predicted_dk_over_d": math.exp(-moments["dk"] / moments["d"]),
            "reported_nu_over_2": math.exp(-val["nu"] / 2.0)}


def run_workload(name, seed, seconds, trace):
    cli = import_program()
    import_s = time.perf_counter() - T_START
    wl_cls = workloads.WORKLOADS[name]
    wl = wl_cls(seed)
    base = fresh_dir(os.path.join(WORK, name))
    gen_s, facts, d, problems = set_up(wl_cls, seed, base)
    out = os.path.join(base, "out")
    tracer = spans.Tracer() if trace else None
    untraced, traced = [], []
    t0 = time.perf_counter()
    rounds = []
    while True:
        t = time.perf_counter()
        untraced.append(run_op(cli, wl, facts, d, out))
        if tracer:
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(run_op(cli, wl, facts, d, out, tracer))
            finally:
                tracer.uninstall()
        rounds.append(time.perf_counter() - t)
        # stop when one more round would overrun --seconds by more than half
        # of it, so a run of long operations lasts about --seconds
        if time.perf_counter() - t0 + statistics.median(rounds) / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = untraced + traced
    for i, op in enumerate(ops):
        wl.check_costs(op.outcome)
        problems.extend("op %d: %s" % (i, p) for p in op.outcome.problems)

    samples = {"pipeline_s": [op.total_s for op in untraced]}
    for stage, _ in wl.stages("", ""):
        samples[stage + "_s"] = [op.stage_s[stage] for op in untraced if stage in op.stage_s]
    if traced:
        metrics = traced_metrics(untraced, traced, problems)
    else:
        # Stage times stay in the report only: their medians spread 0.2-0.4
        # between runs on a shared 2-vCPU machine, wider than any usable bound.
        metrics = {"setup_s": {"value": import_s + gen_s, "unit": "s"},
                   "pipeline_s": {"value": statistics.median(samples["pipeline_s"]),
                                  "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    failed = sum(op.failed for op in ops)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "facts": facts,
        "setup": {"import_s": import_s, "generate_median_s": gen_s,
                  "repeats": SETUP_REPEATS},
        "samples": samples, "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops), "failed": failed,
        "failures": [op.failure for op in ops if op.failure],
        "problems": problems,
        "target": ops[0].outcome.target,
        "final_fractions": [f for op in ops for f in op.outcome.finals],
        "margins": ops[-1].outcome.margins,
        "costs_checked": len(ops[0].outcome.costs),
        "sampler_law": sampler_law(out),
        "replay": next((op.replay for op in traced if op.replay), None),
        "metrics": metrics,
    }
    if tracer:
        tracer.write(os.path.join(base, "trace.json"))
    with open(os.path.join(base, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    report(detail)
    # a failed stage leaves no output to check, so it is a failed check too
    return {"correct": failed == 0 and not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def traced_metrics(untraced, traced, problems):
    """Per-layer metrics: medians over the traced operations, plus the
    tracing overhead against the untraced operations of the same run."""
    per_op = [spans.op_metrics(op.spans) for op in traced]
    out = {name: {"value": float(statistics.median(m[name] for m in per_op)), "unit": unit}
           for name, (unit, _) in spans.PER_LAYER.items()}
    for i, op in enumerate(traced):
        err = spans.layer_sum_error(op.spans)
        if err > SPAN_SUM_TOL:
            problems.append("traced op %d: layer self times miss the root span by %g s"
                            % (i, err))
        if per_op[i]["lp.max_violation"] > workloads.LP_VIOLATION_TOL:
            problems.append("traced op %d: LP violation %g"
                            % (i, per_op[i]["lp.max_violation"]))
    out["cli.bytes_written"] = {"value": float(statistics.median(
        op.bytes_written for op in traced)), "unit": "B"}
    root = statistics.median(op.spans.root.duration for op in traced)
    out["trace.root_s"] = {"value": root, "unit": "s"}
    # comparable only when the untraced operations did the same work: a
    # traced operation replays past a failed stage, an untraced one stops
    comparable = not any(op.failure for op in untraced + traced)
    out["trace.overhead_s"] = {
        "value": root - statistics.median(op.total_s for op in untraced) if comparable else 0.0,
        "unit": "s"}
    return out


def report(d):
    print("workload %s  seed %d  seconds %g  trace %d  nproc %d"
          % (d["workload"], d["seed"], d["seconds"], d["trace"], d["nproc"]))
    setup = d["setup"]
    print("  setup_s          %.6g s (imports %.4g s + median of %d generations %.4g s)"
          % (setup["import_s"] + setup["generate_median_s"], setup["import_s"],
             setup["repeats"], setup["generate_median_s"]))
    for key, vals in d["samples"].items():
        if vals:
            print("  %-16s %.6g s (median of n=%d%s)"
                  % (key, statistics.median(vals), len(vals), percentile_note(vals)))
        else:
            print("  %-16s n/a (no operation reached this stage)" % key)
    print("  failed_ops       %.4g (%d failed / %d attempted)"
          % (d["failed"] / d["attempted"], d["failed"], d["attempted"]))
    for rec in sorted(set(d["failures"])):
        print("    failure        %s (%d ops)" % (rec, d["failures"].count(rec)))
    finals = d["final_fractions"]
    if finals:
        hits = sum(f >= d["target"] for f in finals)
        print("  target_hit_rate  %.4g (%d / %d cascades reach %.2f; mean final fraction %.4f)"
              % (hits / len(finals), hits, len(finals), d["target"], statistics.mean(finals)))
    else:
        print("  target_hit_rate  n/a (no cascade ran)")
    print("  peak_rss_mb      %.6g MB" % d["peak_rss_mb"])
    if d["margins"]:
        print("  audit margins    relaxed min %.6g, original min %.6g over %d plans"
              % (min(m[0] for m in d["margins"]), min(m[1] for m in d["margins"]),
                 len(d["margins"])))
    print("  plan costs       %d per operation checked against bench/reference.json"
          % d["costs_checked"])
    law = d["sampler_law"]
    if law:
        print("  sampler law      %d draws for %d replicates (%.1f per replicate), "
              "acceptance %.4g; e^-<dk>/<d> predicts %.4g (%.1f draws), "
              "e^-nu/2 as reported predicts %.4g (%.1f draws)"
              % (law["draws"], law["replicates"], law["draws"] / law["replicates"],
                 law["acceptance"], law["predicted_dk_over_d"], 1 / law["predicted_dk_over_d"],
                 law["reported_nu_over_2"], 1 / law["reported_nu_over_2"]))
    if d["replay"]:
        print("  traced replay    %s" % json.dumps(d["replay"]))
    for p in d["problems"]:
        print("  CHECK FAILED     %s" % p)
    if d["trace"]:
        for key, m in d["metrics"].items():
            print("  %-28s %.6g %s" % (key, m["value"], m["unit"]))


def run_all(seed, seconds, trace):
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError("workload %s exited with %d" % (name, proc.returncode))
        results[name] = json.loads(lines[-1])
    return {"workloads": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
