"""Run one benchmark workload, check every output, print every metric.

    python3 benchmarks/run.py --workload {grow,exact,replicate,oracle} \
        [--seed 0] [--seconds 15] [--trace 0|1]

One process, one thread, one caller: ops run one after another (a closed
loop), each timed alone.  `--trace 0` prints the end-to-end metrics;
`--trace 1` wraps every layer's public functions, prints the per-layer
metrics, and runs the workload once more, untraced, in a fresh interpreter
to report the tracing overhead.  The last line of output is one JSON object.
A run record (machine facts, every op, every failure) is written under
`benchmarks/out/`.  The exit code is 0 only when every correctness gate
of the timed ops passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common
from common import GateFailure, OUT_DIR, REFERENCE_FILE, WORKLOADS

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))

# what one unit of `work_per_s` is, and the workload-specific name it is also printed as
WORK_UNITS = {"grow": ("labels grown", "labels_per_s"),
              "exact": ("exact atoms (pmf atoms, roots, coefficients)", "exact_atoms_per_s"),
              "replicate": ("replicate-steps", "replicate_steps_per_s"),
              "oracle": ("weighted trees enumerated", "oracle_trees_per_s")}

SETUP_SAMPLES = 3
RUN_LIMIT_S = 175.0


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    from tracing import LAYERS
    busy = ["trees.encode", "trees.decode", "trees.canonicalize", "trees.census",
            "spectral.indicial_roots", "dist_k.pmf_K", "dist_k.pmf_K_exact", "dist_k.limit_K",
            "dist_desc.pmf_Y", "dist_desc.pmf_tau", "dist_desc.pmf_X",
            "dist_desc.limit_reference", "urns.simulate_urn", "urns.urn_spectrum",
            "urns.char_poly", "montecarlo.sample_K", "montecarlo.sample_Y",
            "montecarlo.sample_urn_counts", "montecarlo.sample_root_degree",
            "enumeration.enumerate_trees", "enumeration.exact_statistic_pmf",
            "enumeration.exact_probability"]
    out = [("grow.busy_s", "s"), ("grow.calls", "count"), ("grow.labels", "count"),
           ("grow.labels_per_s", "1/s")]
    out += [(f"grow.ns_per_label.{k}", "ns") for k in ("recursive", "ary", "port", "linear")]
    out += [("grow.tree_over_census", "1"), ("trees.decode_chars_per_s", "1/s"),
            ("trees.nodes", "count"), ("families.busy_s", "s"), ("families.calls", "count"),
            ("spectral.indicial_roots.calls", "count"), ("spectral.fallbacks", "count"),
            ("spectral.polyval_calls", "count"), ("spectral.max_residual", "1"),
            ("dist_desc.max_denominator_bits", "bit"), ("pmf.mixture.self_s", "s"),
            ("pmf.check.self_s", "s"), ("urns.steps_per_s", "1/s"),
            ("montecarlo.replicate_steps", "count"),
            ("montecarlo.replicate_steps_per_s", "1/s"), ("gof.busy_s", "s"),
            ("gof.min_p", "1"), ("enumeration.trees", "count"),
            ("enumeration.trees_per_s", "1/s"), ("bijections.busy_s", "s"),
            ("bijections.round_trips", "count")]
    out += [(f"{name}.busy_s", "s") for name in busy]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(f"{layer}.failed", "count") for layer in LAYERS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_ratio", "1"),
            ("trace.spans", "count"), ("trace.spans_dropped", "count")]
    return out


# ---------------------------------------------------------------------------
# running the ops


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_FILE):
        return {"digests": {}}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def time_op(op, ref, state: dict, tracer=None):
    """Run one op under the timer; return its record and its outcome (None on error)."""
    rec = {"id": op.id, "layer": op.layer, "status": "ok", "detail": "",
           "work": 0, "busy": 0.0, "p": None, "digest": None, "digest_checked": False}
    if op.known_defect:
        rec["known_defect"] = op.known_defect
    if tracer is not None:
        tracer.op, tracer.active = op.id, True
    t0 = time.perf_counter()
    try:
        out = op.run(ref, state)
    except Exception as exc:  # an op that raises counts as failed; keep why
        out = None
        rec["status"] = "error"
        rec["detail"] = f"{type(exc).__name__}: {str(exc)[:300]}"
        rec["traceback"] = traceback.format_exc(limit=-8)
    rec["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if out is not None:
        rec["work"], rec["busy"] = out.work, out.busy
    return rec, out


def check_op(op, out, ref, rec: dict, reference: dict) -> None:
    """Run the op's correctness gates (untimed) and the digest check, into `rec`."""
    import gates
    if out is None:
        return
    try:
        rec["p"] = op.check(out, ref)
        if out.pmfs:
            rec["digest"] = "+".join(common.pmf_digest(p) for p in out.pmfs)
            rec["digest_checked"] = gates.digest_matches(op.id, rec["digest"],
                                                         reference["digests"])
    except GateFailure as exc:
        rec["status"], rec["detail"] = "gate", str(exc)[:300]
    except Exception as exc:  # a gate that cannot even evaluate the output
        rec["status"] = "gate"
        rec["detail"] = f"{type(exc).__name__} in gate: {str(exc)[:300]}"
        rec["traceback"] = traceback.format_exc(limit=-8)


def execute(op, ref, state: dict, reference: dict) -> dict:
    """Time one op, then check it; return its record (raw seconds)."""
    rec, out = time_op(op, ref, state)
    check_op(op, out, ref, rec, reference)
    return rec


def apply_stochastic_threshold(records: list, significance: float) -> float:
    """Fail every stochastic op whose p-value is below the Bonferroni threshold."""
    import gates
    stochastic = [r for r in records if r["p"] is not None]
    threshold = gates.stochastic_threshold(significance, len(stochastic))
    for r in stochastic:
        if r["status"] == "ok" and r["p"] < threshold:
            r["status"], r["detail"] = "gate", f"p={r['p']:.3g} below {threshold:.3g}"
    return threshold


def run_workload(workload: str, seed: int, seconds: float, tracer=None,
                 reference: dict = None) -> dict:
    import workloads
    from buckettrees import verify
    if reference is None:
        reference = load_reference()
    ops, probes = workloads.build(workload, seed, common.rounds_for(seconds))
    refs = [op.prepare() if op.prepare else None for op in ops]  # exact references, untimed
    state: dict = {}
    records = []
    before = common.host_speed_factor()
    for op, ref in zip(ops, refs):
        rec, out = time_op(op, ref, state, tracer)
        after = common.host_speed_factor()
        factor = rec["speed_factor"] = (before + after) / 2
        rec["seconds_raw"] = rec["seconds"]
        rec["seconds"] /= factor
        rec["busy"] /= factor
        before = after
        check_op(op, out, ref, rec, reference)
        records.append(rec)
    probe_records = [execute(op, op.prepare() if op.prepare else None, state, reference)
                     for op in probes]

    threshold = apply_stochastic_threshold(records, verify.SIGNIFICANCE)

    digests = {r["id"]: r["digest"] for r in records if r["digest"]}
    complete = True
    if (reference.get("seed") == seed and reference.get("seconds") == seconds
            and workload in reference.get("combined", {})):
        complete = common.ops_digest(digests) == reference["combined"][workload]
    failed = [r for r in records if r["status"] != "ok"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "records": records, "probes": probe_records,
            "stochastic_threshold": threshold, "digests": digests,
            "digest_checked": sum(r["digest_checked"] for r in records),
            "reference_complete": complete,
            "correct": not failed and complete,
            "attempted": len(records), "failed": len(failed)}


def end_to_end(run: dict, setup_samples: list) -> dict:
    # Harrell-Davis quantiles weigh the order statistics near each quantile,
    # so a gap between two clusters of op latencies does not make them jump
    from scipy.stats.mstats import hdquantiles
    recs = run["records"]
    lat = [r["seconds"] for r in recs]
    busy = sum(r["busy"] for r in recs)
    work = sum(r["work"] for r in recs)
    p50, p90 = hdquantiles(lat, prob=(0.5, 0.9))
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(lat),
        "op_p50_ms": 1e3 * float(p50),
        "op_p90_ms": 1e3 * float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": work / busy if busy > 0 else 0.0,
    }


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of fresh interpreters that import the package and warm each layer,
    divided by the host speed factor measured just before and after each."""
    probe = os.path.join(common.BENCH_DIR, "probe.py")
    out = []
    for _ in range(samples):
        before = common.host_speed_factor()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe], cwd=common.ROOT, check=True, timeout=120)
        wall = time.perf_counter() - t0
        out.append(wall / ((before + common.host_speed_factor()) / 2))
    return out


def facts() -> dict:
    import mpmath
    import numpy
    import scipy
    src_lines = 0
    for name in sorted(os.listdir(common.PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(common.PACKAGE, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_lines": src_lines}


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(common.ROOT):
        return "unavailable"
    return lines[1]


# ---------------------------------------------------------------------------
# reporting


def failure_summary(run: dict) -> dict:
    from tracing import LAYERS
    every = run["records"] + run["probes"]
    failed = [r for r in every if r["status"] != "ok"]
    per_layer = {layer: sum(1 for r in failed if r["layer"] == layer) for layer in LAYERS}
    return {"failed_ratio": len(failed) / len(every), "failed_ops": len(failed),
            "attempted_ops": len(every), "per_layer": per_layer,
            "known_defects": [{k: r.get(k) for k in ("id", "layer", "status", "detail",
                                                     "known_defect")}
                              for r in run["probes"]]}


def write_record(name: str, record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=common.ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        common.use_checkout_source()
    except common.SourceMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup()
    t0 = time.perf_counter()
    import probe
    probe.warm_up()
    in_process_setup = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = failure_summary(run)
    unit_of_work, alias = WORK_UNITS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts(), "setup_samples_s": setup,
              "in_process_setup_s": in_process_setup, "failures": failures,
              "work_unit": unit_of_work,
              "stochastic_threshold": run["stochastic_threshold"],
              "digest_checked": run["digest_checked"], "digests": run["digests"],
              "reference_complete": run["reference_complete"],
              "ops": run["records"], "probes": run["probes"]}

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.tsv")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(spans_path)
        traced_wall = sum(r["seconds"] for r in run["records"])
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=common.ROOT, capture_output=True, text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)))
        untraced = json.loads(child.stdout.strip().splitlines()[-1])
        untraced_wall = untraced["metrics"]["wall_s"]["value"]
        metrics = tracer.layer_metrics()
        metrics.update({f"{layer}.failed": n for layer, n in failures["per_layer"].items()})
        metrics.update({"trace.wall_s": traced_wall,
                        "trace.overhead_s": traced_wall - untraced_wall,
                        "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall})
        units = dict(per_layer_metrics())
        metrics = {name: metrics[name] for name in units}
        correct = run["correct"] and untraced["correct"]
        record.update({"per_layer": metrics, "spans_file": os.path.relpath(spans_path, common.ROOT),
                       "untraced_wall_s": untraced_wall})
    else:
        metrics = end_to_end(run, setup)
        units = dict(END_TO_END)
        correct = run["correct"]
        record["end_to_end"] = metrics
    record["correct"] = correct
    path = write_record(f"{tag}.json", record)

    print(f"workload {args.workload}  seed {args.seed}  timed ops {run['attempted']}  "
          f"unit of work: {unit_of_work}")
    print_metrics(metrics, units)
    if not args.trace:
        print(f"{alias:40s} {metrics['work_per_s']!r:>24} 1/s  (work_per_s on {args.workload})")
    print(f"{'failed_ratio':40s} {failures['failed_ratio']!r:>24} 1  "
          f"({failures['failed_ops']} of {failures['attempted_ops']} ops, known defects included)")
    for r in run["records"] + run["probes"]:
        if r["status"] != "ok":
            tag_ = "known defect" if r.get("known_defect") else "FAILED"
            print(f"  {tag_}: {r['id']}: {r['detail']}")
    print(f"record: {os.path.relpath(path, common.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
