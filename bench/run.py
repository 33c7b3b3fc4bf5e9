"""The coxcone benchmark: one workload, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {enumerate,embed,check} --seed N \\
        --seconds S --trace {0,1}

Every job is a `coxcone.cli.main(argv)` call that writes its output under
bench/_out/, so argument parsing and JSON emission are measured too.  The
run prints one verdict line per job, every metric with its unit and
sample count, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
peak_rss_mb, ok_ratio); setup_s and pass_s rescale each set-up probe's
and job's wall time by the reference probes around it (see worker.py), so
that the host's changes of speed between runs cancel.  With --trace 1 they are the per-layer ones, from
spans recorded around calls into each coxcone module (see spans.py).
BLAS and OpenMP run one thread, so the benchmark measures coxcone on one
core of the two-vCPU host and set-up times do not depend on how many
threads numpy's import starts.
`correct` is false when any job fails in a way that no entry of
workloads.KNOWN_DEFECTS explains.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

RUN_LIMIT_S = 170   # the whole run, set-up included, ends within this
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(values) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def run_worker(run_dir: Path, args, budget: float) -> dict:
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(run_dir),
                    args.workload, str(args.seed), str(args.seconds), str(args.trace)],
                   check=True, timeout=budget, env={**os.environ, **ONE_THREAD})
    return json.loads((run_dir / "result.json").read_text())


def report_jobs(result: dict) -> tuple[int, int, bool]:
    """Print one verdict line per job; return (attempted, failed, correct).

    A job counts once per run, whatever the number of passes: it fails when
    its output fails the oracles in any pass.  The counts are then a
    function of the seed alone, not of how many passes the host's speed
    allowed."""
    passes = result["passes"]
    attempted = failed = 0
    correct = True
    seen: set[str] = set()
    timed = [p for p in passes if not p["traced"]]
    for job in result["jobs"]:
        jid = job["id"]
        verdicts = [p["verdicts"][jid] for p in passes]
        bad = [v for v in verdicts if not v["ok"]]
        attempted += 1
        failed += bool(bad)
        unknown = [v for v in bad if v["known"] is None]
        seen.update(label for v in bad if v["known"] for label in v["known"].split("+"))
        correct &= not unknown
        seconds = _median([p["job_s"][jid] for p in timed])
        size = " ".join(f"{k}={v}" for k, v in job["size"].items())
        if not bad:
            status = "ok"
        else:
            worst = (unknown or bad)[0]
            label = "UNEXPECTED" if unknown else f"known:{worst['known']}"
            status = (f"FAIL {len(bad)}/{len(verdicts)} ({label}) "
                      + "; ".join(worst["failed_assertions"])[:300])
        print(f"job {jid:<28} {size:<10} {seconds:8.3f} s  {status}")
    for label in sorted(seen):
        print(f"known defect {label}: {workloads.KNOWN_DEFECTS[label]}")
    return attempted, failed, correct


def rescale(times, refs, nominal: float) -> list[float]:
    """Wall times at the host speed where the reference probe takes
    `nominal` seconds: each time over the mean of the probes just before
    and just after it (refs[k] and refs[k + 1])."""
    return [t * 2 * nominal / (refs[k] + refs[k + 1]) for k, t in enumerate(times)]


def end_to_end(result: dict) -> dict:
    passes = result["passes"]
    nominal = result["reference_nominal_s"]
    setup = rescale(result["setup_s"], result["setup_reference_s"], nominal)
    pass_times = [sum(rescale(p["job_s"].values(), p["reference_s"], nominal)) for p in passes]
    verdicts = [v for p in passes for v in p["verdicts"].values()]
    total = sum(v["assertions"] for v in verdicts)
    broken = sum(len(v["failed_assertions"]) for v in verdicts)
    jobs_failed = sum(not all(p["verdicts"][j["id"]]["ok"] for p in passes)
                      for j in result["jobs"])
    tail = _tail(pass_times)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 f"no percentile: {len(pass_times)} passes leave fewer than 10 beyond any")
    print("pass wall times: " + " ".join(f"{p['pass_s']:.3f}" for p in passes)
          + " s; rescaled: " + " ".join(f"{t:.3f}" for t in pass_times)
          + " s; reference probe medians: "
          + " ".join(f"{_median(p['reference_s']) * 1e3:.2f}" for p in passes) + " ms")
    print(f"metric setup_s     {_median(setup):10.4f} s     median of {len(setup)} fresh interpreters, "
          f"each rescaled like the jobs (wall median {_median(result['setup_s']):.4f} s)")
    print(f"metric pass_s      {_median(pass_times):10.4f} s     median of {len(passes)} passes, "
          f"each rescaled to a {nominal * 1e3:.0f} ms reference probe (wall median "
          f"{_median([p['pass_s'] for p in passes]):.4f} s); {tail_text}")
    print(f"metric peak_rss_mb {result['peak_rss_kb'] / 1024:10.1f} MB    ru_maxrss of 1 fresh worker process after its first pass")
    print(f"metric fail_ratio  {jobs_failed / len(result['jobs']):10.4f} ratio {jobs_failed} failed of "
          f"{len(result['jobs'])} jobs attempted, each counted once over {len(passes)} passes")
    print(f"metric ok_ratio    {1 - broken / total:10.4f} ratio {total - broken} of {total} oracle assertions hold")
    return {
        "setup_s": {"value": _median(setup), "unit": "s"},
        "pass_s": {"value": _median(pass_times), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "ok_ratio": {"value": 1 - broken / total, "unit": "ratio"},
    }


def per_layer(result: dict) -> tuple[dict, bool]:
    passes = result["passes"]
    plain = [p["pass_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics: dict[str, dict] = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_share") \
            else "B" if name.endswith("_bytes") else "count"
        metrics[name] = {"value": _median([p["layers"][name] for p in traced]), "unit": unit}
    metrics["cli.bytes_out"] = {"value": _median([p["bytes_out"] for p in traced]), "unit": "B"}
    gauges = [g for g in result["headroom"].values() if g == g]   # NaN: no exact roots
    metrics["numeric.headroom"] = {"value": max(gauges, default=0.0), "unit": "ratio"}
    traced_pass = _median([p["pass_s"] for p in traced])
    overhead = traced_pass - _median(plain)
    # the layer self times and the tracer's counting cover every cli.main
    # call; what is left of the traced pass is the harness's own loop
    unattributed = _median([p["pass_s"] - p["layers"]["trace.count_s"]
                            - sum(p["layers"][f"{layer}.self_s"] for layer in spans.LAYERS)
                            for p in traced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    consistent = abs(unattributed) <= max(overhead, 0.01 * traced_pass)
    print(f"trace: {len(traced)} traced passes, {len(plain)} untraced; traced pass "
          f"{traced_pass:.4f} s, overhead {overhead:+.4f} s, traced pass minus layer "
          f"self times and counting {unattributed:+.4f} s -> "
          f"{'consistent' if consistent else 'INCONSISTENT'}")
    for layer in [n.removesuffix(".self_share") for n in metrics if n.endswith(".self_share")]:
        print(f"layer {layer:<12} self {metrics[f'{layer}.self_s']['value']:9.4f} s"
              f"  share {metrics[f'{layer}.self_share']['value']:6.1%}")
    for name, m in metrics.items():
        print(f"metric {name:<42} {m['value']:14.6g} {m['unit']:<5} median of {len(traced)} traced passes")
    return metrics, consistent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "coxcone" / "__init__.py").is_file():
        print(f"error: no coxcone package under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    datum_dir = run_dir / "datums"
    datum_dir.mkdir(parents=True, exist_ok=True)
    try:
        docs, _ = workloads.build(args.workload, args.seed)
        for name, doc in docs.items():
            (datum_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_worker(run_dir, args, budget)
        if args.trace:
            shutil.copyfile(run_dir / "trace.jsonl", OUT / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(result['passes'])} passes, "
          f"{len(result['jobs'])} jobs per pass; headroom gauge per datum: "
          + ", ".join(f"{k}={v:.3g}" for k, v in result["headroom"].items()))
    attempted, failed, correct = report_jobs(result)
    if args.trace:
        metrics, consistent = per_layer(result)
        correct &= consistent
    else:
        metrics = end_to_end(result)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
