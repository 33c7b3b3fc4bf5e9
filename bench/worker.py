"""Runs one workload's passes in a fresh process and writes the raw results.

Usage: python3 worker.py <run dir> <workload> <seed> <seconds> <trace 0|1>

Reads the datum documents from <run dir>/datums, times SETUP_PROBES set-up
probes, then runs every job of the workload through coxcone.cli.main once
per pass until <seconds> have passed.  A reference probe runs before each
set-up probe and job and after the last one, outside their timings: the
two probes around a set-up probe or job give the host's speed while it
ran.  Each pass's outputs are checked against the
oracles between passes, outside the timed region, and the results go to
<run dir>/result.json.  With trace 1 every second pass is traced.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 20   # fresh interpreters timed per run, before the passes

# Pass times are rescaled to a host where the reference probe takes this
# long, close to its usual time on the 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4) the baseline in README.md was taken on.
REFERENCE_S = 0.008
REFERENCE_RUNS = 3
_REF_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0


def reference_probe() -> float:
    """Seconds one fixed piece of work takes now, the least of REFERENCE_RUNS.

    The work is of the kinds a pass is made of: interpreter loops over
    dicts and tuples, products of small numpy matrices, and JSON text.  It
    calls no coxcone code, so its time follows the host's speed (which
    other tenants of the machine change by up to 1.5x within minutes), not
    the program's.  The least of a few runs drops those that an interrupt
    hit.
    """
    return min(_reference_work() for _ in range(REFERENCE_RUNS))


def _reference_work() -> float:
    start = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(8000):
        total += i * i % 7
        seen[(i % 97, i % 5)] = total
    m = _REF_MATRIX
    for _ in range(800):
        m = _REF_MATRIX @ m
        m = m / np.abs(m).max()
    json.dumps([x / 7 for x in range(1500)])
    return time.perf_counter() - start


def import_cli():
    """coxcone.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import coxcone.cli
    if Path(coxcone.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"coxcone was imported from {coxcone.cli.__file__}, not {SRC}")
    return coxcone.cli


class Runner:
    def __init__(self, run_dir: Path, workload: str, seed: int):
        self.cli = import_cli()
        self.docs, self.jobs = workloads.build(workload, seed)
        self.datum_dir = run_dir / "datums"
        self.job_dir = run_dir / "jobs"
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.facts: dict[str, workloads.Facts] = {}   # filled after the first pass
        self.tracer = None
        self.codes: dict[str, int] = {}
        self._checked: tuple[dict, dict] | None = None   # last outputs, their verdicts

    def _paths(self, job):
        stem = job.id.replace(":", "_").replace("@", "_at_")
        out = self.job_dir / f"{stem}.out" if job.writes_file else None
        return out, self.job_dir / f"{stem}.stdout", self.job_dir / f"{stem}.stderr"

    def run_pass(self) -> tuple[dict[str, float], list[float]]:
        """One pass over the job list: (time per job, reference probes)."""
        times: dict[str, float] = {}
        refs: list[float] = []
        clock = time.perf_counter
        for job in self.jobs:
            out, stdout, stderr = self._paths(job)
            argv = job.argv(str(self.datum_dir / f"{job.datum}.json"),
                            None if out is None else str(out))
            refs.append(reference_probe())
            if self.tracer is not None:
                self.tracer.start_job(job.id)
            t0 = clock()
            with open(stdout, "w", encoding="utf-8") as fo, \
                    open(stderr, "w", encoding="utf-8") as fe, \
                    contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a raising job is a failed job, not a crash
                    traceback.print_exc(file=fe)
                    code = -1
            times[job.id] = clock() - t0
            self.codes[job.id] = code
        refs.append(reference_probe())
        return times, refs

    def measure_setup(self) -> float:
        """Seconds a fresh interpreter takes to import coxcone and parse
        every datum document of the workload."""
        probe = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
             *(str(self.datum_dir / f"{name}.json") for name in self.docs)],
            check=True, timeout=60, capture_output=True, text=True)
        return float(probe.stdout)

    def verify_pass(self) -> tuple[dict, int]:
        """Oracle verdicts on the outputs the last pass left, and bytes out.
        Outputs identical to the last pass's keep that pass's verdicts."""
        outputs = {}
        bytes_out = 0
        for job in self.jobs:
            out, stdout, stderr = self._paths(job)
            code = self.codes[job.id]
            text = stdout.read_text(encoding="utf-8")
            bytes_out += len(text.encode())
            if out is not None and code == 0:
                text = out.read_text(encoding="utf-8")
                bytes_out += out.stat().st_size
            outputs[job.id] = (code, text, stderr.read_text(encoding="utf-8"))
            if out is not None:
                out.unlink(missing_ok=True)
        if self._checked is not None and self._checked[0] == outputs:
            return self._checked[1], bytes_out
        if not self.facts:
            self.facts = {name: workloads.Facts(doc, [j for j in self.jobs if j.datum == name])
                          for name, doc in self.docs.items()}
        verdicts = {job.id: workloads.verify(job, self.facts[job.datum], *outputs[job.id])
                    for job in self.jobs}
        workloads.cross_check(verdicts)
        for job in self.jobs:
            workloads.settle(verdicts[job.id], job, self.facts[job.datum])
        self._checked = (outputs, verdicts)
        return verdicts, bytes_out


def main() -> int:
    run_dir, workload, seed, seconds, trace = sys.argv[1:6]
    run_dir = Path(run_dir)
    seconds, trace = float(seconds), trace == "1"
    started = time.perf_counter()
    runner = Runner(run_dir, workload, int(seed))
    tracer = spans.Tracer() if trace else None
    setup: list[float] = []
    setup_refs: list[float] = []   # around each set-up probe, like the jobs'
    if not trace:
        setup_refs.append(reference_probe())
        for _ in range(SETUP_PROBES):
            setup.append(runner.measure_setup())
            setup_refs.append(reference_probe())

    passes: list[dict] = []
    peak_rss_kb = None
    # Passes run until the next one would end after `seconds`.  With
    # tracing they alternate untraced / traced, so both halves see the same
    # machine load and their difference is the tracing overhead.
    cycle = 0.0
    while len(passes) < (2 if trace else 1) or \
            time.perf_counter() - started + cycle <= seconds:
        cycle_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            runner.tracer = tracer
        try:
            job_times, refs = runner.run_pass()
        finally:
            if traced:
                tracer.start_job(None)
                tracer.uninstall()
                runner.tracer = None
        if peak_rss_kb is None:  # before any oracle work inflates it
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {"traced": traced, "pass_s": sum(job_times.values()), "job_s": job_times,
                  "reference_s": refs}
        if traced:
            record["layers"] = tracer.pass_metrics()
        verdicts, bytes_out = runner.verify_pass()
        record["bytes_out"] = bytes_out
        record["verdicts"] = {jid: {"ok": v.ok, "known": v.known,
                                    "assertions": len(v.assertions),
                                    "failed_assertions": v.failures()}
                              for jid, v in verdicts.items()}
        passes.append(record)
        cycle = time.perf_counter() - cycle_start

    if tracer is not None:
        tracer.write(run_dir / "trace.jsonl")
    result = {"workload": workload, "seed": int(seed), "passes": passes,
              "setup_s": setup, "setup_reference_s": setup_refs, "peak_rss_kb": peak_rss_kb,
              "reference_nominal_s": REFERENCE_S,
              "jobs": [{"id": j.id, "size": j.size} for j in runner.jobs],
              "headroom": {n: f.headroom for n, f in runner.facts.items()}}
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
