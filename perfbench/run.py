"""Benchmark of the expansions library, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-audit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, traced and not
    python3 perfbench/run.py --all --smoke           # toy sizes

Workloads (details and predictions in perfbench/manifest.json):

  paper-audit     the paper's forest pipeline: crosscut pairs, audits and
                  completions of random trees and forests, freeness proofs
                  and core copies for every tree on 5-6 vertices, exact
                  Turan numbers, forest-bound and sigma-jump audits
  generic-inputs  the same public functions on unstructured inputs
  cli-batch       sequential `python -m expansions.cli ... --json` calls
                  covering all 18 subcommands and malformed inputs

Times are CPU time (user + system) of the process doing the work: the
worker for a library workload, each CLI child for cli-batch.  On the
shared 2-core host this was written on, wall-clock time of identical work
varied by up to 3x and CPU time by up to 1.7x, switching within seconds,
so every timed piece of work is bracketed by calibration samples and its
CPU time is scaled to a reference processor speed (calibration.py).  All
processes are pinned to one CPU so the samples see the processor the
work ran on.  wall_s is the scaled CPU time of the whole timed phase; the
unscaled figure is printed beside the metrics.

Every workload is a closed loop with one caller.  A library workload runs
in a fresh interpreter (worker.py) with src/ on PYTHONPATH; its work is a
fixed, seeded task list of about --seconds at the time of writing, so the
same seed always does the same work.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 a separate run wraps the library's
public functions in spans and reports the per-layer metrics.  Every answer
is checked against a reference (see reference.py and references.json);
the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

`failed` counts unexpected wrong answers.  Known defects listed in
manifest.json are reported by task and lower pass_ratio, but do not make
the run incorrect.  --all also runs each traced workload twice to check
that node and found counts repeat exactly, and writes
.bench_work/summary.json.
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

import calibration
import clibatch
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-audit", "generic-inputs", "cli-batch")
# seconds of timed work in one pass over a workload's task list
NOMINAL_PASS_S = {"paper-audit": 25.0, "generic-inputs": 10.0, "cli-batch": 15.0}
SETUP_REPS = 4
PROBE_REPS = 7
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, root: str, seed: int, seconds: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.seconds = seconds
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
        # children inherit this: calibration samples taken here then run on
        # the processor that did the work they scale
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def passes(self, workload: str) -> int:
        return 1 if self.smoke else max(1, round(self.seconds / NOMINAL_PASS_S[workload]))

    # ------------------------------------------------------------ children

    def worker(self, workload: str, *flags: str) -> tuple[float, dict]:
        """(set-up CPU seconds, parsed result) of one worker process."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(self.seed), "--passes", str(self.passes(workload)),
                "--workdir", self.work, *flags] + (["--smoke"] if self.smoke else [])
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=self.env,
                                cwd=self.root)
        try:
            ready = proc.stdout.readline().split()
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker for {workload} timed out") from None
        if len(ready) != 2 or ready[0] != "READY" or proc.returncode != 0:
            raise BenchError(f"worker for {workload} failed (exit {proc.returncode})")
        lines = rest.strip().splitlines()
        return float(ready[1]), (json.loads(lines[-1]) if lines else {})

    def setup_times(self, workload: str) -> list[float]:
        return [self.worker(workload, "--setup-only")[0] for _ in range(SETUP_REPS - 1)]

    def child(self, argv: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """(exit code, CPU seconds, scaled CPU seconds, peak RSS in MB) of
        one child process, bracketed by calibration samples."""
        before = calibration.sample()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env, cwd=self.root)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        scaled = cpu * calibration.scale(before, calibration.sample())
        return proc.returncode, cpu, scaled, usage.ru_maxrss / 1024.0

    def probe_ms(self, argv: list[str]) -> float:
        """Median scaled CPU time of a short child process, in milliseconds."""
        runs = [self.child(argv) for _ in range(PROBE_REPS)]
        if any(code != 0 for code, _, _, _ in runs):
            raise BenchError(f"probe {argv[1:]} failed")
        return statistics.median(scaled for _, _, scaled, _ in runs) * 1000.0

    def import_ms(self) -> float:
        code = ("import time; t = time.process_time(); import expansions; "
                "print((time.process_time() - t) * 1000)")
        values = []
        for _ in range(PROBE_REPS):
            before = calibration.sample()
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=self.env, cwd=self.root, check=True, timeout=60).stdout
            values.append(float(out) * calibration.scale(before, calibration.sample()))
        return statistics.median(values)

    def cli_startup_ms(self) -> float:
        return self.probe_ms([sys.executable, "-m", "expansions.cli"])

    def warm(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        subprocess.run([sys.executable, "-c", "import expansions.cli"], env=self.env,
                       cwd=self.root, check=True, timeout=120)

    # ------------------------------------------------------------- batches

    def cli_batch(self) -> tuple[float, dict]:
        """Untraced cli-batch: one subprocess per call, in plan order."""
        setups = self.setup_times("cli-batch") + [self.worker("cli-batch", "--setup-only")[0]]
        _, calls = clibatch.plan(self.seed, self.passes("cli-batch"), self.smoke)
        results, latencies, rss, raw = [], [], [], 0.0
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        for call in calls:
            argv = [sys.executable, "-m", "expansions.cli"] + clibatch.with_dir(self.work, call.argv)
            with open(out_path, "w") as out, open(err_path, "w") as err:
                code, cpu, scaled, rss_mb = self.child(argv, out, err)
            latencies.append(scaled)
            rss.append(rss_mb)
            raw += cpu
            with open(out_path) as out, open(err_path) as err:
                results.append((code, out.read(), err.read()))
        failures, known, exits = clibatch.judge_all(calls, results)
        return statistics.median(setups), {
            "wall_s": sum(latencies), "raw_wall_s": raw, "latencies_s": latencies,
            "failures": failures, "known": known, "peak_rss_mb": max(rss), "exits": exits}

    def library(self, workload: str) -> tuple[float, dict]:
        setups = self.setup_times(workload)
        setup_s, result = self.worker(workload)
        return statistics.median(setups + [setup_s]), result

    # ----------------------------------------------------------------- runs

    def run(self, workload: str, trace: bool) -> dict:
        os.makedirs(self.work, exist_ok=True)
        try:
            self.warm()
            if trace:
                return self.traced(workload)
            return self.untraced(workload)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def untraced(self, workload: str) -> dict:
        if workload == "cli-batch":
            setup_s, result = self.cli_batch()
        else:
            setup_s, result = self.library(workload)
        lat_ms = [x * 1000.0 for x in result["latencies_s"]]
        pct, tail_ms = layers.tail(lat_ms)
        attempted = len(lat_ms)
        values = {
            "wall_s": result["wall_s"],
            "task_p50_ms": statistics.median(lat_ms),
            "task_tail_ms": tail_ms,
            "setup_s": setup_s,
            "pass_ratio": 1.0 - (len(result["failures"]) + len(result["known"])) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
            "cli_startup_ms": self.cli_startup_ms(),
        }
        return {"workload": workload, "trace": False, "attempted": attempted,
                "raw_wall_s": result["raw_wall_s"],
                "failures": result["failures"], "known": result["known"],
                "tail_percentile": pct,
                "fail_ratio": 1.0 - values["pass_ratio"], "values": values,
                "units": {name: unit for name, unit, _ in layers.END_TO_END}}

    def traced(self, workload: str) -> dict:
        _, result = self.worker(workload, "--trace")
        values = dict(result["layers"])
        exits = result["exits"]
        for key in ("exit0", "exit2", "exit3", "unexpected"):
            values[f"cli.{key}"] = exits.get(key, 0)
        values["cli.interp_ms"] = self.probe_ms([sys.executable, "-c", "pass"])
        values["cli.import_ms"] = self.import_ms()
        values["trace.wall_s"] = result["wall_s"]
        return {"workload": workload, "trace": True, "attempted": len(result["latencies_s"]),
                "failures": result["failures"], "known": result["known"], "values": values,
                "units": {name: unit for name, unit, _ in layers.PER_LAYER}}


def report(run: dict, stream) -> dict:
    """Print a run's metrics by name and unit; return the contract JSON."""
    tag = "traced" if run["trace"] else "untraced"
    print(f"# {run['workload']} ({tag}): {run['attempted']} tasks", file=stream)
    metrics = {}
    for name, unit in run["units"].items():
        value = run["values"][name]
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "task_tail_ms":
            note = f"  (p{run['tail_percentile']:g} of {run['attempted']} tasks)"
        print(f"{name:48s} {value:>16.6f} {unit}{note}", file=stream)
    if not run["trace"]:
        print(f"{'(unscaled CPU seconds of the timed phase)':48s} {run['raw_wall_s']:>16.6f} s",
              file=stream)
        print(f"{'fail_ratio':48s} {run['fail_ratio']:>16.6f} ratio  "
              f"({len(run['failures'])} unexpected + {len(run['known'])} known)", file=stream)
    for row in run["known"]:
        print(f"known defect, task {row['task']}: {row['argv']}: {row['problems']}", file=stream)
    for row in run["failures"][:20]:
        source = f" (reference: {row['reference']})" if "reference" in row else ""
        print(f"FAILED task {row['task']}: {row.get('argv', row.get('kind'))}: "
              f"{row['problems']}{source}", file=stream)
    return {"correct": not run["failures"], "attempted": run["attempted"],
            "failed": len(run["failures"]), "metrics": metrics}


def run_all(bench: Bench) -> int:
    summary = {"seed": bench.seed, "seconds": bench.seconds, "smoke": bench.smoke,
               "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain = bench.run(workload, trace=False)
        traced = bench.run(workload, trace=True)
        again = bench.run(workload, trace=True)
        line = report(plain, sys.stdout)
        report(traced, sys.stdout)
        drift = {name: (traced["values"][name], again["values"][name])
                 for name in layers.EXACT_COUNTS
                 if traced["values"][name] != again["values"][name]}
        overhead = traced["values"]["trace.wall_s"] - plain["values"]["wall_s"]
        print(f"{'tracing overhead (traced - untraced wall_s)':48s} {overhead:>16.6f} s")
        if workload == "cli-batch":
            print("  (the traced cli-batch replays its calls in-process through cli.main, "
                  "so this difference also leaves out process start-up)")
        if drift:
            print(f"BENCHMARK BUG: exact counts differ between two runs of seed "
                  f"{bench.seed}: {drift}")
        ok = ok and line["correct"] and not drift and not traced["failures"]
        summary["workloads"][workload] = {
            "end_to_end": line["metrics"],
            "tail_percentile": plain["tail_percentile"], "samples": plain["attempted"],
            "fail_ratio": plain["fail_ratio"], "known_failures": plain["known"],
            "failures": plain["failures"] + traced["failures"],
            "per_layer": {k: {"value": v, "unit": traced["units"][k]}
                          for k, v in traced["values"].items()},
            "tracing_overhead_s": overhead, "exact_count_drift": drift,
        }
    os.makedirs(os.path.join(bench.root, ".bench_work"), exist_ok=True)
    path = os.path.join(bench.root, ".bench_work", "summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary written to {os.path.relpath(path, bench.root)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes for self-tests")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "expansions", "__init__.py")):
        print("error: run from the repository root; src/expansions was not found",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.seed, args.seconds, args.smoke)
    try:
        if args.all:
            return run_all(bench)
        run = bench.run(args.workload, trace=bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(run, sys.stdout)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
