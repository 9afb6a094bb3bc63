"""One fresh interpreter running one workload; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --passes P [--trace] [--setup-only] [--smoke] --workdir D

The package must be importable (run.py puts src/ on PYTHONPATH).  The
worker prints "READY <set-up seconds>" once set-up is done, then runs the
timed phase as a closed loop with one caller, checks every answer, and
prints one JSON line with the results.  Times are CPU time of this
process (user + system) scaled to the reference processor speed by
calibration.py; raw_wall_s keeps the unscaled CPU seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import calibration

STARTED = calibration.sample()

import clibatch  # noqa: E402  (after the first calibration sample)
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def ready() -> float:
    """Report set-up time since process start; return its scale factor."""
    cpu = time.process_time()
    factor = calibration.scale(STARTED, calibration.sample())
    print(f"READY {cpu * factor!r}", flush=True)
    return factor


def timed(items, run_one, tracer) -> dict:
    """Run each item in turn; scaled latencies, outputs, and the scale
    factor of every task (for the spans recorded during it)."""
    outputs, latencies, factors, raw = [], [], {}, 0.0
    before = calibration.sample()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.task = i
        start = time.process_time()
        outputs.append(run_one(item))
        cpu = time.process_time() - start
        after = calibration.sample()
        factors[i] = calibration.scale(before, after)
        latencies.append(cpu * factors[i])
        raw += cpu
        before = after
    return {"outputs": outputs, "latencies_s": latencies, "factors": factors,
            "wall_s": sum(latencies), "raw_wall_s": raw,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_library(args, tracer) -> dict:
    import expansions
    import tasks as task_lists

    if tracer is not None:
        tracer.install(expansions)
    todo = []
    for p in range(args.passes):
        todo += task_lists.build(expansions, args.workload, args.seed + 7919 * p, args.smoke)
    setup_factor = ready()
    if args.setup_only:
        return {}

    def run_one(task):
        try:
            return task.run()
        except Exception as exc:  # a raising task is a failed task, not a crashed run
            return exc

    result = timed(todo, run_one, tracer)
    result["factors"]["setup"] = setup_factor
    if tracer is not None:
        tracer.active = False

    failures = []
    for i, (task, out) in enumerate(zip(todo, result.pop("outputs"))):
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        else:
            try:
                problems = task.check(out)
            except Exception as exc:  # a malformed result must not stop the gate
                problems = [f"result could not be checked: {exc!r}"]
        if problems:
            failures.append({"task": i, "kind": task.kind, "problems": problems,
                             "reference": task.source})
    return dict(result, failures=failures, known=[], exits={})


def run_cli_replay(args, tracer) -> dict:
    """Traced cli-batch: the same argv, in-process through cli.main."""
    import expansions
    from expansions import cli

    tracer.install(expansions)
    files, calls = clibatch.plan(args.seed, args.passes, args.smoke)
    clibatch.write_files(args.workdir, files)
    main = tracer.span("cli.main", cli.main)
    setup_factor = ready()

    def run_one(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(clibatch.with_dir(args.workdir, call.argv))
            except Exception:  # an escaping exception is what exit 1 with a traceback means
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    result = timed(calls, run_one, tracer)
    result["factors"]["setup"] = setup_factor
    tracer.active = False
    failures, known, exits = clibatch.judge_all(calls, result.pop("outputs"))
    return dict(result, failures=failures, known=known, exits=exits)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if args.workload != "cli-batch":
        result = run_library(args, tracer)
    elif tracer is not None:
        result = run_cli_replay(args, tracer)
    else:
        # untraced cli-batch calls are made by run.py; this only writes the inputs
        files, _ = clibatch.plan(args.seed, args.passes, args.smoke)
        clibatch.write_files(args.workdir, files)
        ready()
        return 0
    if args.setup_only:
        return 0
    if tracer is not None:
        result["layers"] = layers.from_tracer(tracer, result["factors"])
    del result["factors"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
