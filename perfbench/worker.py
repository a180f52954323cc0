"""Fresh process that drives ``fusionkit.cli.main`` for one workload.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source tree, the command sequence of one pass, the
measuring time and whether to trace. The worker imports fusionkit, runs one
untimed warm-up pass (pass 0), then timed passes until the measuring time
is used up. With tracing on it then installs the span wrappers and runs
traced passes for the same time. Every pass writes its outputs to its own
directory so the caller can check them. The result file holds every
invocation's exit code and wall time, the warm-up time, the moment the
imports finished (``time.monotonic``, comparable with the parent's clock)
and this process's peak resident set.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_pass(cli, plan: dict, index: int, tracer=None) -> dict:
    out = Path(plan["out_dir"]) / f"p{index:03d}"
    out.mkdir(parents=True, exist_ok=True)
    invocations = []
    pass_start = time.perf_counter()
    for cmd in plan["commands"]:
        argv = [a.replace("{out}", str(out)).replace("{endpoint}", plan["endpoint"])
                for a in cmd["argv"]]
        captured = io.StringIO()
        span = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is not None:
                tracer.invocation += 1
                span = tracer.open("cli.main")
            try:
                code = cli.main(argv)
            except Exception as err:  # noqa: BLE001 - recorded as a failure
                code = f"{type(err).__name__}: {err}"
            finally:
                if span is not None:
                    tracer.close(span)
        invocations.append({
            "name": cmd["name"], "pass": index, "exit": code,
            "seconds": time.perf_counter() - t0, "traced": tracer is not None,
            "stdout": captured.getvalue()[-4000:],
        })
    return {"index": index, "seconds": time.perf_counter() - pass_start,
            "traced": tracer is not None, "invocations": invocations}


def run_for(cli, plan: dict, first: int, tracer=None) -> list[dict]:
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, plan, first + len(passes), tracer))
        if time.perf_counter() - begin >= plan["seconds"]:
            return passes


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import fusionkit.cli as cli

    ready = time.monotonic()
    warmup = run_pass(cli, plan, 0)
    passes = run_for(cli, plan, 1)
    result = {"started": STARTED, "ready": ready, "warmup": warmup,
              "passes": passes}
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = run_for(cli, plan, 1 + len(passes), tracer)
        finally:
            tracing.uninstall(restore)
        overhead = (statistics.median(p["seconds"] for p in traced)
                    - statistics.median(p["seconds"] for p in passes))
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(tracer, len(traced), overhead)
        result["captured"] = tracer.captured
        tracer.write(plan["spans_path"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
