"""fusionkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fusion-paper --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The run

1. sets up: generates the workload's inputs from the seed and starts the
   loopback stub chat server where the workload needs one (three times,
   to take the median), then starts a fresh worker process that imports
   fusionkit and runs one untimed warm-up pass;
2. measures: the worker drives ``fusionkit.cli.main(argv)`` in process,
   closed loop, one command after the other, for ``--seconds``; with
   ``--trace 1`` it then repeats that under the span wrappers of
   ``tracing.py``;
3. checks the warm-up outputs against references computed here, and every
   timed invocation's outputs against the warm-up's byte for byte.

Workload names, metric names and units come from ``BENCHMARK.json`` at the
root of the checkout. It prints every metric by name and unit, then, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). It exits 1 when a check fails and 2 when the checkout
lacks the program. Work files go to ``perfbench/.run/``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"
# generation and stub start are timed this many times and the median kept,
# so one slow start does not move setup_s
SETUP_REPEATS = 3
RUN_LIMIT_S = 150.0  # leaves time for the checks within 180 s


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        _fail(f"cannot read BENCHMARK.json under {ROOT}: {err}", 2)


def pick(specs: list[dict], values: dict) -> dict:
    """The metrics ``specs`` names, with their units, in their order."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        _fail("no value for " + ", ".join(missing), 3)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def start_stub() -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen([sys.executable, str(HERE / "stub_chat.py")],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "port":
        _stop(proc)
        _fail("stub chat server did not start", 3)
    return proc, f"http://127.0.0.1:{line[1]}/v1/chat/completions"


def host_record(seed: int) -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "seed": seed,
        "flops": "computed from operand shapes (2 flops per multiply-add), "
                 "not measured",
    }


def summary(values: list[float]) -> dict:
    """Median, count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None}
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            out["tail"] = {"percentile": p, "value": ordered[rank - 1]}
            break
    return out


def _line(name: str, value: float, unit: str, s: dict | None = None) -> str:
    text = f"{name:<34} {value:>14.6f} {unit}"
    if s is not None:
        tail = (f"p{s['tail']['percentile']:g} {s['tail']['value']:.6f}"
                if s["tail"] else "no percentile with 10 samples beyond it")
        text += f"   (median of n={s['n']}; {tail})"
    return text


def main() -> int:
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.monotonic()

    for needed in ("src/fusionkit/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            _fail(f"{needed} not found under {ROOT}; run from a fusionkit "
                  "source checkout", 2)
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(ROOT / "tests"))
    import checks
    import gen

    work = RUN_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, out_dir = work / "inputs", work / "out"

    # ---- set-up, repeated; the last stub stays up for the worker
    setup_samples = []
    stub, endpoint = None, ""
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            manifest = gen.generate(args.workload, args.seed, inputs)
            if args.workload == "curate-8k":
                if stub is not None:
                    _stop(stub)
                stub, endpoint = start_stub()
            setup_samples.append(time.perf_counter() - t0)

        plan = {"src": str(ROOT / "src"), "commands": manifest["commands"],
                "out_dir": str(out_dir), "seconds": args.seconds,
                "trace": bool(args.trace), "endpoint": endpoint,
                "spans_path": str(work / "spans.jsonl")}
        (work / "plan.json").write_text(json.dumps(plan))
        env = {k: v for k, v in os.environ.items()
               if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
        env["NO_PROXY"] = "127.0.0.1,localhost"
        spawned = time.monotonic()
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")], env=env)
        try:
            worker.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - begin)))
        except subprocess.TimeoutExpired:
            _stop(worker)
            _fail("worker exceeded the run time limit", 3)
    finally:
        if stub is not None:
            _stop(stub)
    if worker.returncode != 0:
        _fail(f"worker exited with {worker.returncode}", 3)
    result = json.loads((work / "result.json").read_text())

    # ---- checks, outside every timed region
    timed, problems = checks.check_run(manifest, inputs, out_dir, result,
                                       RUN_DIR / "cache")
    failed = sum(1 for inv in timed if inv["failed"])

    # ---- metrics
    untraced = [inv for inv in timed if not inv["traced"]]
    setup_s = (statistics.median(setup_samples) + (result["ready"] - spawned)
               + result["warmup"]["seconds"])
    e2e = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["seconds"] for p in result["passes"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    per_command = {
        f"{cmd['name']}_s": summary([inv["seconds"] for inv in untraced
                                     if inv["name"] == cmd["name"]])
        for cmd in manifest["commands"]
    }
    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload}: {why[args.workload]}")
    print("sizes " + json.dumps(manifest["sizes"], sort_keys=True))
    print(f"setup samples (generation{' + stub start' if endpoint else ''}): "
          + ", ".join(f"{s:.4f}" for s in setup_samples)
          + f" s; import {result['ready'] - spawned:.4f} s; "
          f"warm-up pass {result['warmup']['seconds']:.4f} s")
    pass_summary = summary([p["seconds"] for p in result["passes"]])
    print(_line("setup_s", e2e["setup_s"], unit["setup_s"]))
    print(_line("pass_s", e2e["pass_s"], unit["pass_s"], pass_summary))
    for name, s in per_command.items():
        print(_line(name, s["median"], "s", s))
    print(_line("peak_rss_mb", e2e["peak_rss_mb"], unit["peak_rss_mb"]))
    print(_line("failed_ratio", failed / len(timed), "ratio")
          + f"   ({failed} of {len(timed)} invocations)")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for inv in timed:
        if inv["failed"]:
            print(f"FAILED {inv['name']} pass {inv['pass']}: {inv['failed']}")

    if args.trace:
        metrics = pick(spec["per_layer"], result["layers"])
        for name, m in metrics.items():
            print(_line(name, m["value"], m["unit"]))
    else:
        metrics = pick(spec["end_to_end"], e2e)

    correct = failed == 0 and not problems
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "sizes": manifest["sizes"], "setup_samples": setup_samples,
              "end_to_end": e2e, "per_command": per_command,
              "layers": result.get("layers"), "problems": problems,
              "correct": correct, "attempted": len(timed), "failed": failed}
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(timed),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
