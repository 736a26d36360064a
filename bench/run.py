"""The ghostpic benchmark: one command per workload, checked outputs, named metrics.

    python3 bench/run.py --workload {verify,scale,picture,cli,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports `ghostpic` from `src/`
and never edits it.  BENCHMARK.json lists verify and cli, which `all` runs;
scale and picture are kept for work on the LP kernel and on rendering.  One client issues one operation at a time (closed loop,
no threads).  Inputs come from `--seed` alone.  Passes over the workload's
operations repeat while the next pass still fits in `--seconds` (at least
one pass always runs).

With `--trace 0` the last stdout line is the JSON result with the end-to-end
metrics; with `--trace 1` one untraced and one traced pass give the
per-layer metrics and `trace.overhead_ratio`.  Earlier stdout lines give the
run environment, every metric with its unit and `error_rate`.  Details (per
operation latencies, SHA-256 of every SVG, report and CLI output, spans of a
traced run) go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, layer_metrics, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # set-up spawns before the first pass and after each pass


def environment(seed: int) -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(workload: str, inputs: dict, env: dict) -> float:
    """Spawn-to-exit time of a child that imports the package and builds the
    workload's objects (for `cli`: only `import ghostpic.cli`)."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", workload],
        input=json.dumps(inputs), text=True, cwd=ROOT, env=env, check=True, timeout=120,
    )
    return perf_counter() - t0


def pass_runner(workload: str, inputs: dict, env: dict):
    if workload == "cli":
        return lambda child=None, stride=1: workloads.cli_pass(
            inputs["commands"][::stride], ROOT, env, child
        )
    return {
        "verify": lambda: workloads.verify_pass(inputs),
        "scale": lambda: workloads.scale_pass(inputs),
        "picture": lambda: workloads.picture_pass(inputs),
    }[workload]


def pass_seconds(records) -> float:
    return sum(r["s"] for r in records)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def op_medians(passes) -> list[float]:
    """Median latency of each operation over the passes that it passed in."""
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            if r["ok"]:
                by_op.setdefault(r["name"], []).append(r["s"])
    return [statistics.median(v) for v in by_op.values()] or [0.0]


def timed_run(run_pass, setup, seconds: float, workload: str) -> tuple[dict, list, list]:
    """Passes while the next one still fits in `seconds`.

    `setup()` times set-up once; it runs SETUP_REPS times before the first
    pass and after each pass, so its median spans the run as the passes do.

    `wall_s` sums each operation's median latency over the passes; with
    three or more passes that keeps a burst of load on the machine during
    one pass out of the figure.
    A command is one CLI process on `cli` and one whole pass (one library
    request for the workload) on the in-process workloads.
    """
    setup_samples = [setup() for _ in range(SETUP_REPS)]
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        setup_samples += [setup() for _ in range(SETUP_REPS)]
        longest = max(pass_seconds(p) for p in passes)
        if perf_counter() - start + longest > seconds:
            break
    medians = op_medians(passes)
    if workload == "cli":
        commands, who = medians, resource.RUSAGE_CHILDREN
    else:
        commands, who = [pass_seconds(p) for p in passes], resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(medians), "s"),
        "cmd_p50_s": (statistics.median(commands), "s"),
        "cmd_p90_s": (p90(commands), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes, setup_samples


def traced_run(run_pass, workload: str, spans_path: Path, units: dict) -> tuple[dict, list, dict]:
    # On cli the untraced reference runs every fourth command only.
    reference = run_pass(stride=4) if workload == "cli" else run_pass()
    spans_path.write_text("", encoding="utf-8")
    if workload == "cli":
        traced = run_pass([str(BENCH / "child.py"), "cli-trace", str(spans_path)])
        agg: dict = {}
        for rec in traced:
            merge(agg, rec.get("trace", {}))
        import_s = sum(r.get("trace", {}).get("import_s", 0.0) for r in traced)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass()
        finally:
            tracer.uninstall()
        agg, import_s = tracer.aggregates(), 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    metrics = {k: (v, units[k]) for k, v in layer_metrics(agg, import_s).items()}
    names = {r["name"] for r in reference}
    overhead = pass_seconds(r for r in traced if r["name"] in names) / pass_seconds(reference)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, [reference, traced], agg


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_one(args) -> int:
    env_record = environment(args.seed)
    import ghostpic

    if Path(ghostpic.__file__).resolve().parent != (SRC / "ghostpic").resolve():
        print(f"error: imported ghostpic from {ghostpic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed)
    env = child_env()
    run_pass = pass_runner(args.workload, inputs, env)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = stem.with_suffix(".spans.jsonl")
        metrics, passes, agg = traced_run(run_pass, args.workload, spans_path, per_layer_units())
        setup = []
    else:
        metrics, passes, setup = timed_run(
            run_pass, lambda: time_setup(args.workload, inputs, env), args.seconds, args.workload
        )
        agg = None
    records = [r for p in passes for r in p]
    failed = [r for r in records if not r["ok"]]
    digests = {r["name"]: r["digests"] for r in max(passes, key=len)}
    digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    moved = sorted({r["name"] for r in records if r["digests"] != digests[r["name"]]})

    print(f"env: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env_record['python']} nproc={env_record['nproc']} "
          f"loadavg={','.join(env_record['loadavg'] or ['?'])}")
    print(f"inputs: {len(passes[0])} operations per pass, {len(passes)} passes; "
          f"skipped {inputs['info']['skipped_recursion_defect']} drawn classes that hit the "
          f"classify_bifurcations recursion defect")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric error_rate = {len(failed) / len(records):.6g} 1 ({len(failed)}/{len(records)})")
    for r in failed[:10]:
        print(f"FAILED {r['name']}: {r['error']}")
    print(f"outputs: sha256 {digest} over {len(digests)} operations"
          + (f"; bytes changed between passes: {moved}" if moved else ""))

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "environment": env_record,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "setup_s_samples": setup,
        "error_rate": len(failed) / len(records),
        "passes": [[{k: r[k] for k in ("name", "s", "ok", "error")} for r in p] for p in passes],
        "digests": digests,
        "trace_aggregates": agg,
        "result": result,
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in turn, each in its own process;
    metric names get the workload as a prefix."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in listed:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ghostpic" / "__init__.py").is_file():
        print(f"error: no ghostpic sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
