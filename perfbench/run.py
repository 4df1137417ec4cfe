"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pointmass-gaifo --seed 0 --seconds 36 --trace 0

Workloads are in workloads.py and the reasons for them in README.md. Every
trainer call runs in a fresh process (worker.py), one after another: a
closed loop with one client. One warm-up process runs first; its outputs are
checked but its times are not used, because the first fresh process of a
series runs 25-60% slower than the rest. Measured processes then start while
the next one is expected to end within --seconds, and at least MIN_RUNS run.

With --trace 0 the result carries the end-to-end metrics, each the median
over the measured processes. With --trace 1 untraced and traced processes
alternate; the result carries the per-layer figures (medians over the traced
processes) and the tracing overhead against the untraced median.

A run fails if its worker raises, times out or fails an output check (see
workloads.check_outputs and tracer.check_trace). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`correct` is false if any run failed or if the final policies of one seed
differ between processes. Per-process records go to
.perfbench/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("pointmass-gaifo", "gridworld-gaifo", "gridworld-bco")
MIN_RUNS = {False: 3, True: 2}      # measured processes, untraced / traced
HARD_LIMIT_S = 170.0                # the whole command must end within 180 s

sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402


def run_worker(workload, seed, traced, timeout):
    """One trainer call in a fresh process; failures become problems."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        record = {"problems": [f"worker timed out after {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            record = {"problems": [f"worker exited with {proc.returncode}: {tail}"]}
        else:
            record = json.loads(lines[-1])
    record.update(traced=traced, wall_s=time.monotonic() - started)
    return record


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def schedule(workload, seed, seconds, trace, deadline):
    """Warm-up, then measured workers until the budget is spent."""
    warmup = run_worker(workload, seed, False, deadline - time.monotonic())
    runs = []
    modes = [False, True] if trace else [False]
    begin = time.monotonic()
    typical = warmup["wall_s"]
    while True:
        traced = modes[len(runs) % len(modes)]
        done = {m: sum(r["traced"] == m for r in runs) for m in modes}
        enough = all(done[m] >= MIN_RUNS[m] for m in modes)
        now = time.monotonic()
        if enough and now + typical > begin + seconds:
            break
        if now + 1.5 * typical > deadline:
            break
        runs.append(run_worker(workload, seed, traced, deadline - now))
        typical = statistics.median(r["wall_s"] for r in runs)
    return warmup, runs


def spread(values):
    """(median, first quartile, third quartile, count)."""
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def summarize_runs(workload, seed, trace, warmup, runs):
    """The result object, plus report lines for a reader."""
    attempted = [warmup] + runs
    failed = [r for r in attempted if r["problems"]]
    ok = [r for r in runs if not r["problems"]]
    digests = {r["policy_sha256"] for r in attempted if not r["problems"]}
    lines = [f"{workload} seed {seed}: {len(runs)} measured processes after one "
             f"warm-up, {'untraced and traced alternating' if trace else 'untraced'}"]
    for r in failed:
        lines.append(f"  FAILED run: {'; '.join(r['problems'])}")
    if len(digests) > 1:
        lines.append(f"  FAILED: final policies differ between processes: {sorted(digests)}")
    lines.append(f"  failed_share {len(failed)}/{len(attempted)} = "
                 f"{len(failed) / len(attempted):.3f}")
    platform = next((r["platform"] for r in attempted if "platform" in r), {})
    for digest in sorted(digests):
        lines.append(f"  policy_sha256 {digest}  python {platform.get('python')} "
                     f"numpy {platform.get('numpy')} blas {platform.get('blas')} "
                     f"threads {platform.get('blas_threads')} cpus {os.cpu_count()} "
                     f"src_lines {src_lines()}")

    metrics = {}
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not trace and untraced:
        for name, unit, _ in END_TO_END:
            med, q1, q3, n = spread(r[name] for r in untraced)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"  {name:<12} {med:.4f} {unit}  median of {n}, "
                         f"quartiles {q1:.4f} .. {q3:.4f}")
    elif trace and untraced and traced:
        base = statistics.median(r["train_s"] for r in untraced)
        with_trace = statistics.median(r["train_s"] for r in traced)
        figures = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        figures.update({"trace.train_s": with_trace,
                        "trace.untraced_train_s": base,
                        "trace.overhead_share": with_trace / base - 1.0})
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": figures[name], "unit": unit}
            lines.append(f"  {name:<40} {figures[name]:.6g} {unit}")
    result = {"correct": not failed and len(digests) == 1 and bool(metrics),
              "attempted": len(attempted), "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ifo_lab" / "__init__.py").is_file():
        print(f"no ifo_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    warmup, runs = schedule(args.workload, args.seed, args.seconds,
                            bool(args.trace), deadline)
    result, lines = summarize_runs(args.workload, args.seed, bool(args.trace), warmup, runs)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "warmup": warmup, "runs": runs,
                                  "cpus": os.cpu_count(), "src_lines": src_lines()},
                                 indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
