"""Run one workload once in this process and print the result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

run.py starts one worker per trainer call, so that every call gets a fresh
process, as `ifo-lab train-*` does. The library is imported from the
checkout's own `src/`. With --trace 1 the worker installs the tracer, checks
that the trace is complete, adds the per-layer figures to the result and
writes its spans to `.perfbench/spans-<workload>.csv`.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# the self times under the trainer span must add up to the trainer's wall
# time, measured outside the tracer, within this share of it
SELF_TIME_TOLERANCE = 0.01

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ifo_lab  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import SETUP_ROOT, Tracer, check_trace  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def platform_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def traced_run(workload, seed, workdir):
    tracer = Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}")
    with tracer.installed(ifo_lab):
        result = workloads.run_once(workload, seed, workdir, tracer)
    spans = tracer.spans
    trainer = f"imitation.{workload.trainer}"
    roots = {name: i for i, (name, parent, *_) in enumerate(spans) if parent < 0}
    if trainer not in roots or SETUP_ROOT not in roots:
        result["problems"].append(f"no {trainer} or {SETUP_ROOT} root span")
        return result
    result["problems"] += check_trace(spans, roots[trainer], result["train_s"],
                                      workload.expected_spans, SELF_TIME_TOLERANCE)
    result["layers"] = metrics.layer_figures(spans, roots[trainer], roots[SETUP_ROOT])
    result["layers"]["trace.spans"] = len(spans)
    tracer.write_csv(OUT / f"spans-{workload.name}.csv")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ifo_lab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"ifo_lab was imported from {ifo_lab.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            result = traced_run(workload, args.seed, workdir)
        else:
            result = workloads.run_once(workload, args.seed, workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["platform"] = platform_info()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
