"""Benchmark of the dqdcavity CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload population-map --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a source checkout. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the machine context. --quick runs one request of every workload
traced, with every check, and exits non-zero if any check fails. See
perfbench/README.md for the workloads, metrics and reference figures.
"""

import os

# One BLAS/OpenMP thread, set before anything loads numpy, and inherited by
# every child. OpenBLAS's default pool doubles the CPU per solve on two cores
# and stacks on top of the sweep's own worker threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"
os.environ.pop("DQDCAVITY_PARALLELISM", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 90  # beyond --seconds


class BenchmarkError(Exception):
    pass


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child interpreter to its end; kill it and fail if it overruns."""
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args} overran {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, samples: int, importtime: bool) -> list[dict]:
    """Fresh interpreters that only import the program and draw the inputs."""
    flags = ["-X", "importtime"] if importtime else []
    out = []
    for _ in range(samples):
        proc = _child([*flags, WORKER, "--setup-only", workload, str(seed)], 60)
        sample = _last_json(proc.stdout)
        if importtime:
            # "import time: self [us] | cumulative | imported package"
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            sample["import_s"] = cumulative["dqdcavity"]
            sample["import_scipy_signal_s"] = cumulative.get("scipy.signal", 0.0)
        out.append(sample)
    return out


def machine_context() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numba": numba_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, setup_n: int) -> dict:
    import workloads

    inputs = workloads.make_inputs(workload, seed)  # also rejects an unknown workload
    setup = setup_samples(workload, seed, setup_n, importtime=trace)
    outdir = os.path.join(OUT, f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    try:
        proc = _child([WORKER, workload, str(seed), repr(seconds), "1" if trace else "0", outdir],
                      CHILD_TIMEOUT_S + seconds)
        report = _last_json(proc.stdout)

        import checks

        attempted = failed = 0
        problem = None
        try:
            for request in report["requests"]:
                key = f"{workload}:{seed}:{request['index']}"
                attempted += request["points"]
                failed += checks.check_request(workload, inputs[request["item"]], request, key)
            good = next((r for r in report["requests"] if all(c == 0 for c in r["codes"])), None)
            if good is None:
                problem = "no request succeeded"
            elif not checks.checker_rejects_perturbation(
                    workload, inputs[good["item"]], good, f"{workload}:{seed}:{good['index']}",
                    os.path.join(outdir, "perturbed")):
                problem = "the checker accepted a perturbed output"
        # a malformed or missing output file is a wrong output, not a crash
        except (checks.CheckError, ValueError, KeyError, IndexError, OSError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
    finally:
        for request in os.listdir(outdir):
            if request.startswith("req-"):
                shutil.rmtree(os.path.join(outdir, request))
    return {"report": report, "setup": setup, "attempted": attempted, "failed": failed,
            "problem": problem, "outdir": outdir}


def metrics(result: dict, trace: bool) -> dict:
    report, setup = result["report"], result["setup"]
    if trace:
        return {
            "setup.import_s": {"value": statistics.median(s["import_s"] for s in setup),
                               "unit": "s"},
            "setup.import_scipy_signal_s": {
                "value": statistics.median(s["import_scipy_signal_s"] for s in setup), "unit": "s"},
            **report["layers"],
        }
    return {
        "points_per_s": {"value": report["points_per_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mib"], "unit": "MiB"},
    }


def quick() -> int:
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        try:
            result = run_workload(workload, 0, 0.0, True, 1)
        except Exception as exc:  # report every workload, then fail
            print(f"{workload}: FAIL {type(exc).__name__}: {exc}")
            ok = False
            continue
        report = result["report"]
        if result["problem"]:
            print(f"{workload}: FAIL {result['problem']}")
            ok = False
            continue
        print(f"{workload}: ok, {result['attempted']} points, {result['failed']} failed, "
              f"{report['points_per_s']:.4g} points/s traced, checker rejects a perturbed output")
        print(json.dumps(metrics(result, True)))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace, SETUP_SAMPLES)
    report = result["report"]
    context = machine_context()
    context.update(workload=args.workload, seed=args.seed, trace=trace,
                   requests=len(report["requests"]),
                   measured_seconds=report["measured_seconds"],
                   points_per_s=report["points_per_s"],
                   request_seconds=[r["seconds"] for r in report["requests"]],
                   setup_samples_s=[s["setup_s"] for s in result["setup"]])
    values = metrics(result, trace)
    with open(os.path.join(result["outdir"], "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": context, "metrics": values}, fh, indent=1)
    if result["problem"]:
        print(f"check failed: {result['problem']}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["problem"] is None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
