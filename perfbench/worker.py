"""One workload in a fresh interpreter: set up, run requests for the given time, report.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR
    python3 perfbench/worker.py --setup-only WORKLOAD SEED

Run from the root of a source checkout; dqdcavity is imported from ./src
and nowhere else. Request r writes its files under OUTDIR/req-NNNN. The
first request is a warm-up: it is run, counted and checked like the others,
but left out of the rates. The last stdout line is a JSON report.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")


def setup(workload: str, seed: int):
    """Import the program from ./src and draw the inputs; the part setup_s times."""
    sys.path.insert(0, SRC)
    from dqdcavity import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dqdcavity was imported from {cli.__file__}, not from {SRC}")
    import workloads

    return cli, workloads, workloads.make_inputs(workload, seed)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    cli, workloads, inputs = setup(workload, seed)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    per_point = workloads.points_per_request(workload)
    requests = []
    timed = 0.0
    index = 0
    # request 0 warms up; then run whole requests until the measured time is spent
    while index == 0 or timed < seconds:
        item = inputs[index % len(inputs)]
        reqdir = os.path.join(outdir, f"req-{index:04d}")
        os.makedirs(reqdir)
        argvs = workloads.invocations(workload, item, reqdir)
        if tracer is not None:
            tracer.request = index
        stdout = io.StringIO()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(argv) for argv in argvs]
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if index > 0:
            timed += elapsed
        requests.append({
            "index": index, "item": index % len(inputs), "dir": reqdir, "codes": codes,
            "seconds": elapsed, "points": per_point, "stdout": stdout.getvalue(),
            "bytes": _dir_bytes(reqdir) + len(stdout.getvalue().encode("utf-8")),
            "cli_calls": len(argvs),
            "user_s": after.ru_utime - usage.ru_utime, "sys_s": after.ru_stime - usage.ru_stime,
        })
        index += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    measured = requests[1:] or requests
    report = {
        "peak_rss_mib": peak_rss_mib,
        "points_per_s": sum(r["points"] for r in measured) / sum(r["seconds"] for r in measured),
        "measured_seconds": sum(r["seconds"] for r in measured),
        "requests": requests,
    }
    if tracer is not None:
        sys_s = sum(r["sys_s"] for r in measured)
        cpu_s = sys_s + sum(r["user_s"] for r in measured)
        first = measured[0]["index"]
        spans = [s for s in tracer.spans if s.request >= first]
        report["layers"] = tracing.layer_metrics(
            spans,
            points=sum(r["points"] for r in measured),
            cli_calls=sum(r["cli_calls"] for r in measured),
            bytes_written=sum(r["bytes"] for r in measured),
            process_sys_share=sys_s / cpu_s if cpu_s else 0.0,
        )
        with open(os.path.join(outdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    return report


def main(argv: list[str]) -> int:
    if argv[0] == "--setup-only":
        workload, seed = argv[1], int(argv[2])
        setup(workload, seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    workload, seed, seconds, trace, outdir = argv
    report = run(workload, int(seed), float(seconds), trace == "1", outdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
