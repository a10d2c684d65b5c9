"""spikecodec benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME|all --record FIRST-LAST

Run from the root of a checkout. Each workload runs in fresh processes that
import spikecodec from the checkout's ``src/``: one self-check and one timed
closed loop, which starts the set-up probes between its operations. With ``--trace 0`` the last line of
output holds the end-to-end metrics named in BENCHMARK.json, with
``--trace 1`` the per-layer metrics. ``--record`` stores the event-file
digests and SNR of the given seeds in ``perfbench/reference.json``; only
do that at a commit whose output is known to be right. See
perfbench/README.md.
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
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import derived_from  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"
# reported beside the BENCHMARK.json metrics; callers read it from
# "attempted" and "failed", and as a bounded metric it would be 0
EXTRA = {"error_rate": {"unit": "fraction", "better": "lower"}}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    """Import spikecodec from the checkout; BLAS single-threaded, so the
    process's compute threads are the codec's own (at most nproc)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def python(args: list[str], root: Path, log: Path, timeout: float) -> None:
    """Run a fresh interpreter to completion, its stderr appended to `log`."""
    with open(log, "a") as err:
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=child_env(root),
            stdout=subprocess.DEVNULL, stderr=err, timeout=timeout,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}")


def host_info(root: Path) -> dict:
    info = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": BLAS_THREADS,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):  # numpy older than 1.26
        info["blas"] = info["blas_version"] = "unknown"
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        info["commit"] = "unknown"
    return info


def finite(value: float) -> float:
    """JSON has no infinities; a failed decode's SNR of -inf becomes 0."""
    return value if math.isfinite(value) else 0.0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    w = BY_NAME[name]
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    try:
        python([str(BENCH_DIR / "worker.py"), "selfcheck", str(seed),
                "1" if trace else "0", str(work / "selfcheck.json")],
               root, log, WORKER_TIMEOUT_S)
        check = json.loads((work / "selfcheck.json").read_text())
        python([str(BENCH_DIR / "worker.py"), "run", name, str(seed), str(seconds),
                "1" if trace else "0", str(work), str(work / "run.json")],
               root, log, WORKER_TIMEOUT_S)
        res = json.loads((work / "run.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        tail = log.read_text()[-3000:] if log.exists() else ""
        raise RuntimeError(f"{name}: {exc}\n{tail}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = res["ops"]
    failures = [not op["ok"] for op in ops] + [
        not res["checks"]["warmup"], not check["equivalence"]
    ]
    if trace:
        failures.append(not check["threaded_trace"])
    attempted, failed = len(failures), sum(failures)

    if trace:
        metrics, raw = layer_summary(ops, set(res["absent"]), spec), {}
    else:
        metrics = timings(ops, res["setup_s"], scaled=True)
        raw = timings(ops, res["setup_s"], scaled=False)
        metrics.update({
            "recon_snr_db": res["recon_snr_db"],
            "peak_rss_mb": res["peak_rss_mb"],
            "error_rate": failed / attempted,
        })
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "operations": len(ops),
        "reference": res["reference"], "selfcheck": check,
        "absent": sorted(m for m in metrics if metrics[m] is None),
        "metrics": {k: (0.0 if v is None else v) for k, v in metrics.items()},
        "raw_timings": raw,
        "host_speed": statistics.median(o["scale"] for o in ops),
        "why": w.why,
    }


def timings(ops: list[dict], setup: list[dict], scaled: bool) -> dict:
    """Median over the run's round trips (and set-up probes) of each timing,
    scaled by the host-speed factors measured beside it (calibrate.py) or,
    with `scaled` false, as read."""
    med = statistics.median
    sfx = "_s" if scaled else ""
    return {
        "setup_s": med(p["wall"] * (p["scale"] if scaled else 1.0) for p in setup),
        "encode_rtf": med(o["enc_wall" + sfx] / o["audio_s"] for o in ops),
        "encode_cpu_rtf": med(o["enc_cpu" + sfx] / o["audio_s"] for o in ops),
        "decode_rtf": med(med(o["dec_walls" + sfx]) / o["audio_s"] for o in ops),
        "segment_latency_p50_ms": 1e3 * med(
            percentile(o["latencies" + sfx], 50) for o in ops
        ),
        "segment_latency_p90_ms": 1e3 * med(
            percentile(o["latencies" + sfx], 90) for o in ops
        ),
    }


def layer_summary(ops: list[dict], absent: set[str], spec: dict) -> dict:
    """Median over traced operations of each per-layer metric (None when the
    function it comes from is absent), and the tracing overhead: best traced
    over best untraced round trip, minus 1."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            out[name] = (min(o["enc_wall"] + o["dec_walls"][0] for o in traced)
                         / min(o["enc_wall"] + o["dec_walls"][0] for o in plain)
                         - 1.0)
        elif derived_from(name) & absent:
            out[name] = None
        else:
            out[name] = statistics.median(o["layers"].get(name, 0.0) for o in traced)
    return out


def describe(spec: dict, trace: bool) -> dict[str, dict]:
    """Unit and direction of every metric a run reports."""
    if trace:
        return {m["name"]: m for m in spec["per_layer"]}
    return {**{m["name"]: m for m in spec["end_to_end"]}, **EXTRA}


def print_report(host: dict, results: list[dict], spec: dict) -> None:
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for r in results:
        print(f"\n{r['workload']}  seed={r['seed']} seconds={r['seconds']} "
              f"trace={r['trace']} operations={r['operations']} "
              f"reference={r['reference']} host_speed={r['host_speed']:.3f}")
        print(f"  why: {r['why']}")
        for name, d in describe(spec, r["trace"]).items():
            mark = "  (absent)" if name in r["absent"] else ""
            print(f"  {name:<44} {r['metrics'][name]:>14.6g} {d['unit']:<9}"
                  f" {d['better']}{mark}")
        print(f"  attempted={r['attempted']} failed={r['failed']} "
              f"selfcheck={json.dumps(r['selfcheck'])}")


def record(root: Path, names: list[str], seeds: range) -> None:
    path = BENCH_DIR / "reference.json"
    table = json.loads(path.read_text())
    for name in names:
        for seed in seeds:
            work = root / ".perfbench_work" / f"record-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                python([str(BENCH_DIR / "worker.py"), "record", name, str(seed),
                        str(work), str(work / "record.json")], root,
                       work / "stderr.log", WORKER_TIMEOUT_S)
                entry = json.loads((work / "record.json").read_text())
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = entry
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"recorded {name} seed {seed}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument("--record", metavar="FIRST-LAST",
                        help="record reference digests for these seeds")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spikecodec" / "__init__.py").is_file():
        print("perfbench: no src/spikecodec here; run from the root of a "
              "spikecodec checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    if args.record:
        first, last = (int(v) for v in args.record.split("-"))
        record(root, names, range(first, last + 1))
        return 0

    host = host_info(root)
    try:
        results = [run_workload(root, n, args.seed, args.seconds, bool(args.trace), spec)
                   for n in names]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(host, results, spec)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"host": host, "results": results}, indent=1) + "\n"
        )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m['name']}" if prefix else m["name"]):
                {"value": finite(r["metrics"][m["name"]]), "unit": m["unit"]}
            for r in results for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
