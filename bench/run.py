"""vnalg benchmark: four closed-loop workloads and a traced per-layer run.

    python3 bench/run.py --workload {axioms,maps-scale,battery,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``bench/worker.py``) that import the package from this
checkout's ``src`` with the BLAS thread count fixed at ``BLAS_THREADS``.
The human-readable report goes to stdout; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The full record of a run (environment, every unit, the
trace counters and the primitives table) is written to
``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("axioms", "maps-scale", "battery", "cli")
BLAS_THREADS = 1
# setup_s is the median over this many set-up-only processes plus the
# measured run's own set-up.
SETUP_PROBES = 4
RUN_DEADLINE_S = 170
# The tail percentile is fixed per workload so that runs stay comparable:
# the highest multiple of 5 with at least ten units beyond it at the
# smallest unit count of a 25-second run on the reference machine (two
# cores, one BLAS thread): 30 units for axioms, 188 for maps-scale, 81 for
# battery, 40 for cli.  The report prints how many units lie beyond it.
TAIL_PERCENTILE = {"axioms": 65, "maps-scale": 90, "battery": 85, "cli": 75}
LAYER_SELF = ("algebra", "linalg", "spectral", "projections", "division", "maps",
              "measurement", "tensor", "structure", "sampling", "jsonio", "cli",
              "suite", "harness")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, smoke: bool,
          deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=worker_env(),
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def trimmed_harrell_davis(xs: list[float], q: float) -> float:
    """Trimmed Harrell-Davis estimate of the q-quantile (Akinshin, 2022).

    A weighted mean of the order statistics, with the Harrell-Davis weights
    of Beta((n+1)q, (n+1)(1-q)) kept to their highest-density interval of
    width 1/sqrt(n).  A workload's units form clusters, one per call type:
    a single order statistic jumps between neighbouring clusters from run
    to run, while the full Harrell-Davis weights reach into far clusters.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    width = min(1.0, n ** -0.5)
    lows = np.linspace(0.0, 1.0 - width, 2001)
    left = lows[np.argmax(betainc(a, b, lows + width) - betainc(a, b, lows))]
    weights = np.diff(betainc(a, b, np.clip(np.arange(n + 1) / n, left, left + width)))
    return float(weights @ x / weights.sum())


def end_to_end(workload: str, records: list[dict], setup: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    # Unit times at the reference host speed (see hostspeed.py).
    lat = [r["latency_s"] / r["host_factor"] for r in records]
    p = TAIL_PERCENTILE[workload]
    tail = trimmed_harrell_davis(lat, p / 100)
    failed = sum(r["problem"] is not None for r in records)
    timed_s = sum(r["latency_s"] for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (trimmed_harrell_davis(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "pass_frac": ((len(lat) - failed) / len(lat), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"tail_percentile": p, "units": len(lat),
            "units_beyond_tail": sum(x > tail for x in lat),
            "rounds": records[-1]["round"] + 1, "setup_samples_s": setup,
            "fail_frac": failed / len(lat), "timed_s": timed_s,
            "raw_throughput_per_s": len(lat) / timed_s,
            "host_factor": timed_s / sum(lat)}
    return metrics, info


def per_layer(run: dict) -> dict:
    stats = run["trace"]["stats"]
    dups = run["trace"]["dup_hits"]
    child_imports = run["trace"]["child_import_s"]

    def calls(*names):
        return sum(stats.get(n, [0])[0] for n in names)

    def busy(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def dup_frac(name):
        n = calls(name)
        return dups.get(name, 0) / n if n else 0.0

    traced = sum(r["latency_s"] for r in run["traced_records"])
    untraced = sum(r["latency_s"] for r in run["records"])
    self_s = {layer: 0.0 for layer in LAYER_SELF}
    for name, (_, s, _) in stats.items():
        self_s[name.split(".")[0]] += s
    # Everything but the harness's own time is vnalg (or, for cold CLI
    # processes, their import of it).
    attributed = traced - self_s["harness"]
    m = {
        "algebra.element_new": (calls("algebra.Element"), "count"),
        "algebra.operator_norm.calls": (calls("algebra.operator_norm"), "count"),
        "algebra.is_positive.calls": (calls("algebra.is_positive"), "count"),
        "algebra.equal.calls": (calls("algebra.equal"), "count"),
        "linalg.svd.calls": (calls("linalg.svd", "linalg.norm2", "linalg.pinv"), "count"),
        "linalg.eigh.calls": (calls("linalg.eigh", "linalg.eigvalsh"), "count"),
        "measurement.seq_product.calls": (calls("measurement.seq_product"), "count"),
        "measurement.seq_product.dup_frac": (dup_frac("measurement.seq_product"), "ratio"),
        "spectral.sqrt.calls": (calls("spectral.sqrt"), "count"),
        "spectral.sqrt.dup_frac": (dup_frac("spectral.sqrt"), "ratio"),
        "spectral.functional_calculus.calls": (calls("spectral.functional_calculus"), "count"),
        "maps.apply.calls": (calls("maps.apply"), "count"),
        "maps.make_map.calls": (calls("maps.make_map"), "count"),
        "maps.is_multiplicative.busy_s": (busy("maps.is_multiplicative"), "s"),
        "maps.is_involutive.busy_s": (busy("maps.is_involutive"), "s"),
        "maps.choi_blocks.busy_s": (busy("maps.choi_blocks"), "s"),
        "projections.centre.busy_s": (busy("projections.centre"), "s"),
        "tensor.tensor_maps.busy_s": (busy("tensor.tensor_maps"), "s"),
        "projections.join.calls": (calls("projections.join"), "count"),
        "cli.import_s": (statistics.median(child_imports) if child_imports
                         else run["cli_import_s"], "s"),
        "jsonio.parse_s": (busy("jsonio.parse"), "s"),
        "jsonio.emit_s": (busy("jsonio.emit"), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
        "trace.attributed_frac": (attributed / traced, "ratio"),
    }
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for row, cell in run["primitives"].items():
        m[f"prim.{row}_us"] = (cell["us"], "us")
    return m


def environment(seed: int, worker_env_info: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "vnalg", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, **worker_env_info,
            "blas_threads": BLAS_THREADS, "git_commit": commit, "seed": seed,
            "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    probes = 1 if smoke else SETUP_PROBES
    # Set-up times too are stated at the reference host speed, from host
    # probes taken just before and just after each set-up process.
    setup = []
    before = hostspeed.probe()
    for _ in range(probes):
        raw = spawn(workload, seed, seconds, "setup", smoke, deadline)["setup_s"]
        after = hostspeed.probe()
        setup.append(raw * 2 * hostspeed.REFERENCE_S / (before + after))
        before = after
    run = spawn(workload, seed, seconds, "trace" if trace else "run", smoke, deadline)
    setup.append(run["setup_s"] * 2 * hostspeed.REFERENCE_S / (before + hostspeed.probe()))
    records = run["records"] + run.get("traced_records", [])
    e2e, info = end_to_end(workload, run["records"], setup, run["peak_rss_mb"])
    metrics = per_layer(run) if trace else e2e
    failed = [r for r in records if r["problem"] is not None]
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "environment": environment(seed, run["env"]), "result": result,
              "info": info, "failures": failed,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "primitives": run.get("primitives"), "trace_stats": run.get("trace"),
              "records": records}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, metrics, path)
    return result


def print_report(report: dict, metrics: dict, path: str) -> None:
    env, info, res = report["environment"], report["info"], report["result"]
    print(f"== {report['workload']} (seed {env['seed']}, trace {report['trace']}, "
          f"{info['units']} units in {info['rounds']} rounds, "
          f"{info['timed_s']:.2f} s timed, host factor {info['host_factor']:.3f}, "
          f"raw throughput {info['raw_throughput_per_s']:.4g}/s)")
    print(f"   {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas'].get('name')} {env['blas'].get('version')} x"
          f"{env['blas_threads']} threads, commit {env['git_commit']}, "
          f"src lines {env['src_lines']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"   {name:40s} {value:14.6g} {unit}")
    if not report["trace"]:
        print(f"   latency_tail_ms is p{info['tail_percentile']} of {info['units']} "
              f"units, {info['units_beyond_tail']} beyond it; "
              f"fail_frac {info['fail_frac']:.4g}")
    for rec in report["failures"]:
        print(f"   MISS round {rec['round']} {rec['unit']}: {rec['problem']}")
    print(f"   attempted {res['attempted']}, failed {res['failed']}; record: "
          f"{os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes only; for the benchmark's self-check")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "vnalg", "__init__.py")):
        print(f"no package source at {SRC}/vnalg: run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   args.smoke) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
