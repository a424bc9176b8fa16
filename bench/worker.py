"""One workload in one fresh process; started by ``run.py``, not by hand.

Modes:
  setup  import the package and build round 0's inputs, then exit;
  run    the closed loop for about ``--seconds``, untraced;
  trace  whole rounds untraced for about half of ``--seconds``, the same
         rounds again under the tracer, then the primitives table.

The last line on stdout is one JSON object with the raw results; ``t_ready``
is the ``time.monotonic()`` reading at which the first timed unit could
start, which ``run.py`` turns into ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from hostspeed import HostClock


def run_unit(call, check, tracer=None):
    """Time one unit, inside a tracer span when a tracer is given, then check
    its result.  Returns (latency, result, problem); problem is None when the
    result is the expected one."""
    if tracer is not None:
        tracer.begin_unit()
    t0 = time.perf_counter()
    try:
        out, problem = call(), None
    except Exception as exc:  # a raising unit is a failed unit
        out, problem = None, f"raised {type(exc).__name__}: {exc}"
    lat = tracer.end_unit() if tracer is not None else time.perf_counter() - t0
    if problem is None:
        try:
            problem = check(out)
        except Exception as exc:  # a check that cannot run is a miss
            problem = f"check raised {type(exc).__name__}: {exc}"
    return lat, out, problem


def run_rounds(round_fn, state, units, seconds: float):
    """Whole rounds, stopping at the round boundary nearest ``seconds``.

    Returns one record per unit: round, label, latency, the host factor of
    the probes around it (``hostspeed``), and the problem the check reported
    (None when the result is the expected one).
    """
    records = []
    clock = HostClock()
    start = time.monotonic()
    r = 0
    while True:
        for label, call, check in units:
            lat, _, problem = run_unit(call, check)
            records.append({"round": r, "unit": label, "latency_s": lat,
                            "problem": problem})
            clock.unit_done(records[-1])
        r += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / r >= seconds:
            break
        units = round_fn(state, r)
    clock.finish()
    return records


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_rounds(tracer, workload: str, round_fn, state, rounds: int):
    """Replay rounds ``0..rounds-1`` with every unit inside a tracer span."""
    records = []
    import_s = []
    for r in range(rounds):
        for label, call, check in round_fn(state, r):
            lat, out, problem = run_unit(call, check, tracer)
            if problem is None and workload == "cli":
                # The bootstrap's last stderr line carries the child's counters;
                # move its import and traced time out of the unit's own span.
                child = json.loads(out[2].decode().strip().splitlines()[-1])
                tracer.merge(child["stats"], child["dup_hits"])
                import_s.append(child["import_s"])
                tracer.stats["harness.unit"][1] -= child["import_s"] + child["traced_s"]
            records.append({"round": r, "unit": label, "latency_s": lat,
                            "problem": problem})
    return records, import_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    out: dict = {}
    if args.mode == "trace":
        # Cold import of the whole CLI stack, timed before anything else loads it.
        t0 = time.perf_counter()
        import vnalg.cli  # noqa: F401
        out["cli_import_s"] = time.perf_counter() - t0

    import workloads

    setup_fn, round_fn = workloads.WORKLOADS[args.workload]
    state = setup_fn(args.seed, args.smoke)
    units = round_fn(state, 0)
    out["t_ready"] = time.monotonic()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        out["records"] = run_rounds(round_fn, state, units, args.seconds)
    else:
        import primitives
        from tracer import Tracer

        untraced = run_rounds(round_fn, state, units, args.seconds / 2)
        rounds = untraced[-1]["round"] + 1
        tracer = Tracer()
        tracer.install()
        state["traced"] = True  # the cli workload then starts traced processes
        try:
            traced, child_imports = traced_rounds(tracer, args.workload,
                                                  round_fn, state, rounds)
        finally:
            tracer.uninstall()
            state["traced"] = False
        out["records"] = untraced
        out["traced_records"] = traced
        out["trace"] = {"stats": tracer.stats, "dup_hits": tracer.dup_hits,
                        "child_import_s": child_imports}
        out["primitives"] = primitives.measure(args.seed, args.smoke)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["env"] = environment()
    print(json.dumps(out))
    return 0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())
