"""gsalg benchmark: four closed-loop workloads timed from outside the library.

    python3 perfbench/run.py --workload graded --seed 0 --seconds 20 --trace 0

Run from the repository root; gsalg is imported from ``src/``.  Each run is
one process working one item at a time (no threads of its own; numpy's BLAS
may use several cores).  The timed run is ``ROUNDS`` consecutive rounds,
each going on until its summed item wall time reaches ``--seconds`` /
``ROUNDS`` and at least ``MIN_ITEMS`` items have run.  Each item's output is
checked after its timed interval; an item that raises (a ``CapacityError``
refusal included) or fails its check is counted in ``failed`` and the run
goes on.

Times are reported in reference seconds.  The 2-core VM this benchmark was
built on runs 1.5x slower for minutes at a time, whatever the work: a
fixed pure-Python loop slows by the same factor, and identical runs came
out fast or slow by that much.  So short calibration loops run before
every item, outside its timed interval, and each item's wall time is scaled
by ``CAL_REF_S`` over the median loop time of the nine items around it.
This cancels the machine's speed, not gsalg's: the loops do not touch
gsalg.  Raw rates and loop times are printed in the run details.  Timings
are then medians over the rounds.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from spawning the interpreter to inputs ready (gsalg and numpy imported,
  seeded inputs generated, README fixture files written), scaled like item
  times by calibration loops run just before and after each probe;
* ``items_per_s``: items completed and verified per second of item time;
* ``item_p50_ms``, ``item_p90_ms``: per-item wall time; a round holds at
  least 100 items, so its p90 has at least 10 samples beyond it;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``verified_frac``: items verified over items attempted, i.e. one minus the
  failed fraction (a metric that can be 0 has no relative bound).

``--trace 1`` runs the items for half of ``--seconds`` untraced, then the
same items again with every layer wrapped (see layers.py), and reports the
per-layer metrics, the tracing overhead and each module's share of the time.

Two JSON lines are printed: run details (machine, counts, first failures),
then the result object, which is always the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("graded", "ideals", "ladders", "profiles")
SETUP_PROBES = 5
MIN_ITEMS = 100
ROUNDS = 3
CAL_LOOPS = 20_000
CAL_SET = 6_000
CAL_REF_S = 2.2e-3      # the loops' time on the reference VM when not slowed
CAL_WINDOW = 4          # items on each side whose loop times set an item's scale
WARMUP_S = 1.0
PROBE_TIMEOUT_S = 60


def import_gsalg():
    """Import gsalg from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gsalg

    if SRC.resolve() not in Path(gsalg.__file__).resolve().parents:
        raise ImportError(f"gsalg imported from {gsalg.__file__}, not from {SRC}")


def setup(workload, seed, workdir: Path):
    """Everything setup_s covers, after interpreter start."""
    import_gsalg()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_fixtures(workdir)
    return workloads.WORKLOADS[workload](seed, workdir)


def calibrate():
    """Seconds fixed pure-Python loops take right now: integer arithmetic,
    then filling and scanning a set.  The two together tracked the machine's
    slow spells on both numpy-heavy and set-heavy items; either alone left
    twice the spread on one of them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    seen = set()
    for i in range(CAL_SET):
        seen.add(i * 7919 % 10007)
    for x in seen:
        acc += x * x % 7
    return time.perf_counter() - t0


def probe_setup(workload, seed):
    """Reference seconds from spawning a fresh interpreter to its inputs
    being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    cal = [calibrate() for _ in range(5)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code}")
    cal += [calibrate() for _ in range(5)]
    return elapsed * CAL_REF_S / statistics.median(cal)


def run_items(items, seconds=None, count=None, tracer=None, min_items=None,
              start=0):
    """Run items in order from index ``start`` (cycling) until ``count``
    items, or until their summed wall time reaches ``seconds`` with at least
    ``min_items`` (default MIN_ITEMS) done."""
    if min_items is None:
        min_items = MIN_ITEMS
    lat, cal, failures = [], [], []
    attempted = failed = 0
    cpu = busy = 0.0
    while True:
        index = start + attempted
        item = items[index % len(items)]
        cal.append(calibrate())
        if tracer is not None:
            tracer.item = index
            tracer.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        err = None
        try:
            out = item.run()
        except Exception as exc:  # a refusal or crash is a failed item
            out, err = None, exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.active = False
        if err is None:
            try:
                ok = bool(item.check(out))
            except Exception as exc:  # a malformed output fails its check
                ok, err = False, exc
        else:
            ok = False
        lat.append(t1 - t0)
        busy += t1 - t0
        cpu += c1 - c0
        attempted += 1
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"item {index} ({item.name}): "
                                + (repr(err) if err else "wrong answer"))
        if count is not None:
            if attempted >= count:
                break
        elif busy >= seconds and attempted >= min_items:
            break
    scale = [CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
             for i in range(len(cal))]
    return {"lat": [t * f for t, f in zip(lat, scale)], "raw_s": busy, "cal": cal,
            "cpu_s": cpu, "attempted": attempted, "failed": failed,
            "failures": failures}


def _per_s(r):
    """Verified items per reference second."""
    return (r["attempted"] - r["failed"]) / sum(r["lat"])


def _raw_per_s(r):
    return (r["attempted"] - r["failed"]) / r["raw_s"]


def warm_up(items):
    """Untimed items first: numpy's BLAS threads and the allocator start
    cold, which made the first seconds of a run up to 20% slower."""
    run_items(items, seconds=WARMUP_S, min_items=1)


def end_to_end(items, seconds, setup_times):
    warm_up(items)
    rounds = []
    for _ in range(ROUNDS):
        start = sum(r["attempted"] for r in rounds)
        rounds.append(run_items(items, seconds=seconds / ROUNDS, start=start))
    deciles = [statistics.quantiles(r["lat"], n=10) for r in rounds]
    total = {key: sum(r[key] for r in rounds) for key in ("attempted", "failed", "cpu_s")}
    total["failures"] = [f for r in rounds for f in r["failures"]][:5]
    busy = sum(r["raw_s"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (statistics.median(_per_s(r) for r in rounds), "1/s"),
        "item_p50_ms": (statistics.median(q[4] for q in deciles) * 1e3, "ms"),
        "item_p90_ms": (statistics.median(q[8] for q in deciles) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_frac": ((total["attempted"] - total["failed"]) / total["attempted"], "1"),
    }
    detail = {"samples_per_round": [r["attempted"] for r in rounds],
              "round_items_per_s": [_per_s(r) for r in rounds],
              "round_raw_items_per_s": [_raw_per_s(r) for r in rounds],
              "round_cal_ms": [statistics.median(r["cal"]) * 1e3 for r in rounds],
              "setup_probes_s": setup_times, "cpu_per_wall": total["cpu_s"] / busy}
    return total, metrics, detail


def traced(items, seconds):
    import layers

    warm_up(items)
    base = run_items(items, seconds=seconds / 2)
    tracer = layers.Tracer()
    tracer.install(layers.LAYERS)
    try:
        r = run_items(items, count=base["attempted"], tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_rate, traced_rate = _per_s(base), _per_s(r)
    units = layers.layer_units()
    metrics = {name: (value, units[name])
               for name, value in layers.layer_metrics(tracer, r["raw_s"]).items()}
    metrics["proc.cpu_s"] = (base["cpu_s"] / base["attempted"], "s")
    metrics["proc.cpu_per_wall"] = (base["cpu_s"] / base["raw_s"], "1")
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["trace.items_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_items_per_s"] = (untraced_rate - traced_rate, "1/s")
    total = {"attempted": base["attempted"] + r["attempted"],
             "failed": base["failed"] + r["failed"],
             "failures": base["failures"] + r["failures"]}
    return total, metrics, {"samples": base["attempted"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 reproduces the acceptance-criteria inputs")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = HERE / "_work" / str(os.getpid())
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        try:
            import_gsalg()
        except ImportError as exc:
            print(f"perfbench: cannot import gsalg from {SRC}: {exc}", file=sys.stderr)
            return 2
        import machine

        setup_times = ([] if args.trace else
                       [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        items = setup(args.workload, args.seed, workdir)
        if args.trace:
            r, metrics, detail = traced(items, args.seconds)
        else:
            r, metrics, detail = end_to_end(items, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()    # only once no other run is using it
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=r["attempted"], failed=r["failed"],
                  failed_frac=r["failed"] / r["attempted"],
                  first_failures=r["failures"], machine=machine.describe(ROOT))
    print(json.dumps({"run": detail}))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
