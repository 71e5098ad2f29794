"""Regenerate profile_strata.json, the cost strata of the profiles workload.

    python3 perfbench/strata.py

Profile items cost anywhere from 0.2 ms to 0.5 s, depending on the sampled
coefficients.  Drawing them independently per seed made a run's mean cost
swing by more than 10% from seed to seed.  This script times one profile
item for each sampler seed in ``range(POPULATION)`` (the criterion-8 seeds
0..99 included) in ``PASSES`` separate sweeps, so that the machine's speed
drifting during one sweep does not reorder neighbours, sorts the seeds by
their median cost, and cuts the ranking into groups of ``GROUP``
neighbours.  A run picks one seed per group, so every seed sees the same
mix of costs.  The groups are stored in a low-discrepancy order
(rank times the golden ratio, mod 1), so any prefix of them a run gets
through still spans the whole cost range.

Costs were measured once, on the machine recorded in the file.  Re-running
the script on other hardware or after a change to gsalg regroups the seeds
and so changes the inputs of every seed: do it only in a change that
redefines the benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POPULATION = 600
GROUP = 3
PASSES = 3


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import machine
    import workloads

    times = {s: [] for s in range(POPULATION)}
    for _ in range(PASSES):
        for s in range(POPULATION):
            item = workloads._profile_item(s)
            t0 = time.perf_counter()
            out = item.run()
            times[s].append(time.perf_counter() - t0)
            if not item.check(out):
                raise SystemExit(f"profile seed {s} failed its check")
    ranked = sorted(times, key=lambda s: statistics.median(times[s]))
    groups = [ranked[i:i + GROUP] for i in range(0, len(ranked), GROUP)]
    golden = (5 ** 0.5 - 1) / 2
    order = sorted(range(len(groups)), key=lambda i: (i * golden) % 1.0)
    data = {
        "population": POPULATION,
        "group": GROUP,
        "passes": PASSES,
        "measured_on": machine.describe(ROOT),
        "strata": [groups[i] for i in order],
    }
    out = Path(__file__).with_name("profile_strata.json")
    write(data, out)
    print(f"wrote {len(groups)} strata to {out}")


def write(data, path):
    """JSON with one stratum per line, so the file stays short and diffable."""
    head = {k: v for k, v in data.items() if k != "strata"}
    rows = ",\n  ".join(json.dumps(g) for g in data["strata"])
    path.write_text(json.dumps(head, indent=1)[:-2]
                    + f',\n "strata": [\n  {rows}\n ]\n}}\n')


if __name__ == "__main__":
    main()
