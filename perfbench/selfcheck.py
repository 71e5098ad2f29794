"""Fast self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

Asserts that
* every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  with the unit BENCHMARK.json gives it, and nothing else is;
* every layer of predictions.json records spans (nonzero metrics) on the
  workload where it works, and none on the workloads it never enters;
* a wrong answer and a raised CapacityError are counted as failed items
  while the run goes on.

Runs are shortened by lowering run.MIN_ITEMS; nothing else differs from a
real run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SHORT_ITEMS = 16     # the ladders workload reaches its E-pipeline and rows-replica items
SHORT_SECONDS = "0.01"


def result(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", SHORT_SECONDS, "--trace", str(trace)])
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return json.loads(buf.getvalue().splitlines()[-1])


def check_names(res, specs, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not differ, f"{what}: missing, extra or wrong unit: {differ}"


def check_failures_counted():
    import workloads
    from gsalg.limits import CapacityError

    good = workloads.graded(1, HERE / "_work")[2]
    dims, *rest = good.run()
    assert good.check((dims, *rest)), "a correct answer failed its check"
    wrong = list(dims)
    wrong[3] = 0              # breaks the GS inequality and GF(p) >= QQ
    bad = workloads.Item("wrong", lambda: (wrong, *rest), good.check)

    def refuse():
        raise CapacityError("deliberate refusal")

    refused = workloads.Item("refused", refuse, good.check)
    r = run.run_items([good, bad, refused, good], count=4)
    assert (r["attempted"], r["failed"]) == (4, 2), r
    assert "wrong answer" in r["failures"][0] and "CapacityError" in r["failures"][1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pred = json.loads((HERE / "predictions.json").read_text())
    run.MIN_ITEMS = SHORT_ITEMS
    run.WARMUP_S = 0.0
    run.import_gsalg()

    check_failures_counted()
    print("wrong answers and refusals are counted: ok")

    traced = {}
    for workload in run.WORKLOAD_NAMES:
        res = result(workload, 0)
        check_names(res, spec["end_to_end"], f"{workload} end-to-end")
        assert res["failed"] == 0 and res["correct"], res
        traced[workload] = res = result(workload, 1)
        check_names(res, spec["per_layer"], f"{workload} per-layer")
        assert res["failed"] == 0 and res["correct"], res
        print(f"{workload}: all metrics emitted with their units: ok")

    for row in pred["rows"]:
        for workload in row["on"]:
            zero = [m for m in row["metrics"] if m not in pred["may_be_zero"]
                    and not traced[workload]["metrics"][m]["value"]]
            assert not zero, f"{row['layer']}: zero on {workload}: {zero}"
        for workload in row["no_move_on"]:
            calls = [m for m in row["metrics"] if m.endswith((".calls", ".self_s"))
                     and traced[workload]["metrics"][m]["value"]]
            assert not calls, f"{row['layer']}: spans on {workload}: {calls}"
        print(f"{row['layer']}: spans where predicted, none elsewhere: ok")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
