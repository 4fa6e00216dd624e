"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 bench/spread.py --seeds 1-10 [--workloads squeeze-scan,cli-cold] [--out file.json]

For every workload and metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them,
next to the metric's bound from BENCHMARK.json, plus the failed share of
attempted ops.  The raw times of the same runs, before scaling to reference
speed, are shown for comparison.  Runs go one at a time, in seed order.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: raw times from the result file, shown beside the reference-speed ones
RAW = ("op_p50_ms", "ops_per_s")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range like 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
            runs[-1]["metrics"].update({f"raw.{k}": {"value": v} for k, v in record["raw"].items()
                                        if k in RAW})
        rows = {}
        for name, bound in [*bounds.items(), *((f"raw.{k}", None) for k in RAW)]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bound, "values": values}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report[workload] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                            "failed_shares": shares,
                            "attempted": [r["attempted"] for r in runs], "metrics": rows}
        print(f"{workload}: correct={report[workload]['correct']} failed shares {shares} "
              f"attempted {min(report[workload]['attempted'])}-{max(report[workload]['attempted'])}")
        for name, row in rows.items():
            flag = ("" if row["bound"] is None or row["spread"] < row["bound"] / 3
                    else "  <-- spread above bound/3")
            print(f"  {name:22s} median {row['median']:11.4f}  q1 {row['q1']:11.4f}  "
                  f"q3 {row['q3']:11.4f}  spread {row['spread']:.4f} (bound {row['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
