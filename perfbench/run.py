"""Run the delchan benchmark.

One workload in this process (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload e2e_bdc --seed 3 --seconds 20 --trace 0

Every workload, each in a fresh process, untraced and then traced; prints
every metric with its unit and, with --record NAME, writes the results and
run metadata to perfbench/results/NAME.json:

    python3 perfbench/run.py --seconds 15 --record NAME

Exits 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("e2e_bdc", "single_prc", "transition_p99")


def run_one(args: argparse.Namespace) -> int:
    import bench

    result = bench.run_workload(bench.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace))
    diagnostics = result.pop("diagnostics")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    runs = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                if len(lines) < 2:
                    continue
            diagnostics = json.loads(lines[-2])["diagnostics"]
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "trace": trace, "result": result,
                         "diagnostics": diagnostics})
            print(f"\n{workload} ({'traced' if trace else 'untraced'}):"
                  f" correct={result['correct']} digest_ok={diagnostics['digest_ok']}"
                  f" gate_ok={diagnostics['gate_ok']}")
            rows = dict(result["metrics"])
            rows["failed_frac"] = {"value": diagnostics["failed_frac"], "unit": "ratio"}
            rows.setdefault("decode_error_rate",
                            {"value": diagnostics["decode_error_rate"], "unit": "ratio"})
            for name, metric in rows.items():
                print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    if args.record:
        out = HERE / "results" / f"{args.record}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                   "runs": runs}, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="delchan Monte Carlo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload here (default: all, in fresh processes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="results file name under perfbench/results/")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
