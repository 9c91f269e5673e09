"""Steadiness check: repeated runs in fresh processes, compared by set.

    python3 perfbench/steady.py --runs 10 --labels A B --out .perfbench/steady-1.json
    python3 perfbench/steady.py --runs 10 --labels late --against .perfbench/steady-1.json

Runs the command of BENCHMARK.json on every workload (or ``--workload``),
alternating between the labelled sets run by run, each run with its own
seed. For every end-to-end metric it prints each set's median and
quartiles, the quartile spread as a share of the median, and whether the
sets agree within the bounds of BENCHMARK.json: every spread except
setup_s within its bound, no set's median worse than the first set's by
more than the bound, and the same share of failed operations. Sets taken
at different times are compared by saving one (``--out``) and comparing a
later one ``--against`` it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["elapsed_s"] = time.monotonic() - start
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec: dict, sets: dict[str, dict[str, list[dict]]]) -> bool:
    """Print the per-set table; True when every set agrees with the first."""
    ok = True
    labels = list(sets)
    base = labels[0]
    workloads = sorted({w for runs in sets.values() for w in runs})
    for workload in workloads:
        print(f"\n== {workload}")
        shares = {}
        for label in labels:
            runs = sets[label].get(workload, [])
            if not all(r["correct"] for r in runs):
                print(f"  set {label}: a run reported correct=false")
                ok = False
            shares[label] = {(r["failed"], r["attempted"]) for r in runs}
            fractions = {f / a for f, a in shares[label]}
            print(f"  set {label}: {len(runs)} runs, failed share {sorted(fractions)}")
        if len({f / a for s in shares.values() for f, a in s}) > 1:
            print("  FAIL: the failed share differs between runs")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            cells = []
            medians = {}
            for label in labels:
                values = [r["metrics"][name]["value"] for r in sets[label].get(workload, [])]
                if len(values) < 2:
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians[label] = q2
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = " spread>bound/3"
                cells.append(f"{label}: {q2:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.1%}{flag}")
            verdict = ""
            for label in labels[1:]:
                if base in medians and label in medians and medians[base]:
                    change = medians[label] / medians[base] - 1
                    worse = change if better == "lower" else -change
                    verdict += f" | {label} vs {base}: {change:+.1%}"
                    if worse > bound:
                        verdict += " WORSE>BOUND"
                        ok = False
            print(f"  {name:20s} bound {bound:.0%}  " + "  ".join(cells) + verdict)
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--labels", nargs="+", default=["A", "B"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", type=Path, help="save the sets as JSON")
    parser.add_argument("--against", type=Path, help="saved sets to compare with (first)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets: dict[str, dict[str, list[dict]]] = {label: {} for label in args.labels}
    seed = args.seed_base
    for _ in range(args.runs):
        for label in args.labels:
            for workload in workloads:
                result = run_once(spec, workload, seed)
                sets[label].setdefault(workload, []).append(result)
                print(f"{label} {workload} seed {seed} ({result['elapsed_s']:.0f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
                seed += 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(sets))
    if args.against:
        saved = json.loads(args.against.read_text())
        merged = {f"saved-{label}": runs for label, runs in saved.items()}
        merged.update(sets)
        sets = merged
    return 0 if compare(spec, sets) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
