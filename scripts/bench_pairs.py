"""Run alternating parent/change pairs of perfbench and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr 5 \\
        --workload oracle-verify=10 --workload formula-tables=5 \\
        --trace-seed 1 --tier1 2 --what "one line on the change"

Each checkout is a source tree with `perfbench/` and `src/`.  Pair s runs
`python3 perfbench/run.py --workload W --seed s --seconds S --trace 0` once
in each checkout, seeds 1..N, one run at a time, S being the `run_seconds`
of the change's BENCHMARK.json.  Odd seeds run the parent first and even
seeds the change first, so a drift of the machine's speed hits both sides
alike.  Per workload and end-to-end metric the file holds
each side's median and quartiles, the change's relative shift, the parent's
interquartile range and the number of pairs the change wins (strictly
better, in the direction BENCHMARK.json gives).  `--trace-seed` adds one
`--trace 1` run per side for the per-layer metrics, `--tier1 N` times the
tier-1 test command N times per side, with a fixed `--hypothesis-seed`.

With `--log FILE`, every finished run is appended to FILE as one JSON line,
and runs already in FILE are reused, so an interrupted session resumes.
The result goes to BENCH_<pr>.json in the current directory.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

# a fixed hypothesis seed, so both sides time the same drawn sizes
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--hypothesis-seed=1"]


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _workload_arg(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition("=")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME=PAIRS, got {text!r}")
    return name, int(pairs)


class Runs:
    """perfbench runs keyed by (side, workload, seed, seconds, trace), optionally logged."""

    def __init__(self, roots: dict[str, str], log: str | None):
        self.roots = roots
        self.log = log
        self.done: dict[tuple, dict] = {}
        if log and os.path.exists(log):
            with open(log, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.done[tuple(rec["key"])] = rec

    def get(self, side: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
        key = (side, workload, seed, seconds, trace)
        if key in self.done:
            return self.done[key]
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        print(f"bench_pairs: {side} {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=self.roots[side], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            sys.exit(f"bench_pairs: {side} run failed (exit {proc.returncode}): "
                     f"{proc.stderr.strip()[-500:]}")
        rec = {"key": list(key), "info": json.loads(lines[-2])["info"],
               "result": json.loads(lines[-1])}
        self.done[key] = rec
        if self.log:
            with open(self.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        return rec


def _summary(rec: dict) -> dict:
    result = rec["result"]
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "stdout_digest": rec["info"]["stdout_digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "unscaled_wall_s": rec["info"]["unscaled_wall_s"]}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    c_q1, c_q3 = _quartiles(change)
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    return {"parent_median": round(p_med, 4), "change_median": round(c_med, 4),
            "change_vs_parent": round(c_med / p_med - 1, 4) if p_med else None,
            "parent_iqr": round(p_q3 - p_q1, 4),
            "parent_quartiles": [round(p_q1, 4), round(p_q3, 4)],
            "change_quartiles": [round(c_q1, 4), round(c_q3, 4)],
            "change_wins": wins, "pairs": len(parent)}


def _tier1(roots: dict[str, str], count: int) -> dict:
    out: dict[str, list] = {"parent": [], "change": []}
    env = dict(os.environ, PYTHONPATH="src")
    for i in range(count):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            start = time.monotonic()
            proc = subprocess.run(TIER1, cwd=roots[side], env=env, capture_output=True, text=True)
            wall = time.monotonic() - start
            passed = re.search(r"(\d+) passed", proc.stdout)
            took = re.search(r" in ([\d.]+)s", proc.stdout)
            out[side].append({"passed": int(passed.group(1)) if passed else 0,
                              "pytest_s": float(took.group(1)) if took else None,
                              "wall_s": round(wall, 2)})
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
                       "--hypothesis-seed=1",
            **out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="suffix of the output file name")
    parser.add_argument("--workload", type=_workload_arg, action="append", required=True,
                        metavar="NAME=PAIRS")
    parser.add_argument("--trace-seed", type=int, help="seed of one --trace 1 run per side")
    parser.add_argument("--tier1", type=int, default=0, metavar="N",
                        help="time the tier-1 tests N times per side")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--parent-sha", help="default: git rev-parse HEAD in --parent")
    parser.add_argument("--change-sha", help="default: git rev-parse HEAD in --change")
    parser.add_argument("--log", help="JSON-lines file of finished runs, reused on restart")
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = Runs(roots, args.log)

    seed1: dict = {}
    pairs: dict = {}
    first_info = None
    for workload, count in args.workload:
        recs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(1, count + 1):
            for side in (("parent", "change") if seed % 2 else ("change", "parent")):
                recs[side].append(runs.get(side, workload, seed, seconds, 0))
        first_info = first_info or recs["change"][0]["info"]
        seed1[workload] = {side: _summary(recs[side][0]) for side in recs}
        entry = {
            "seeds": list(range(1, count + 1)),
            "same_digest_and_attempted": all(
                p["info"]["stdout_digest"] == c["info"]["stdout_digest"]
                and p["result"]["attempted"] == c["result"]["attempted"]
                for p, c in zip(recs["parent"], recs["change"])),
            "failed_parent_change": [[p["result"]["failed"], c["result"]["failed"]]
                                     for p, c in zip(recs["parent"], recs["change"])],
        }
        for name, direction in better.items():
            entry[name] = _compare([r["result"]["metrics"][name]["value"] for r in recs["parent"]],
                                   [r["result"]["metrics"][name]["value"] for r in recs["change"]],
                                   direction)
        pairs[workload] = entry

    out = {
        "what": args.what,
        "parent_git_sha": args.parent_sha or _git_sha(roots["parent"]),
        "change_git_sha": args.change_sha or _git_sha(roots["change"]),
        "python": first_info["python"],
        "nproc": first_info["nproc"],
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs; perfbench scales op times "
                   f"to a fixed machine speed (perfbench/speed.py)",
        "bench_command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                         f"--seconds {seconds} --trace 0",
        "pair_order": "odd seeds run the parent first, even seeds the change first; "
                      "one run at a time",
        "seed1": seed1,
        "pairs": pairs,
    }
    if args.trace_seed is not None:
        traced: dict = {}
        for workload, _ in args.workload:
            traced[workload] = {}
            for side in ("parent", "change"):
                rec = runs.get(side, workload, args.trace_seed, seconds, 1)
                values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
                traced[workload][side] = {**values, "failed": rec["result"]["failed"]}
        out[f"per_layer_seed{args.trace_seed}_trace1"] = traced
    if args.tier1:
        out["tier1"] = _tier1(roots, args.tier1)

    path = f"BENCH_{args.pr}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, entry in pairs.items():
        w = entry["wall_s"]
        print(f"{workload}: wall_s {w['parent_median']} -> {w['change_median']} "
              f"({w['change_vs_parent']:+.1%}), change wins {w['change_wins']}/{w['pairs']}, "
              f"parent IQR {w['parent_iqr']}, same digest and attempted: "
              f"{entry['same_digest_and_attempted']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
