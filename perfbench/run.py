"""branchbox benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload formula-tables --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  A run covers ROUNDS[workload]
rounds; the op list of round k is a pure function of (workload, seed, k)
(see workloads.py).  Rounds run round-robin, each in a fresh interpreter
(worker.py) that imports `branchbox` from the checkout's src/, so every
round starts with cold memos.  Every round runs once, then rounds repeat
until --seconds have passed.  Only one single-threaded worker process runs
at a time, and no request passes --jobs or --cache.

--trace 0 reports the end-to-end metrics.  Times are scaled to a fixed
machine speed (speed.py), so the drift of a shared host cancels: each op's
time is divided by the reference times taken around it.  Every repeat of a
round runs the same ops from the same cold start, so an op's cost is the
median of its scaled repeats (those taken while the machine was fast).
wall_s sums the ops' costs, op_p50_ms and op_tail_ms are percentiles of
them, and setup_s is the median of every scaled set-up sample.  The info
line also carries the unscaled medians.

--trace 1 runs every round untraced and then traced, and reports the
per-layer metrics of the traced rounds, summed over the rounds, with
trace.overhead_s the traced minus the untraced scaled op time.  The last stdout
line is the JSON result; the line before it holds the run's provenance,
output digest and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_PROBES = 3  # import-only interpreters, on top of one set-up sample per round
RUN_LIMIT_S = 170.0  # a worker still running then is killed and the run fails

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)
from perfbench import speed  # noqa: E402
from perfbench.workloads import ROUNDS, WORKLOADS, generate  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "entries_per_s": "1/s",
              "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
_S, _N = "s", "count"
PER_LAYER = {
    "cli.self_s": _S, "cli.refused": _N,
    "partitions.as_partition_calls": _N, "partitions.between_calls": _N,
    "lr.calls": _N, "lr.s": _S, "lr.self_s": _S, "lr.multi_calls": _N,
    "lr.memo_new": _N, "lr.fill_ratio": "ratio",
    "branch.calls": _N, "branch.self_s": _S,
    "schur.multiply_calls": _N, "schur.self_s": _S, "schur.expand_s": _S,
    "schur.kostka_calls": _N, "schur.monomial_product_calls": _N, "schur.decompose_s": _S,
    "dims.s": _S,
    "dualpair.configs.builds": _N, "dualpair.configs.s": _S,
    "dualpair.analysis.hwv_calls": _N, "dualpair.analysis.self_s": _S,
    "dualpair.analysis.buckets_s": _S, "dualpair.analysis.blocks": _N,
    "dualpair.analysis.max_block_dim": _N, "dualpair.analysis.brackets_s": _S,
    "dualpair.poly.apply_calls": _N, "dualpair.poly.s": _S, "dualpair.poly.terms_out": _N,
    "dualpair.linalg.echelon_calls": _N, "dualpair.linalg.echelon_s": _S,
    "dualpair.linalg.backsub_s": _S, "dualpair.linalg.max_rows": _N,
    "dualpair.linalg.max_cols": _N, "dualpair.linalg.cells": _N,
    "dualpair.linalg.max_entry_bits": "bits", "dualpair.linalg.fraction_inputs": _N,
    "dualpair.linalg.nonintegral_inputs": _N,
    "jsonio.emit_s": _S, "jsonio.bytes_out": "bytes", "reports.sort_s": _S,
    "trace.overhead_s": _S, "trace.spans": _N, "trace.missing_targets": _N,
    "imports.s": _S, "imports.modules": _N,
}
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(RuntimeError):
    pass


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(workload: str, seed: int, round_index: int, mode: str, started: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BRANCHBOX_CACHE"}
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    spawned = time.monotonic()
    argv = [sys.executable, "-I", WORKER, ROOT, workload, str(seed), str(round_index),
            mode, repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} round {round_index} of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} round {round_index} of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def _tail_percentile(count: int) -> float:
    """Highest listed percentile with at least ten ops beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def _unscaled(by_round: list[list[dict]]) -> float:
    """Sum over ops of each op's median raw time over its repeats."""
    return sum(statistics.median(column) for samples in by_round
               for column in zip(*(r["op_seconds"] for r in samples)))


def _end_to_end(by_round: list[list[dict]], setups: list[float], tail_p: float) -> dict:
    """by_round[k]: every untraced sample of round k (one op list)."""
    per_op = speed.op_costs(by_round)
    wall = sum(per_op)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "entries_per_s": sum(samples[0]["entries"] for samples in by_round) / wall,
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": 1000.0 * _nearest_rank(per_op, tail_p),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for s in by_round for r in s),
    }


_PEAK_LAYERS = ("dualpair.analysis.max_block_dim", "dualpair.linalg.max_rows",
                "dualpair.linalg.max_cols", "dualpair.linalg.max_entry_bits")
_MEDIAN_LAYERS = ("imports.s", "imports.modules", "trace.missing_targets")


def _per_layer(traced: list[list[dict]], plain: list[list[dict]]) -> dict:
    """Per-layer metrics summed over the rounds of a run (peaks: maximum)."""
    per_round = [{name: statistics.median(r["layers"][name] for r in samples)
                  for name in samples[0]["layers"]} for samples in traced]
    layers = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name in _PEAK_LAYERS:
            layers[name] = max(values)
        elif name in _MEDIAN_LAYERS:
            layers[name] = statistics.median(values)
        else:
            layers[name] = sum(values)
    layers["lr.fill_ratio"] = layers["lr.memo_new"] / layers["lr.calls"] if layers["lr.calls"] else 0.0
    layers["trace.overhead_s"] = sum(speed.op_costs(traced)) - sum(speed.op_costs(plain))
    return layers


def _write_spans(workload: str, seed: int, spans: list) -> str:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["id","name","start","end","parent","op"]\n')
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    return os.path.relpath(path, ROOT)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "branchbox", "cli.py")):
        raise BenchError(f"no branchbox sources under {os.path.join(ROOT, 'src')}")
    rounds = ROUNDS[workload]
    n_ops = [len(generate(workload, seed, k)) for k in range(rounds)]
    started = time.monotonic()
    probes = [_worker(workload, seed, 0, "probe", started) for _ in range(SETUP_PROBES)]
    plain: list[list[dict]] = [[] for _ in range(rounds)]
    traced: list[list[dict]] = [[] for _ in range(rounds)]
    deadline = started + seconds
    done = 0
    # Round-robin over the op lists: every round runs at least once, then
    # the loop repeats rounds until the measuring time is used up.
    while done < rounds or time.monotonic() < deadline:
        k = done % rounds
        plain[k].append(_worker(workload, seed, k, "plain", started))
        if trace:
            traced[k].append(_worker(workload, seed, k, "trace", started))
        done += 1
    samples = [r for per_k in plain + traced for r in per_k]
    setups = [speed.scale(r["setup_s"], r["setup_ref_seconds"]) for r in probes + samples]

    # An op is one request of a round; its repeats are timing samples, so
    # it counts once, and fails if any of its repeats failed.
    attempted = sum(n_ops)
    failed = sum(len({i for r in plain[k] + traced[k] for i in r["failures"]})
                 for k in range(rounds))
    wrong = sum(len(r["wrong_answers"]) for r in samples)
    digests = [sorted({r["digest"] for r in plain[k] + traced[k]}) for k in range(rounds)]
    correct = wrong == 0 and all(len(d) == 1 for d in digests)
    tail_p = _tail_percentile(sum(n_ops))
    first_failures = {f"{k}:{i}": reason for k in range(rounds)
                      for i, reason in plain[k][0]["failures"].items()}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": rounds, "samples": len(samples), "ops": sum(n_ops),
        "repeats_min": min(len(per_k) for per_k in plain),
        "setup_samples": len(setups), "op_tail_percentile": tail_p,
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in probes + samples),
        "unscaled_wall_s": _unscaled(plain),
        "reference_s": statistics.median(t for r in samples for t in r["ref_seconds"]),
        "failed_share": failed / attempted,
        "stdout_digest": hashlib.sha256("".join(d[0] for d in digests).encode()).hexdigest(),
        "refused": sum(plain[k][0]["refused"] for k in range(rounds)),
        "bytes_out": sum(plain[k][0]["bytes_out"] for k in range(rounds)),
        "failures": first_failures,
    }
    if trace:
        layers = _per_layer(traced, plain)
        info["missing_targets"] = traced[0][0]["missing"]
        info["spans_file"] = _write_spans(workload, seed, traced[0][-1]["spans"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = _end_to_end(plain, setups, tail_p)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
