"""One round of one workload, in a fresh single-threaded interpreter.

    python3 -I perfbench/worker.py ROOT WORKLOAD SEED ROUND MODE SPAWN_TIME

MODE is "plain" (untraced), "trace" (wrappers installed while ops run) or
"probe" (import `branchbox.cli` and stop, for set-up time).  SPAWN_TIME is
the parent's `time.monotonic()` just before it started this process; on
Linux that clock is system-wide, so the difference is the set-up time from
a fresh interpreter to `import branchbox.cli` done.

The round imports `branchbox` from ROOT/src, so the LR and Schur memos start
cold as they do for every CLI user, and prints one JSON summary line.  Every
mode times `speed.reference()` right after the import, so the runner can
scale the set-up time to a fixed machine speed.
"""

if __name__ == "__main__":
    import os
    import sys
    import time

    root = os.path.realpath(sys.argv[1])
    src = os.path.join(root, "src")
    sys.path[:0] = [src, root]
    modules_before = len(sys.modules)
    import_start = time.monotonic()
    import branchbox.cli
    import_done = time.monotonic()
    import_modules = len(sys.modules) - modules_before

    where = os.path.realpath(branchbox.cli.__file__)
    if os.path.dirname(where) != os.path.join(src, "branchbox"):
        print(f"perfbench worker: branchbox resolved to {where}, not under {src}",
              file=sys.stderr)
        sys.exit(3)

    import json

    from perfbench import speed

    setup_refs = speed.timed_references(speed.SETUP_REFERENCES)

    workload, seed, round_index = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    mode, spawned = sys.argv[5], float(sys.argv[6])
    summary = {}
    if mode != "probe":
        from perfbench import rounds, workloads

        ops = workloads.generate(workload, seed, round_index)
        summary = rounds.run_round(ops, traced=(mode == "trace"))
        if "layers" in summary:
            summary["layers"]["imports.s"] = import_done - import_start
            summary["layers"]["imports.modules"] = import_modules
    summary["setup_s"] = import_done - spawned
    summary["setup_ref_seconds"] = setup_refs
    sys.stdout.write(json.dumps(summary, separators=(",", ":")) + "\n")
