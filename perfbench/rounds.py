"""Execute and check one round of ops inside the current interpreter.

`perfbench/worker.py` calls `run_round` in a fresh interpreter per round;
the tests call it directly on small op lists.  Importing this module imports
`branchbox`, so the caller decides which `branchbox` that is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time

import branchbox.cli
from branchbox import dims, lr, partitions, schur

from . import checks, speed


def run_cli(argv: list[str]):
    """(exit code or None, exception text or None, stdout) of one CLI request."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = branchbox.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, never a crashed round
            error = f"{type(exc).__name__}: {exc}"
    return code, error, out.getvalue()


def run_schur(mu, nu, m: int):
    """s_mu * s_nu in m variables, and LR coefficients over every partition."""
    try:
        product = schur.multiply_schur(schur.schur_vector(m, {mu: 1}),
                                       schur.schur_vector(m, {nu: 1}))
        lams = list(partitions.partitions_of(sum(mu) + sum(nu), max_length=m))
        lr_values = [lr.lr_coefficient(lam, mu, nu) for lam in lams]
        schur_values = [product.coefficient(lam) for lam in lams]
    except Exception as exc:  # same rule as for CLI ops
        return None, f"{type(exc).__name__}: {exc}", ""
    extra = sorted(set(product.coeffs) - set(lams))
    payload = {"lam": lams, "schur": schur_values, "lr": lr_values, "extra": extra}
    return 0, None, json.dumps(payload, separators=(",", ":"))


def run_ops(ops: list[dict], tracer=None, ref_seconds: list | None = None
            ) -> tuple[list[dict], list[float]]:
    """Run ops in order, one at a time; returns (results, seconds per op).

    With `ref_seconds` given, `speed.reference()` runs after each op and its
    time is appended there.
    """
    results, seconds = [], []
    for op in ops:
        if tracer:
            tracer.begin_op(op["id"])
        start = time.perf_counter()
        if op["kind"] == "cli":
            code, error, stdout = run_cli(op["argv"])
        else:
            code, error, stdout = run_schur(op["mu"], op["nu"], op["m"])
        seconds.append(time.perf_counter() - start)
        if tracer:
            tracer.end_op()
        results.append({"code": code, "error": error, "stdout": stdout})
        if ref_seconds is not None:
            ref_seconds += speed.timed_references(1)
    return results, seconds


def _memo_size() -> int | None:
    snapshot = getattr(lr, "cache_snapshot", None)
    return len(snapshot()) if callable(snapshot) else None


def run_round(ops: list[dict], traced: bool) -> dict:
    """Run, check and summarize one round; wrappers exist only while ops run."""
    tracer = None
    if traced:
        from .tracer import Tracer
        tracer = Tracer()
    memo_before = _memo_size()
    ref_seconds: list[float] = []
    with tracer or contextlib.nullcontext():
        results, seconds = run_ops(ops, tracer, ref_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    memo_after = _memo_size()

    failures = checks.check_round(ops, results, dims)
    digest = hashlib.sha256()
    for res in results:
        digest.update(res["stdout"].encode())
        digest.update(b"\0")
    summary = {
        "op_seconds": seconds,
        "ref_seconds": ref_seconds,
        "entries": sum(checks.entry_count(op, r["code"], r["stdout"])
                       for op, r in zip(ops, results)),
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
        "wrong_answers": checks.wrong_answers(failures),
        "refused": sum(1 for r in results if r["code"] == 2),
        "bytes_out": sum(len(r["stdout"].encode())
                         for op, r in zip(ops, results) if op["kind"] == "cli"),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
    }
    if tracer:
        layer = tracer.metrics()
        layer["cli.refused"] = summary["refused"]
        layer["jsonio.bytes_out"] = summary["bytes_out"]
        if memo_before is None or memo_after is None:
            tracer.missing.append("branchbox.lr.cache_snapshot")
            layer["trace.missing_targets"] = len(tracer.missing)
            memo_new = 0
        else:
            memo_new = memo_after - memo_before
        layer["lr.memo_new"] = memo_new
        layer["lr.fill_ratio"] = memo_new / layer["lr.calls"] if layer["lr.calls"] else 0.0
        summary["layers"] = layer
        summary["missing"] = tracer.missing
        summary["spans"] = tracer.spans
    return summary
