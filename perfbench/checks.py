"""Correctness checks for one round of ops.

Each op is judged by an identity that does not go through the code path that
produced its answer:

* a restrict o / tensor o / tensor sp table conserves Weyl dimension;
* a single value equals its entry in the full table of the same round;
* a sweep of single values (branch gl-o / gl-sp, lr, tensor gl-rational over
  every label that can occur) conserves Weyl dimension;
* an in-range verify suite is all PASS, and a hilbert series matches the
  closed form of the full polynomial series;
* a Schur product agrees with the LR coefficient on every partition.

Expectations: "ok" ops must exit 0 and pass their identity, "refuse" ops
(enforce policy outside the stable range) must exit 2, "record" ops (warn
policy outside the stable range) are kept but not judged.  A traceback fails
every op, judged or not.  The dimension formulas come from `branchbox.dims`,
passed in as `dims` so a test can substitute its own.
"""

from __future__ import annotations

import json
from math import comb


def _weight(label: dict) -> tuple:
    w = label["weight"]
    if isinstance(w, dict):
        return (tuple(w["plus"]), tuple(w["minus"]))
    return tuple(w)


def _table(output: dict) -> dict:
    """Label tuple -> multiplicity for a table printed as a JSON entry list."""
    return {tuple(_weight(lab) for lab in e["labels"]): e["mult"] for e in output}


def _signature_dim(dims, sig: tuple, n: int) -> int:
    plus, minus = sig
    shift = minus[0] if minus else 0
    weight = list(plus) + [0] * (n - len(plus) - len(minus)) + [-a for a in reversed(minus)]
    return dims.dim_gl([a + shift for a in weight], n)


def _table_identity(check: dict, table: dict, dims) -> str | None:
    kind = check["type"]
    if kind == "restrict-table":
        n, m = check["n"], check["m"]
        got = sum(v * dims.dim_o(mu, n) * dims.dim_o(nu, m) for (mu, nu), v in table.items())
        want = dims.dim_o(check["lam"], n + m)
    elif kind == "tensor-o-table":
        n = check["n"]
        got = sum(v * dims.dim_o(lam, n) for (lam,), v in table.items())
        want = dims.dim_o(check["mu"], n) * dims.dim_o(check["nu"], n)
    else:
        n = check["n"]
        got = sum(v * dims.dim_sp(lam, n) for (lam,), v in table.items())
        want = dims.dim_sp(check["mu"], n) * dims.dim_sp(check["nu"], n)
    return None if got == want else f"dimension {got} != {want}"


def _sweep_identity(check: dict, values: list[tuple[list, int]], dims) -> str | None:
    """values: (argv, printed value) for every op of the sweep."""
    kind = check["type"]

    def flag(argv, name):
        return argv[argv.index(name) + 1]

    def part(s):
        return tuple(int(a) for a in s.split(",")) if s else ()

    def sig(s):
        plus, _, minus = s.partition(";")
        return (part(plus), part(minus))

    if kind == "sweep-gl-o":
        n = check["n"]
        got = sum(v * dims.dim_o(part(flag(a, "--mu")), n) for a, v in values)
        want = dims.dim_gl(check["lam"], n)
    elif kind == "sweep-gl-sp":
        n = check["n"]
        got = sum(v * dims.dim_sp(part(flag(a, "--mu")), n) for a, v in values)
        want = dims.dim_gl(check["lam"], 2 * n)
    elif kind == "sweep-lr":
        k = len(check["mu"]) + len(check["nu"])
        got = sum(v * dims.dim_gl(part(flag(a, "--lam")), k) for a, v in values)
        want = dims.dim_gl(check["mu"], k) * dims.dim_gl(check["nu"], k)
    else:
        n = check["n"]
        got = sum(v * _signature_dim(dims, sig(flag(a, "--lam")), n) for a, v in values)
        want = (_signature_dim(dims, tuple(map(tuple, check["mu"])), n)
                * _signature_dim(dims, tuple(map(tuple, check["nu"])), n))
    return None if got == want else f"dimension {got} != {want}"


def _verify_identity(check: dict, output: dict) -> str | None:
    if check["type"] == "hilbert":
        full = [int(c) for c in output["full"]]
        nm = check["n"] * check["m"]
        closed = [comb(nm + d - 1, d) for d in range(len(full))]
        if full != closed:
            return "full series differs from C(nm+d-1, d)"
        return None if output["ok"] else "hilbert identity reported FAIL"
    if not output["ok"]:
        return "verify reported FAIL"
    entries = output["entries"]
    if any(not e.get("pass", e.get("ok")) for e in entries):
        return "an entry is not PASS"
    return None


def _schur_identity(output: dict) -> str | None:
    bad = [lam for lam, s, c in zip(output["lam"], output["schur"], output["lr"]) if s != c]
    if bad:
        return f"Schur product and LR differ at {bad[0]}"
    if output["extra"]:
        return f"Schur product has terms outside the partition list: {output['extra'][0]}"
    return None


def check_round(ops: list[dict], results: list[dict], dims) -> dict[int, str]:
    """Op id -> failure reason, for every op that failed.

    results[i] is {"code": int exit code, or None after an exception,
    "error": exception text or None, "stdout": captured text}.
    """
    failures: dict[int, str] = {}
    parsed: dict[int, object] = {}
    for op, res in zip(ops, results):
        i = op["id"]
        if res["error"] is not None:
            failures[i] = f"traceback: {res['error']}"
            continue
        if op["expect"] == "refuse":
            if res["code"] != 2:
                failures[i] = f"expected exit 2 outside the stable range, got {res['code']}"
            continue
        if op["expect"] == "record":
            continue
        if res["code"] != 0:
            failures[i] = f"exit code {res['code']}"
            continue
        try:
            parsed[i] = json.loads(res["stdout"])
        except ValueError:
            failures[i] = "stdout is not one JSON document"

    groups: dict[str, list[dict]] = {}
    for op in ops:
        i, check = op["id"], op["check"]
        if i in failures or op["expect"] != "ok":
            continue
        out = parsed[i]
        kind = check["type"]
        reason = None
        if kind.endswith("-table"):
            reason = _table_identity(check, _table(out), dims)
        elif kind == "single":
            table_op = check["table"]
            if table_op in failures:
                reason = "its table failed"
            else:
                want = _table(parsed[table_op]).get(tuple(map(tuple, check["labels"])), 0)
                if out["value"] != want:
                    reason = f"value {out['value']} != table entry {want}"
        elif kind.startswith("sweep-"):
            groups.setdefault(op["group"], []).append(op)
        elif kind in ("verify", "hilbert"):
            reason = _verify_identity(check, out)
        elif kind == "schur":
            reason = _schur_identity(out)
        if reason:
            failures[i] = reason

    for group_ops in groups.values():
        values = [(op["argv"], parsed[op["id"]]["value"]) for op in group_ops]
        reason = _sweep_identity(group_ops[0]["check"], values, dims)
        if reason:
            for op in group_ops:
                failures[op["id"]] = f"sweep {op['group']}: {reason}"
    return failures


def wrong_answers(failures: dict[int, str]) -> list[int]:
    """Failed ops that answered wrongly, as opposed to failing with a traceback."""
    return [i for i, reason in sorted(failures.items()) if not reason.startswith("traceback")]


def entry_count(op: dict, code: int | None, stdout: str) -> int:
    """Multiplicity entries, verify entries or compared coefficients in one answer."""
    if code != 0 and not (code == 1 and op["kind"] == "cli" and op["argv"][0] == "verify"):
        return 0
    try:
        out = json.loads(stdout)
    except ValueError:
        return 0
    if isinstance(out, list):
        return len(out)
    if "entries" in out:
        return len(out["entries"])
    if "full" in out:
        return len(out["full"])
    if "lam" in out:
        return len(out["lam"])
    return 1
