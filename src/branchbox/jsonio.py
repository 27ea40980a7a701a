"""Shared JSON/CSV rendering and text parsing for labels and reports.

Partitions encode as integer arrays ([] for the empty partition), signatures
as {"plus": [...], "minus": [...]}.  On the command line partitions are
comma-separated parts ("3,2,1", empty string for the empty partition) and
signatures are "plus;minus".  All JSON is emitted compact and all tables are
pre-sorted, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping, Sequence

from .errors import UsageError
from .partitions import IrrepLabel, Partition, Signature, as_partition
from .reports import MultiplicityEntry


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid partition {text!r}: parts must be integers") from exc
    try:
        return as_partition(parts)
    except UsageError as exc:
        raise UsageError(f"invalid partition {text!r}: {exc}") from exc


def parse_signature(text: str) -> Signature:
    text = text.strip()
    if ";" not in text:  # bare partition means a polynomial signature
        return Signature(parse_partition(text), ())
    plus_text, _, minus_text = text.partition(";")
    if ";" in minus_text:
        raise UsageError(f"invalid signature {text!r}: expected plus;minus")
    return Signature(parse_partition(plus_text), parse_partition(minus_text))


def weight_json(weight):
    if isinstance(weight, Signature):
        return {"plus": list(weight.plus), "minus": list(weight.minus)}
    return list(weight)


def label_json(label: IrrepLabel) -> dict:
    return {"family": label.family, "rank": label.rank,
            "weight": weight_json(label.weight)}


def entry_json(entry: MultiplicityEntry) -> dict:
    return {"labels": [label_json(lab) for lab in entry.labels],
            "mult": entry.mult, "stable": entry.stable}


def entries_json_text(rows: Iterable[tuple[Sequence[str], int]], stable: bool) -> str:
    """The text of dumps([entry_json(e) ...]) for a table of one stable flag.

    Each row is (label fragments, mult), a fragment being the text of
    dumps(label_json(label)), so a table renders each distinct label once.
    """
    tail = ',"stable":true}' if stable else ',"stable":false}'
    return "[" + ",".join(f'{{"labels":[{",".join(labels)}],"mult":{mult}{tail}'
                          for labels, mult in rows) + "]"


def value_json(value: int, stable: bool | None = None) -> dict:
    if stable is None:
        return {"value": value}
    return {"value": value, "stable": stable}


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def render_weight(weight) -> str:
    """Space-free text form: '3,2,1' for partitions, 'plus;minus' for signatures."""
    if isinstance(weight, Signature):
        return f"{render_weight(weight.plus)};{render_weight(weight.minus)}"
    return ",".join(str(a) for a in weight)


def _csv_rows(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _label_columns(labels: Sequence[IrrepLabel]) -> list[str]:
    return [f"{lab.family}{lab.rank}" for lab in labels]


def entries_csv(entries: Sequence[MultiplicityEntry]) -> str:
    if not entries:
        return _csv_rows(["mult", "stable"], [])
    header = _label_columns(entries[0].labels) + ["mult", "stable"]
    rows = [[render_weight(lab.weight) for lab in e.labels]
            + [e.mult, "true" if e.stable else "false"] for e in entries]
    return _csv_rows(header, rows)


def value_csv(value: int, stable: bool | None = None) -> str:
    if stable is None:
        return _csv_rows(["value"], [[value]])
    return _csv_rows(["value", "stable"], [[value, "true" if stable else "false"]])


def verify_json(name: str, params: Mapping[str, int], rows) -> dict:
    """rows: sequence of (labels, formula, oracle)."""
    entries = [{"labels": [label_json(lab) for lab in labels],
                "formula": formula, "oracle": oracle,
                "pass": formula == oracle}
               for labels, formula, oracle in rows]
    return {"verify": name, "params": dict(params), "entries": entries,
            "ok": all(e["pass"] for e in entries)}


def verify_csv(rows) -> str:
    rows = list(rows)
    if not rows:
        return _csv_rows(["formula", "oracle", "verdict"], [])
    header = _label_columns(rows[0][0]) + ["formula", "oracle", "verdict"]
    out = [[render_weight(lab.weight) for lab in labels]
           + [formula, oracle, "PASS" if formula == oracle else "FAIL"]
           for labels, formula, oracle in rows]
    return _csv_rows(header, out)


def series_json(series) -> list[str]:
    return [str(c) for c in series.coeffs]


def hilbert_json(ok: bool, series: Mapping[str, object]) -> dict:
    return {"ok": ok,
            "harmonic": series_json(series["harmonic"]),
            "invariants": series_json(series["invariants"]),
            "full": series_json(series["full"])}


def hilbert_csv(ok: bool, series: Mapping[str, object]) -> str:
    harmonic = series["harmonic"].coeffs
    invariants = series["invariants"].coeffs
    full = series["full"].coeffs
    rows = [[d, harmonic[d], invariants[d], full[d]] for d in range(len(full))]
    rows.append(["verdict", "", "", "PASS" if ok else "FAIL"])
    return _csv_rows(["degree", "harmonic", "invariants", "full"], rows)


def bracket_report_json(report) -> dict:
    entries = [{"left": e.left, "right": e.right, "rule": e.rule, "ok": e.ok,
                "expression": [[name, str(coeff)] for name, coeff in e.expression]}
               for e in report.entries]
    return {"descriptor": report.descriptor,
            "test_degree": report.test_degree,
            "euler_variant": report.euler_variant,
            "ok": report.ok,
            "entries": entries}


def bracket_report_csv(report) -> str:
    rows = [[e.left, e.right, e.rule, "PASS" if e.ok else "FAIL"]
            for e in report.entries]
    return _csv_rows(["left", "right", "rule", "verdict"], rows)
