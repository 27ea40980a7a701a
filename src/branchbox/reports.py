"""Report records shared by the formula side and the brute-force side.

`sorted_entries` defines the order of every table: by label, in graded
reverse-lexicographic order of its weight.  The CLI's table emitter
(`cli._emit_table`) validates, ranks and renders each distinct label of a
table once and sorts by those ranks, which gives the same order, since the
labels of a column share one family; the oracle side and the tests sort
with `sorted_entries` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import IrrepLabel, Signature, grevlex_key


@dataclass(frozen=True)
class MultiplicityEntry:
    labels: tuple[IrrepLabel, ...]
    mult: int
    stable: bool


def _label_key(label: IrrepLabel) -> tuple:
    w = label.weight
    if isinstance(w, Signature):
        return (1, grevlex_key(w.plus), grevlex_key(w.minus))
    return (0, grevlex_key(w))


def labels_sort_key(labels: tuple[IrrepLabel, ...]) -> tuple:
    return tuple(_label_key(lab) for lab in labels)


def entry_sort_key(entry: MultiplicityEntry) -> tuple:
    return labels_sort_key(entry.labels)


def sorted_entries(entries) -> list[MultiplicityEntry]:
    return sorted(entries, key=entry_sort_key)
