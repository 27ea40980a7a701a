import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import warnings
from functools import partial

import pytest

from branchbox import branch, cli, jsonio, lr
from branchbox.cli import main
from branchbox.errors import StableRangeError, StableRangeWarning
from branchbox.partitions import IrrepLabel, enumerate_partitions, is_admissible_o, partitions_of
from branchbox.reports import MultiplicityEntry, sorted_entries


def run(capsys, *argv, ignore_warnings=False):
    if ignore_warnings:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(list(argv))
    else:
        rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_lr_value(capsys):
    rc, out, _ = run(capsys, "lr", "--lam", "3,2,1", "--mu", "2,1", "--nu", "2,1")
    assert rc == 0
    assert out == '{"value":2}\n'


def test_branch_gl_o_value(capsys):
    rc, out, _ = run(capsys, "branch", "gl-o", "--lam", "2", "--mu", "", "--n", "5")
    assert rc == 0
    assert out == '{"value":1,"stable":true}\n'


def test_branch_outside_stable_range_exits_2(capsys):
    rc, out, err = run(capsys, "branch", "gl-o", "--lam", "2", "--mu", "", "--n", "2")
    assert rc == 2
    assert out == ""
    assert err == "error: outside the stable range: requires n > 2*len(lam) = 2\n"


def test_branch_warn_policy_computes(capsys):
    rc, out, _ = run(capsys, "branch", "gl-o", "--lam", "2", "--mu", "", "--n", "2",
                     "--stable-policy", "warn", ignore_warnings=True)
    assert rc == 0
    assert out == '{"value":1,"stable":false}\n'


def test_bad_partition_exits_2(capsys):
    rc, _, err = run(capsys, "lr", "--lam", "1,2", "--mu", "1", "--nu", "1")
    assert rc == 2
    assert err.startswith("error: ")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_tensor_o_table_json(capsys):
    rc, out, _ = run(capsys, "tensor", "o", "--mu", "1", "--nu", "1", "--n", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc == [
        {"labels": [{"family": "O", "rank": 5, "weight": []}], "mult": 1, "stable": True},
        {"labels": [{"family": "O", "rank": 5, "weight": [2]}], "mult": 1, "stable": True},
        {"labels": [{"family": "O", "rank": 5, "weight": [1, 1]}], "mult": 1, "stable": True},
    ]
    assert out == json.dumps(doc, separators=(",", ":")).replace(" ", "") + "\n"


def test_tensor_o_single_value(capsys):
    rc, out, _ = run(capsys, "tensor", "o", "--mu", "1", "--nu", "1",
                     "--lam", "1,1", "--n", "5")
    assert rc == 0
    assert out == '{"value":1,"stable":true}\n'


def test_tensor_o_table_csv(capsys):
    rc, out, _ = run(capsys, "tensor", "o", "--mu", "1", "--nu", "1", "--n", "5",
                     "--output-format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "O5,mult,stable"
    assert lines[1] == ",1,true"
    assert lines[2] == "2,1,true"
    assert lines[3] == '"1,1",1,true'


def test_tensor_gl_rational_trivial(capsys):
    rc, out, _ = run(capsys, "tensor", "gl-rational", "--mu", "1;", "--nu", ";1",
                     "--lam", ";", "--n", "3")
    assert rc == 0
    assert out == '{"value":1}\n'


def test_restrict_value_and_table(capsys):
    rc, out, _ = run(capsys, "restrict", "o", "--lam", "2", "--n", "5", "--m", "5",
                     "--mu", "1", "--nu", "1")
    assert rc == 0
    assert out == '{"value":1,"stable":true}\n'
    rc, out, _ = run(capsys, "restrict", "o", "--lam", "2", "--n", "5", "--m", "5")
    assert rc == 0
    table = [(tuple(tuple(l["weight"]) for l in e["labels"]), e["mult"])
             for e in json.loads(out)]
    assert table == [(((), ()), 1), (((), (2,)), 1),
                     (((1,), (1,)), 1), (((2,), ()), 1)]


def test_restrict_value_requires_both_labels(capsys):
    rc, _, err = run(capsys, "restrict", "o", "--lam", "2", "--n", "5", "--m", "5",
                     "--nu", "1")
    assert rc == 2
    assert "mu" in err and "nu" in err


def test_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "o", "--mu", "1", "--nu", "1", "--n", "5", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# sha256 of the full stdout, recorded before the table handlers mapped kernels
PINNED_TABLES = [
    (("restrict", "o", "--lam", "3,2,1", "--n", "7", "--m", "7"),
     "dbc8d6d39f343015a680cf8ab798008898e0f4988af9c0b67fbb94224e867bff"),
    (("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "9"),
     "6252ad6224ffc4d3449eb92cb72f244316808e8e0a29565cb6585acec89205c3"),
    (("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "4"),
     "ad5a000ceb74a612594baf55f98b4917475067338f6e881ef360d3cd56ae5b16"),
]

# sha256 of the full stdout, recorded while a restrict o table gathered each
# cell through branch.o_restrict_kernel and every handler built both renderings
PINNED_LARGER = [
    (("restrict", "o", "--lam", "5,4,3,2", "--n", "9", "--m", "9"),
     "6ea6317a18bf9b77d80f1a34a867fb1bba3c5aac0a6345e0b161601b9b54a8ba"),
    (("restrict", "o", "--lam", "5,4,3,2", "--n", "9", "--m", "9", "--output-format", "csv"),
     "9800b643fb4787b7065d160f54fc7d22f142c1969f6c03f3ac44812df4d0df40"),
    (("restrict", "o", "--lam", "2,2,1", "--n", "3", "--m", "4", "--stable-policy", "warn"),
     "f96d91650483bf62b9d4f9b99f2a834229c056b925c23f13509c2409f4fea95d"),
    (("verify", "restrict-o", "--n", "5", "--l", "5", "--m", "2", "--max-degree", "4",
      "--output-format", "csv"),
     "c51aaaac9689776a0e4bfed8a5f6fa0c1ec3ce2e52b151209a56d43c939ee832"),
]


# sha256 of stdout, recorded while a restrict o table made one lr_kernel call
# per (tau, mu, nu) instead of reading each tau's coproduct
PINNED_COPRODUCT = [
    (("restrict", "o", "--lam", "6,5,4,3", "--n", "9", "--m", "9"),
     "b291ec2b62c71e84afa7575dfcca4a9a1244cbc1b2f8abb97285db8ae5c4130d"),
    (("restrict", "o", "--lam", "7,5,3,1", "--n", "9", "--m", "9", "--output-format", "csv"),
     "4c78eb72fe6a641010a3fbb36429f48ef0e035870437a8cd163f4cd54e88fd5c"),
    (("restrict", "o", "--lam", "4,4,2,2", "--n", "7", "--m", "8", "--stable-policy", "warn"),
     "7808704b15f8f07fd31ad3ab033057403c3f335b6400a4752d4e56b7393f657a"),
]


# sha256 of stdout, recorded while every table built one entry (two labels
# for restrict o) per cell, sorted the entries and rendered them one by one:
# tensor tables below their stable bound, where every row has "stable":false
PINNED_UNSTABLE_TENSOR = [
    (("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "4", "--stable-policy", "warn"),
     "054d36641efa643deb816d339b7902db952ad880811821d438cc08046f85a897"),
    (("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "4", "--stable-policy", "warn",
      "--output-format", "csv"),
     "ae70059ed1f52f6354f353c0c0b8e828a46650f3e7829664b251aa5ab39b3c3f"),
    (("tensor", "o", "--mu", "3,2", "--nu", "2,2", "--n", "6", "--stable-policy", "warn"),
     "5493db7c80085575a087e4e594586ad2556e4f76567ee70c96c4b454622e152d"),
    (("tensor", "o", "--mu", "3,2", "--nu", "2,2", "--n", "6", "--stable-policy", "warn",
      "--output-format", "csv"),
     "b2d7c18269174ab673ebe914415c6d20fd9b0219fbf878f5c0d5a8aa94bef46c"),
    (("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "2", "--stable-policy", "warn"),
     "0ddcaf188479ed23a3e3ce18ba3b15d7295e41acda87f24ba177ab66119e7184"),
    (("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "2", "--stable-policy", "warn",
      "--output-format", "csv"),
     "35ea2b5a4687d267ac6a5bfdf07a439296ac10a4ec3d0ab74178c8833dd9c1ec"),
    (("tensor", "sp", "--mu", "4,3", "--nu", "2,2", "--n", "3", "--stable-policy", "warn"),
     "b850e66935e0860b30bd54d4bfe80e665aa3d42eb4879a461c25928dc5f28e47"),
    (("tensor", "sp", "--mu", "4,3", "--nu", "2,2", "--n", "3", "--stable-policy", "warn",
      "--output-format", "csv"),
     "a5eb8902f57ec278d5904f0eb1f36eb40fa783b1f06484571597861ebeaeabed"),
]


@pytest.mark.parametrize("argv,digest", PINNED_TABLES + PINNED_LARGER + PINNED_COPRODUCT
                         + PINNED_UNSTABLE_TENSOR)
def test_table_output_is_pinned(capsys, argv, digest):
    rc, out, _ = run(capsys, *argv, ignore_warnings=True)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,m", [(9, 9), (3, 4)])
def test_restrict_table_scatter_equals_the_gather(capsys, n, m):
    # every lam with |lam| <= 8 and at most 4 rows; (9, 9) is stable for all
    # of them, (3, 4) is not and its admissibility filter drops cells
    for lam in enumerate_partitions(8, max_length=4):
        if not is_admissible_o(lam, n + m):
            continue
        rc, out, _ = run(capsys, "restrict", "o", "--lam", ",".join(map(str, lam)),
                         "--n", str(n), "--m", str(m), "--stable-policy", "warn",
                         ignore_warnings=True)
        assert rc == 0
        table = {tuple(tuple(lab["weight"]) for lab in row["labels"]): row["mult"]
                 for row in json.loads(out)}
        targets = cli._restrict_targets(lam, n, m)
        gathered = {(mu, nu): v for mu, nu in targets
                    for v in [branch.o_restrict_kernel(lam, mu, nu)] if v}
        assert table.keys() <= set(targets), lam
        assert table == gathered, lam


def _reference_text(entries, output_format) -> str:
    """A table rendered the way every table was before labels were shared:
    sort the entries, then render each entry on its own."""
    entries = sorted_entries(entries)
    if output_format == "json":
        return jsonio.dumps([jsonio.entry_json(e) for e in entries]) + "\n"
    return jsonio.entries_csv(entries)


def _restrict_reference(lam, n, m):
    stable = branch.o_restrict_range(lam, n, m) is None
    cells = reversed(branch.o_restrict_table(lam).items())  # not in output order
    return stable, [MultiplicityEntry((IrrepLabel("O", n, mu), IrrepLabel("O", m, nu)), v, stable)
                    for (mu, nu), v in cells if is_admissible_o(mu, n) and is_admissible_o(nu, m)]


def _tensor_reference(family, mu, nu, n):
    if family == "o":
        stable = branch.o_tensor_range(mu, nu, n) is None
        fam, rank, admissible = "O", n, lambda lam: is_admissible_o(lam, n)
    else:
        stable = branch.sp_tensor_range(mu, nu, n) is None
        fam, rank, admissible = "Sp", 2 * n, lambda lam: len(lam) <= n
    targets = reversed(cli._tensor_targets(mu, nu, admissible))  # not in output order
    return stable, [MultiplicityEntry((IrrepLabel(fam, rank, lam),), v, stable)
                    for lam in targets for v in [branch.tensor_kernel(mu, nu, lam)] if v]


def _restrict_cases():
    """Every lam with |lam| <= 8 and at most 3 rows, at its least stable n = m
    and at n = m = max(len(lam), 1), unstable for every lam but the empty one."""
    for lam in enumerate_partitions(8, max_length=3):
        for n in (2 * len(lam) + 1, max(len(lam), 1)):
            argv = ("restrict", "o", "--lam", _arg(lam), "--n", str(n), "--m", str(n))
            yield argv, partial(_restrict_reference, lam, n, n)


_POOL = [p for s in (2, 3, 4) for p in partitions_of(s, max_length=2)]


def _tensor_cases(family):
    """Every pair of the pool, at its least stable n and one below it."""
    for mu in _POOL:
        for nu in _POOL:
            rows = len(mu) + len(nu)
            bound = 2 * rows if family == "o" else rows
            for n in (bound + 1, bound):
                argv = ("tensor", family, "--mu", _arg(mu), "--nu", _arg(nu), "--n", str(n))
                yield argv, partial(_tensor_reference, family, mu, nu, n)


_TABLE_CASES = {"restrict-o": _restrict_cases, "tensor-o": partial(_tensor_cases, "o"),
                "tensor-sp": partial(_tensor_cases, "sp")}


@pytest.mark.parametrize("table", sorted(_TABLE_CASES))
def test_table_emitter_equals_the_per_entry_rendering(capsys, table):
    flags = set()
    for argv, reference in _TABLE_CASES[table]():
        stable, entries = reference()
        flags.add(stable)
        for fmt in ("json", "csv"):
            rc, out, _ = run(capsys, *argv, "--stable-policy", "warn", "--output-format", fmt,
                             ignore_warnings=True)
            assert rc == 0, argv
            assert out == _reference_text(entries, fmt), (argv, fmt)
    assert flags == {True, False}


@pytest.mark.parametrize("argv,err", [
    (("restrict", "o", "--lam", "4,3,2", "--n", "7", "--m", "7"), ""),
    (("restrict", "o", "--lam", "2,2,1", "--n", "3", "--m", "4", "--stable-policy", "warn"), ""),
    (("restrict", "o", "--lam", "2,2", "--n", "1", "--m", "1", "--stable-policy", "warn"),
     "error: (2, 2) is not an admissible O_2 label\n"),
])
def test_restrict_table_builds_one_label_per_distinct_weight(capsys, monkeypatch, argv, err):
    built = []

    def counting(*args):
        built.append(args)
        return IrrepLabel(*args)

    monkeypatch.setattr(cli, "IrrepLabel", counting)
    rc, out, got = run(capsys, *argv, ignore_warnings=True)
    assert (rc, got) == ((2, err) if err else (0, ""))
    rows = json.loads(out) if out else []
    mus = {tuple(row["labels"][0]["weight"]) for row in rows}
    nus = {tuple(row["labels"][1]["weight"]) for row in rows}
    assert len(built) == len(mus) + len(nus)
    assert err or len(built) < 2 * len(rows)  # fewer than two labels per cell


def test_table_emitter_still_validates_each_label(capsys, monkeypatch):
    # with the handler's admissibility filter gone, inadmissible weights
    # reach the emitter, whose labels refuse them
    monkeypatch.setattr(cli, "admissible_o_kernel", lambda p, n: True)
    rc, out, err = run(capsys, "restrict", "o", "--lam", "2,2,1", "--n", "3", "--m", "4",
                       "--stable-policy", "warn", ignore_warnings=True)
    assert (rc, out) == (2, "")
    assert err.startswith("error: (") and "is not an admissible O_" in err


def _single_argv(argv, labels):
    """The single-value request for one table row."""
    weights = [",".join(map(str, lab["weight"])) for lab in labels]
    if argv[0] == "restrict":
        return argv + ("--mu", weights[0], "--nu", weights[1])
    return argv + ("--lam", weights[0])


@pytest.mark.parametrize("argv", [
    ("restrict", "o", "--lam", "3,2,1", "--n", "7", "--m", "7"),
    ("restrict", "o", "--lam", "2,2,1", "--n", "3", "--m", "4", "--stable-policy", "warn"),
    ("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "9"),
    ("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "4", "--stable-policy", "warn"),
    ("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "4"),
    ("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "2", "--stable-policy", "warn"),
])
def test_table_rows_equal_single_values(capsys, argv):
    rc, out, _ = run(capsys, *argv, ignore_warnings=True)
    assert rc == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        rc, out, _ = run(capsys, *_single_argv(argv, row["labels"]), ignore_warnings=True)
        assert rc == 0
        assert json.loads(out) == {"value": row["mult"], "stable": row["stable"]}


@pytest.mark.parametrize("argv", [
    ("restrict", "o", "--lam", "2,2,1", "--n", "3", "--m", "4"),
    ("tensor", "sp", "--mu", "2,1", "--nu", "2", "--n", "2"),
])
def test_table_warns_once_and_never_calls_the_checked_entry_point(capsys, monkeypatch, argv):
    def checked(*args, **kwargs):
        raise AssertionError("a table key went through the checked entry point")

    monkeypatch.setattr(branch, "o_restrict_stable", checked)
    monkeypatch.setattr(branch, "sp_tensor_stable", checked)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(list(argv) + ["--stable-policy", "warn"])
    assert rc == 0
    assert [type(w.message) for w in caught] == [StableRangeWarning]
    capsys.readouterr()


def _arg(label) -> str:
    return ",".join(map(str, label))


_LABELS = [lam for k in range(5) for lam in enumerate_partitions(k)]  # |lam| <= 4
_FACTORS = [(mu, nu) for mu in _LABELS[:4] for nu in _LABELS[:4]]  # |mu|, |nu| <= 2


def _stable_range_cases(formula):
    """(rule's answer, the ENFORCE call, single-value argv, table argv or None), n = 1..9."""
    for n in range(1, 10):
        if formula == "gl-o":
            for lam in _LABELS:
                if len(lam) <= n:
                    yield (branch.gl_to_o_range(lam, n), partial(branch.gl_to_o, lam, (), n),
                           ["branch", "gl-o", "--lam", _arg(lam), "--mu", "", "--n", str(n)],
                           None)
        elif formula == "gl-sp":
            for lam in _LABELS:
                if len(lam) <= 2 * n:
                    yield (branch.gl_to_sp_range(lam, n), partial(branch.gl_to_sp, lam, (), n),
                           ["branch", "gl-sp", "--lam", _arg(lam), "--mu", "", "--n", str(n)],
                           None)
        elif formula in ("tensor-o", "tensor-sp"):
            if formula == "tensor-o":
                fam, rule, call = "o", branch.o_tensor_range, branch.o_tensor_stable
                ok = lambda lab: is_admissible_o(lab, n)
            else:
                fam, rule, call = "sp", branch.sp_tensor_range, branch.sp_tensor_stable
                ok = lambda lab: len(lab) <= n
            for mu, nu in _FACTORS:
                if ok(mu) and ok(nu):
                    table = ["tensor", fam, "--mu", _arg(mu), "--nu", _arg(nu), "--n", str(n)]
                    yield (rule(mu, nu, n), partial(call, mu, nu, (), n),
                           table + ["--lam", ""], table)
        else:
            for m in (1, 4, 9):
                for lam in _LABELS:
                    if is_admissible_o(lam, n + m):
                        table = ["restrict", "o", "--lam", _arg(lam), "--n", str(n), "--m", str(m)]
                        yield (branch.o_restrict_range(lam, n, m),
                               partial(branch.o_restrict_stable, lam, (), (), n, m),
                               table + ["--mu", "", "--nu", ""], table)


@pytest.mark.parametrize("formula", ["gl-o", "gl-sp", "tensor-o", "tensor-sp", "restrict-o"])
def test_stable_range_rule_is_the_one_owner_of_each_refusal(capsys, formula):
    # the rule is None exactly when ENFORCE computes; the CLI's stable field is
    # the rule's verdict; every refusal names the bound the rule returns
    cases = 0
    for need, call, single, table in _stable_range_cases(formula):
        cases += 1
        if need is None:
            call()
        else:
            with pytest.raises(StableRangeError) as exc:
                call()
            assert need in str(exc.value)
        for argv in [single] + ([table] if table else []):
            rc, out, _ = run(capsys, *argv, "--stable-policy", "warn", ignore_warnings=True)
            assert rc == 0
            doc = json.loads(out)
            flags = {row["stable"] for row in doc} if argv is table else {doc["stable"]}
            assert flags <= {need is None}
            rc, out, err = run(capsys, *argv)
            if need is None:
                assert rc == 0
            else:
                want = f"error: outside the stable range: requires {need}\n"
                assert (rc, out, err) == (2, "", want)
    assert cases > 40


@pytest.mark.parametrize("policy,err", [
    ("enforce", "error: outside the stable range: requires min(n, m) > 2*len(lam) = 4\n"),
    ("warn", "error: (2, 2) is not an admissible O_2 label\n"),
])
def test_inadmissible_restrict_lam_exits_2(capsys, policy, err):
    rc, out, got = run(capsys, "restrict", "o", "--lam", "2,2", "--n", "1", "--m", "1",
                       "--stable-policy", policy)
    assert (rc, out, got) == (2, "", err)


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    run(capsys, "lr", "--lam", "2", "--mu", "1", "--nu", "1")
    run(capsys, "tensor", "o", "--mu", "1", "--nu", "1", "--n", "5")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_single_value_does_not_leak_into_the_next_table(capsys):
    argv = ("tensor", "o", "--mu", "2,1", "--nu", "1,1", "--n", "9")
    lr.clear_cache()
    _, alone, _ = run(capsys, *argv)
    lr.clear_cache()
    run(capsys, *argv, "--lam", "3,1")
    _, after, _ = run(capsys, *argv)
    assert after == alone


@pytest.mark.parametrize("argv", [("--help",), ("tensor", "o", "--help")])
def test_help_is_the_same_from_the_cached_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__()[0].parse_args(list(argv))
    assert texts[0] == texts[1] == capsys.readouterr().out
    if argv == ("--help",):  # recorded before the parser was cached
        digest = "3fbcca4d06a47d3079cbf2d0d23c2f08182c45df8e13078a2565c527cdb174ba"
        assert hashlib.sha256(texts[0].encode()).hexdigest() == digest


VALID_LEAF_REQUESTS = {
    ("lr",): ("--lam", "3,2,1", "--mu", "2,1", "--nu", "2,1"),
    ("hilbert",): ("--n", "5", "--m", "1", "--max-degree", "4"),
    ("branch", "gl-o"): ("--lam", "2", "--mu", "", "--n", "5"),
    ("branch", "gl-sp"): ("--lam", "2,1", "--mu", "1", "--n", "6"),
    ("tensor", "o"): ("--mu", "1", "--nu", "1", "--n", "5"),
    ("tensor", "sp"): ("--mu", "2", "--nu", "1,1", "--lam", "3,1", "--n", "4"),
    ("tensor", "gl-rational"): ("--mu", "1;", "--nu", ";1", "--lam", ";", "--n", "3"),
    ("restrict", "o"): ("--lam", "2", "--n", "5", "--m", "5"),
    ("verify", "seesaw-a"): ("--n", "5", "--m", "1", "--max-degree", "2"),
    ("verify", "seesaw-c"): ("--n", "2", "--m", "1", "--max-degree", "2"),
    ("verify", "tensor-o"): ("--n", "5", "--m", "1", "--l", "1", "--max-degree", "2"),
    ("verify", "restrict-o"): ("--n", "3", "--l", "3", "--m", "1", "--max-degree", "2"),
    ("verify", "brackets"): ("--case", "a", "--n", "2", "--m", "1"),
}
# a flag each leaf does not take: today's --max-degree and --stable-policy refusals,
# and for the oracle leaves, which take both, the removed --jobs
_EXTRA = {("lr",): ("--stable-policy", "warn"),
          ("tensor", "gl-rational"): ("--stable-policy", "warn"),
          ("verify", "brackets"): ("--max-degree", "3"), ("hilbert",): ("--jobs", "2"),
          **{("verify", s): ("--jobs", "2") for s in cli.SUITES}}

DISPATCH_CORPUS = [
    *((*path, *rest, *fmt) for path, rest in VALID_LEAF_REQUESTS.items()
      for fmt in ((), ("--output-format", "csv"))),
    ("-h",), ("--help",), ("tensor", "-h"), ("verify", "--help"),
    *((*path, "-h") for path in VALID_LEAF_REQUESTS),
    (), ("nope",), ("tensor", "xx"), ("verify",), ("-h", "lr"), ("--output-format", "csv", "lr"),
    *((*path, *rest, *_EXTRA.get(path, ("--max-degree", "3")))
      for path, rest in VALID_LEAF_REQUESTS.items()),
    ("lr", "--lam", "2", "--mu", "1", "--nu", "1", "extra"),
    ("branch", "gl-o", "--lam", "2", "--mu", ""),  # missing --n
    ("branch", "gl-o", "--lam", "2", "--mu", "", "--n", "x"),
    ("branch", "gl-o", "--lam", "2", "--mu", "", "--n", "-3"),
    ("branch", "gl-o", "--la", "2", "--mu", "", "--n", "5"),
    ("branch", "gl-o", "--lam=2", "--mu=", "--n=5"),
    ("branch", "gl-o", "--lam", "2", "--mu", "", "--n", "5", "--stable-policy", "bad"),
    ("branch", "gl-o", "--lam", "2", "--mu", "", "--n", "2"),
    ("lr", "--", "--lam", "2"),
    ("hilbert", "--n", "5", "--m", "1", "--max-degree", "-1"),
    ("restrict", "o", "--lam", "2", "--n", "5", "--m", "5", "--mu", "1"),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_dispatch_corpus_reaches_every_leaf():
    assert set(VALID_LEAF_REQUESTS) == set(cli._build_parser()[1])


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_leaf_dispatch_equals_the_root_parse(capsys, monkeypatch, argv):
    # the reference is today's path: the root parser hands argv down the subparsers
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = cli._build_parser()
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert got == _outcome(capsys, argv)


@pytest.mark.parametrize("argv,err", [
    (("lr", "--lam", "2", "--mu", "1", "--nu", "1", "--n", "3"),
     "branchbox: error: unrecognized arguments: --n 3\n"),
    (("branch", "gl-o", "--l", "2", "--mu", "", "--n", "5"),
     "branchbox branch gl-o: error: the following arguments are required: --lam\n"),
])
def test_abbreviated_flags_are_refused(capsys, monkeypatch, argv, err):
    # `--n` is not read as `--nu`, nor `--l` as `--lam`: from the leaf parser,
    # then from the root parser alone
    parser, _ = cli._build_parser()
    for leaves in (cli._build_parser()[1], {}):
        monkeypatch.setattr(cli, "_build_parser", lambda leaves=leaves: (parser, leaves))
        code, out, got = _outcome(capsys, argv)
        assert (code, out) == (("SystemExit", 2), "")
        assert got.endswith(err)


def test_a_whole_leaf_request_never_reaches_the_root_parser(capsys, monkeypatch):
    parser, _ = cli._build_parser()
    calls = []
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *a, _real=parser.parse_known_args: calls.append(a) or _real(*a))
    for path, rest in VALID_LEAF_REQUESTS.items():
        assert _outcome(capsys, (*path, *rest))[0] == 0
    assert calls == []
    assert _outcome(capsys, ("lr", "--lam", "2", "--mu", "1", "--nu", "1", "--jobs", "2"))[0] == (
        "SystemExit", 2)
    assert len(calls) == 1


def test_verify_seesaw_a_passes(capsys):
    rc, out, err = run(capsys, "verify", "seesaw-a", "--n", "5", "--m", "2",
                       "--max-degree", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["verify"] == "seesaw-a"
    assert all(e["pass"] for e in doc["entries"])
    assert "all PASS" in err


def _verify_table(out):
    return {tuple(tuple(lab["weight"]) for lab in e["labels"]): (e["formula"], e["oracle"])
            for e in json.loads(out)["entries"]}


def test_verify_tensor_o_pairs_associate_labels_at_odd_n(capsys):
    # the harmonic of degree 2 at SO_3 weight (1) is det (x) sigma_(1): the O_3
    # label (1,1), where the stable formula puts (1) (x) (1) -> (1,1)
    rc, out, err = run(capsys, "verify", "tensor-o", "--n", "3", "--m", "1",
                       "--l", "1", "--max-degree", "4", "--stable-policy", "warn",
                       ignore_warnings=True)
    assert (rc, err) == (0, "verify tensor-o: 41 entries, all PASS\n")
    table = _verify_table(out)
    assert table[((1, 1), (1,), (1,))] == (1, 1)
    assert ((1,), (1,), (1,)) not in table


def test_verify_seesaw_a_fails_outside_stable_range(capsys):
    # a genuine failure under O_3 labels: GL_3's (2,2,1) = det (x) wedge^2
    # restricts to O_3 as sigma_(1), while the stable formula gives
    # (2,1) = det (x) sigma_(2) once
    rc, out, err = run(capsys, "verify", "seesaw-a", "--n", "3", "--m", "3",
                       "--max-degree", "5", "--stable-policy", "warn", ignore_warnings=True)
    assert (rc, err) == (1, "verify seesaw-a: 123 entries, 1 FAIL\n")
    assert json.loads(out)["ok"] is False
    fails = {key: value for key, value in _verify_table(out).items() if value[0] != value[1]}
    assert fails == {((2, 1), (2, 2, 1)): (1, 0)}


@pytest.mark.parametrize("argv", [
    ("seesaw-a", "--n", "4", "--m", "2"),
    ("tensor-o", "--n", "4", "--m", "1", "--l", "1", "--max-degree", "4"),
    ("restrict-o", "--n", "2", "--m", "1", "--l", "2", "--max-degree", "4"),
])
def test_verify_refuses_before_running_the_oracle(capsys, monkeypatch, argv):
    # even n outside the stable range used to reach the oracle (and its internal
    # error on non-partition weights) before the formula refused
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the refusal")

    monkeypatch.setattr("branchbox.cli.hwv_multiplicities", oracle)
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: outside the stable range")


# Recorded before the suites became rows of `cli.SUITES`: per shape, the
# sha256 of stdout in each format (the same under both policies when the
# request runs), and per policy the exit code and stderr.  seesaw-c has no
# stable range; its second shape has n < m + l.  The out-of-range seesaw-a
# and tensor-o rows at n = 3 were recorded again when odd n began to report
# O_n labels (tests/test_dualpair_hwv.py, RELABELLED_SHAPES), the restrict-o
# row at (3, 5, 2) when ProductO did (RELABELLED_PRODUCTS), and the
# restrict-o row at (3, 3, 2) was added then.
PINNED_VERIFY = [
    (("seesaw-a", "--n", "5", "--m", "2", "--max-degree", "3"),
     {"json": "f2b6e33a1afed19c631dfa3398a8b9424a3a7603cfe0ec700850ed67055985c4",
      "csv": "56e17e79e894867297bde76bfb9c87d4296f43027367015cbc7634175e3e35df"},
     {"enforce": (0, "verify seesaw-a: 23 entries, all PASS\n"),
      "warn": (0, "verify seesaw-a: 23 entries, all PASS\n")}),
    (("seesaw-a", "--n", "3", "--m", "2", "--max-degree", "4"),
     {"json": "e3dd2460282e3ec4003eff57a1dde2df535549b19cfd1fa75a5c687906808869",
      "csv": "1a334a044642fe70b6bb0409347f965140fd06cbc44fe15756bf18608b533dbd"},
     {"enforce": (2, "error: outside the stable range: requires n > 2*len(lam) = 4\n"),
      "warn": (0, "verify seesaw-a: 47 entries, all PASS\n")}),
    (("seesaw-c", "--n", "3", "--m", "2", "--l", "1", "--max-degree", "3"),
     {"json": "29f3e87724b06c4752d27b6a74fdaa1ba06c5c0c2ae60ab74c1897efe5e52557",
      "csv": "abfc8b921dfdfb9b907b9dc8d24ce7f1eff0e9db8f3db0b3a113cf036d133f2b"},
     {"enforce": (0, "verify seesaw-c: 29 entries, all PASS\n"),
      "warn": (0, "verify seesaw-c: 29 entries, all PASS\n")}),
    (("seesaw-c", "--n", "2", "--m", "2", "--l", "1", "--max-degree", "4"),
     {"json": "846512f22f5ed24eebe6c88fd73ca941640526a6a847d8bce99e10189672ff91",
      "csv": "bad85491aa260502c22a5ffa3a9e97607e9991fbea3cf68962d0022b5458927f"},
     {"enforce": (0, "verify seesaw-c: 50 entries, all PASS\n"),
      "warn": (0, "verify seesaw-c: 50 entries, all PASS\n")}),
    (("tensor-o", "--n", "5", "--m", "1", "--l", "1", "--max-degree", "3"),
     {"json": "1484849e8b85c0f7f7036ac25ed0338bb5c2cc228aad6c656786009f379af9b3",
      "csv": "995fe1c881d2fa8ddb0a769caa1a0080c624507fdd3bed406752a031b504992f"},
     {"enforce": (0, "verify tensor-o: 20 entries, all PASS\n"),
      "warn": (0, "verify tensor-o: 20 entries, all PASS\n")}),
    (("tensor-o", "--n", "3", "--m", "1", "--l", "1", "--max-degree", "4"),
     {"json": "adc1c9b4da7621d191445837aa1620b2f4615799116f5a799ff5dc053b7244bc",
      "csv": "52f513bb4fbf772dbccef35fd765e610e8b2d0069872c44a576286bbc6a1aa32"},
     {"enforce": (2, "error: outside the stable range: requires n > 2*(len(mu)+len(nu)) = 4\n"),
      "warn": (0, "verify tensor-o: 41 entries, all PASS\n")}),
    (("restrict-o", "--n", "3", "--l", "3", "--m", "1", "--max-degree", "3"),
     {"json": "d6cfc070404d5b8bf0923f88f01c6eea048056ba159b22dfb570314478f59fc3",
      "csv": "6ddf2f0e809dcdfe4e5d1e00fe79bc0c2d7ef1acc42323e92c78b0fedee4b2a4"},
     {"enforce": (0, "verify restrict-o: 13 entries, all PASS\n"),
      "warn": (0, "verify restrict-o: 13 entries, all PASS\n")}),
    (("restrict-o", "--n", "3", "--l", "5", "--m", "2", "--max-degree", "3"),
     {"json": "f72a3630bbbff1d6a1162805511e5303f78d9aca3d39d546b1703d6a3a677e01",
      "csv": "4f3bdfa1de424b5899501d922950625a526935920a224fde792f1487f79544f1"},
     {"enforce": (2, "error: outside the stable range: requires min(n, m) > 2*len(lam) = 4\n"),
      "warn": (0, "verify restrict-o: 29 entries, all PASS\n")}),
    (("restrict-o", "--n", "3", "--l", "3", "--m", "2", "--max-degree", "5"),
     {"json": "ec5eb5e07b8dc49333ae23535f82a7c3113a49fda0564dcc927366e73366aa45",
      "csv": "e9b84dab49996a2b4a0e831a2eb219e2f8adcdb3a826665539ad587f652ccdd6"},
     {"enforce": (2, "error: outside the stable range: requires min(n, m) > 2*len(lam) = 4\n"),
      "warn": (0, "verify restrict-o: 138 entries, all PASS\n")}),
]


@pytest.mark.parametrize("argv,digests,outcomes", PINNED_VERIFY)
def test_verify_output_is_pinned(capsys, argv, digests, outcomes):
    for fmt, digest in digests.items():
        for policy, (code, summary) in outcomes.items():
            rc, out, err = run(capsys, "verify", *argv, "--output-format", fmt,
                               "--stable-policy", policy, ignore_warnings=True)
            assert (rc, err) == (code, summary)
            if rc == 2:
                assert out == ""
            else:
                assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite,digest", [
    (None, "1ba6a4d58db03a02d8254bf454405b66c0b686c9766ef84d68ffc4294ac253f3"),
    ("seesaw-a", "664b0f019ba0a22ff1f886fce6ffb566e92e1ef3f985e765db367f6277960326"),
    ("seesaw-c", "0021f210bd8afbff3e4c4c68d038278abb8db36553611d5830467185a254e7d1"),
    ("tensor-o", "cdd426a8e9f2e56d0d44414cbd8c969e8624a71d662c1dd05dacd7f5dff22d2c"),
    ("restrict-o", "83c4d7df6593854bc834a4355301391421bbc262d510c8eb750c5d23acd10990"),
])
def test_verify_help_is_pinned(capsys, monkeypatch, suite, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + ([suite] if suite else []) + ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_oversized_max_degree_exits_2_before_enumerating(capsys):
    # C(10 + 30, 30) = 847,660,528 monomials: refused on the count alone,
    # where enumerating them would exhaust memory before any block budget
    rc, out, err = run(capsys, "verify", "seesaw-a", "--n", "5", "--m", "2",
                       "--max-degree", "30")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,err", [
    (("seesaw-a", "--n", "40", "--m", "40", "--max-degree", "30"),
     "error: 6689009172813490725211141236618491865686446623296409195572599365 monomials of "
     "degree <= 30 in 1600 variables exceed 1000000\n"),
    (("restrict-o", "--n", "9", "--l", "9", "--m", "4", "--max-degree", "14"),
     "error: 4538340912686850 monomials of degree <= 14 in 72 variables exceed 1000000\n"),
    # also outside the stable range: the size is checked first, under enforce too
    (("restrict-o", "--n", "1", "--l", "1", "--m", "9", "--max-degree", "40"),
     "error: 449972009097765 monomials of degree <= 40 in 18 variables exceed 1000000\n"),
    (("tensor-o", "--n", "9", "--m", "3", "--l", "3", "--max-degree", "12"),
     "error: 4922879481520 monomials of degree <= 12 in 54 variables exceed 1000000\n"),
])
def test_oversized_verify_exits_2_before_the_grid(capsys, monkeypatch, argv, err):
    def grid(*args, **kwargs):
        raise AssertionError("the formula grid was built before the size refusal")

    monkeypatch.setattr(cli, "enumerate_partitions", grid)
    assert run(capsys, "verify", *argv) == (2, "", err)


def test_warn_request_writes_one_line_warnings(capsys, tmp_path):
    # stderr names no install path and no source line of cli.py, and main
    # puts the caller's warning formatter back
    formatter = warnings.formatwarning
    assert run(capsys, "branch", "gl-o", "--lam", "2,2", "--mu", "2", "--n", "3",
               "--stable-policy", "warn", ignore_warnings=True)[0] == 0
    assert warnings.formatwarning is formatter
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-m", "branchbox.cli", "verify", "seesaw-a",
                           "--n", "3", "--m", "2", "--max-degree", "4", "--stable-policy", "warn"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        0, "warning: computing outside the stable range (n > 2*len(lam) = 4)\n"
           "verify seesaw-a: 47 entries, all PASS\n")


def test_internal_error_exits_3_in_one_line(capsys):
    # even n outside the stable range: the oracle meets an SO_n weight that is
    # not an O_n label (an open defect), which must not end in a traceback
    rc, out, err = run(capsys, "verify", "seesaw-a", "--n", "4", "--m", "2",
                       "--max-degree", "3", "--stable-policy", "warn", ignore_warnings=True)
    assert (rc, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_verify_all_passes_and_covers_every_suite(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert set(cli.SUITES) <= {argv[1] for argv in script.SUITES if argv[0] == "verify"}
    assert script.main(["--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_stability_scan_marks_the_first_n_the_range_rule_calls_stable(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "stability_scan.py"
    spec = importlib.util.spec_from_file_location("stability_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    window = 6
    assert script.main(["--max-size", "2", "--window", str(window)]) == 0
    gl_to_o, o_tensor = capsys.readouterr().out.split("\n\n")
    sections = [(gl_to_o, (8, 8), lambda lam, mu: partial(branch.gl_to_o_range, lam)),
                (o_tensor, (6, 6, 8), lambda mu, nu, lam: partial(branch.o_tensor_range, mu, nu))]
    marks = 0
    for text, widths, rule in sections:
        for row in text.splitlines()[2:]:  # below the title and the column header
            labels, start = [], 0
            for width in widths:
                cell = row[start:start + width].strip()
                labels.append(tuple(map(int, cell.split(","))) if cell else ())
                start += width
            cells = [row[start + 4 * i:start + 4 * i + 4] for i in range(window)]
            stable = [n for n in range(1, window + 1) if rule(*labels)(n) is None]
            assert [n for n, cell in enumerate(cells, 1) if cell[0] == "|"] == stable[:1], row
            marks += bool(stable)
    assert marks == 18


def test_oracle_ladder_exits_quietly_when_stdout_closes(tmp_path):
    # the reader takes one line and closes the pipe, as `| head -1` would
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, str(root / "scripts" / "oracle_ladder.py"), "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")
    assert first.startswith(b"A(5,2) FULL deg 7\t")


def test_replay_oracle_digests_every_request_of_a_seed(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "replay_oracle.py"
    spec = importlib.util.spec_from_file_location("replay_oracle", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with warnings.catch_warnings(record=True):  # the out-of-range requests warn
        assert script.main(["1"]) == 0
    count, digest = capsys.readouterr().out.rstrip("\n").split("\t")
    assert count == "140 requests"
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert script.main(["1,x"]) == 2


def test_verify_brackets_case_a(capsys):
    rc, out, err = run(capsys, "verify", "brackets", "--case", "a",
                       "--n", "4", "--m", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert "all PASS" in err


@pytest.mark.parametrize("option", [["--max-degree", "3"], ["--stable-policy", "warn"]])
def test_verify_brackets_refuses_options_it_would_ignore(capsys, option):
    # the bracket check proves operator identities: it has no degree and no stable range
    with pytest.raises(SystemExit) as exc:
        main(["verify", "brackets", "--case", "a", "--n", "4", "--m", "2", *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


REQUESTS_WITHOUT_ORACLE = [
    ("lr", "--lam", "2,1", "--mu", "1", "--nu", "1"),
    ("branch", "gl-o", "--lam", "2", "--mu", "", "--n", "5"),
    ("branch", "gl-sp", "--lam", "2", "--mu", "", "--n", "5"),
    ("tensor", "o", "--mu", "1", "--nu", "1", "--n", "5"),
    ("tensor", "sp", "--mu", "1", "--nu", "1", "--n", "5"),
    ("tensor", "gl-rational", "--mu", "1", "--nu", "1", "--lam", "2", "--n", "3"),
    ("restrict", "o", "--lam", "2", "--n", "5", "--m", "5"),
]


IGNORED_OPTIONS = [
    *(pytest.param(argv, ("--max-degree", d), id=f"{argv[0]} {argv[1]} --max-degree {d}")
      for argv in REQUESTS_WITHOUT_ORACLE for d in ("3", "-3")),
    *(pytest.param(argv, ("--stable-policy", "warn"), id=f"{argv[0]} {argv[1]} --stable-policy")
      for argv in REQUESTS_WITHOUT_ORACLE if "lr" in argv or "gl-rational" in argv),
]


@pytest.mark.parametrize("request_argv,option", IGNORED_OPTIONS)
def test_requests_refuse_options_they_would_ignore(capsys, request_argv, option):
    # only oracle requests read a degree bound, and lr and gl-rational have
    # no stable range; `lr --max-degree -3` used to exit 2 with "--max-degree
    # must be nonnegative", for a flag lr ignores
    assert run(capsys, *request_argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*request_argv, *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("request_argv", [
    ("verify", "seesaw-a", "--n", "5", "--m", "1"),
    ("hilbert", "--n", "5", "--m", "1"),
])
def test_oracle_requests_keep_max_degree(capsys, request_argv):
    # `hilbert --stable-policy warn` is still accepted and refused like
    # `enforce`: test_hilbert_refuses_outside_its_range_under_either_policy
    assert run(capsys, *request_argv, "--max-degree", "2")[0] == 0
    assert run(capsys, *request_argv, "--max-degree", "-1") == (
        2, "", "error: --max-degree must be nonnegative\n")


def test_hilbert_ok(capsys):
    rc, out, _ = run(capsys, "hilbert", "--n", "5", "--m", "1", "--max-degree", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["harmonic"] == ["1", "5", "14", "30", "55"]


def test_hilbert_outside_range_exits_2(capsys):
    rc, _, err = run(capsys, "hilbert", "--n", "4", "--m", "2")
    assert rc == 2
    assert err == "error: outside the stable range: requires n > 2*m = 4\n"


@pytest.mark.parametrize("policy", ["enforce", "warn"])
def test_hilbert_refuses_outside_its_range_under_either_policy(capsys, policy):
    rc, out, err = run(capsys, "hilbert", "--n", "6", "--m", "3", "--stable-policy", policy)
    assert (rc, out) == (2, "")
    assert err == "error: outside the stable range: requires n > 2*m = 6\n"


def test_oversized_hilbert_exits_2(capsys):
    assert run(capsys, "hilbert", "--n", "5", "--m", "2", "--max-degree", "1000") == (
        2, "", "error: 1002001 products for the Hilbert series of degree <= 1000 "
               "at n = 5, m = 2 exceed 250000\n")


def test_cache_option_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--lam", "2", "--mu", "1", "--nu", "1", "--cache", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache x" in capsys.readouterr().err


def test_cache_environment_variable_writes_nothing(tmp_path, capsys, monkeypatch):
    path = tmp_path / "lr.jsonl"
    monkeypatch.setenv("BRANCHBOX_CACHE", str(path))
    assert run(capsys, "lr", "--lam", "2", "--mu", "1", "--nu", "1")[:2] == (0, '{"value":1}\n')
    assert not path.exists()
