"""tools/request_hashes.py --dump and tools/drift.py: request dumps and
the number-by-number report of what changed between two of them; and
the standard-library-only contract of the program and its tools."""

import ast
import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import drift  # noqa: E402
import pinned  # noqa: E402
import request_hashes  # noqa: E402
import run  # noqa: E402  (perfbench/run.py, on the path request_hashes sets)

from greenwell import cli  # noqa: E402


@pytest.fixture
def one_round(monkeypatch):
    # round 0 of each workload only, so a dump takes about 2 s
    monkeypatch.setattr(run, "rounds_for", lambda workload, seconds: 1)


def dump(path, *workloads, seed="11"):
    """Dump the seed's requests under `path`; returns the exit status."""
    argv = [seed, "--dump", str(path)]
    for w in workloads:
        argv += ["--workload", w]
    return request_hashes.main(argv)


def test_two_dumps_of_one_checkout_give_an_empty_report(one_round, tmp_path, capsys):
    assert dump(tmp_path / "a") == 0
    lines = capsys.readouterr().out.splitlines()
    assert dump(tmp_path / "b") == 0
    assert capsys.readouterr().out.splitlines() == lines
    # one file per hash line, holding exactly the hashed text
    for line in lines:
        workload, seed, rid, digest = line.split(" ")
        data = (tmp_path / "a" / workload / seed / rid).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert len(drift.request_files(tmp_path / "a")) == len(lines) > 0
    assert drift.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == ""


def test_dump_refuses_a_directory_that_holds_files(tmp_path):
    (tmp_path / "old").write_text("x")
    with pytest.raises(SystemExit):
        dump(tmp_path, "green_grid")


def test_a_rounded_levels_residual_is_named_with_its_size(one_round, tmp_path, monkeypatch,
                                                           capsys):
    dump(tmp_path / "old", "spectrum_mix")
    original = cli._COMMANDS["levels"]
    rounded = []

    def levels_rounding_one_residual(cfg):
        code, text = original(cfg)
        if rounded:
            return code, text
        lines = text.split("\n")
        cells = lines[1].split(",")
        old = cells[3]
        cells[3] = "%.12g" % float("%.3g" % float(old))
        assert cells[3] != old
        rounded.append((old, cells[3]))
        lines[1] = ",".join(cells)
        return code, "\n".join(lines)

    monkeypatch.setitem(cli._COMMANDS, "levels", levels_rounding_one_residual)
    dump(tmp_path / "new", "spectrum_mix")
    rid = next(line.split(" ")[2] for line in capsys.readouterr().out.splitlines()
               if ".levels." in line)
    ((old, new),) = rounded
    assert drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    report = capsys.readouterr().out.splitlines()
    size = abs(float(new) - float(old))
    assert report == [
        "numeric changes, by request kind [column]:",
        f"  levels [residual]: 1 changed cell(s), max abs {size:.3g}, "
        f"max rel {size / float(old):.3g}, "
        f"max {abs(drift.ordered(float(new)) - drift.ordered(float(old)))} ulp; "
        f"largest at spectrum_mix 11 {rid} line 2: {old} -> {new}",
    ]


def _write(root, name, text):
    path = root.joinpath(*name.split(" "))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_exit_code_text_and_missing_requests_are_listed_verbatim(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    table = "x,xp,value\n0.5,0,0x1p-1\n"
    _write(old, "green_grid 3 r000.00.green-grid.HO", "0\n" + table)
    _write(new, "green_grid 3 r000.00.green-grid.HO", "2\n")
    _write(old, "oracle_check 3 r000.01.verify.HO",
           "0\nHO: max level error 1e-07 (tol 0.002, n=4000) ok\n")
    _write(new, "oracle_check 3 r000.01.verify.HO",
           "0\nHO: max level error 2e-07 (tol 0.002, n=4000) FAIL\n")
    _write(old, "oracle_check 3 r000.02.fd-column.HO", "0\n0x1.8p-2\n-0x1p+0")
    _write(new, "oracle_check 3 r000.02.fd-column.HO", "0\n0x1.8000000000001p-2\n-0x1p+0")
    _write(new, "oracle_check 3 r000.03.verify.HO", "0\n")
    assert drift.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "numeric changes, by request kind [column]:",
        "  fd-column [value]: 1 changed cell(s), max abs 5.55e-17, max rel 1.48e-16, max 1 ulp;"
        " largest at oracle_check 3 r000.02.fd-column.HO line 1: 0x1.8p-2 -> 0x1.8000000000001p-2",
        "exit-code changes:",
        "  green_grid 3 r000.00.green-grid.HO: exit 0 -> 2",
        "text changes:",
        "  green_grid 3 r000.00.green-grid.HO line 1: 'x,xp,value' -> ''",
        "  green_grid 3 r000.00.green-grid.HO line 2: '0.5,0,0x1p-1' -> None",
        "  green_grid 3 r000.00.green-grid.HO line 3: '' -> None",
        "  oracle_check 3 r000.01.verify.HO line 1: "
        "'HO: max level error 1e-07 (tol 0.002, n=4000) ok' -> "
        "'HO: max level error 2e-07 (tol 0.002, n=4000) FAIL'",
        "only in the new dump:",
        "  oracle_check 3 r000.03.verify.HO",
    ]


def test_columns_of_csv_json_and_text_tables():
    csv = drift.parse("index,parity,eps\n0,even,0.5\n")
    assert [c for _, _, cells in csv for c in cells] == [("index", "0"), ("eps", "0.5")]
    json_text = drift.parse('[\n {\n  "eps": "1.5",\n  "index": 1\n }\n]\n')
    assert [c for _, _, cells in json_text for c in cells] == [("eps", "1.5"), ("index", "1")]
    table = drift.parse("index  computed  reference\n    0  0.505007  0.50501\n"
                        "table check: PASS\n")
    assert table[1][2] == [("index", "0"), ("computed", "0.505007"), ("reference", "0.50501")]
    verify = drift.parse("HO_ASYM: max level error 3e-07 (tol 0.002, n=2000) ok")
    assert verify[0][1:] == ("HO_ASYM: max level error # (tol #, n=#) ok", [
        ("HO_ASYM: max level error # (tol #, n=#) ok [0]", "3e-07"),
        ("HO_ASYM: max level error # (tol #, n=#) ok [1]", "0.002"),
        ("HO_ASYM: max level error # (tol #, n=#) ok [2]", "2000")])


def test_ulps_count_adjacent_doubles_across_zero():
    assert drift.ordered(0.0) == drift.ordered(-0.0) == 0
    assert drift.ordered(5e-324) == 1 and drift.ordered(-5e-324) == -1
    assert drift.ordered(1.0 + 2.0 ** -52) - drift.ordered(1.0) == 1


# ----------------------------------------------------------------------
# the pinned group: one request per row of tools/pinned.py
# ----------------------------------------------------------------------


def test_pinned_group_holds_every_readme_example():
    import shlex
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
                if line.split()[1] in ("levels", "sweep", "green-grid")
                and "--config" not in line]
    assert len(examples) == 5
    for argv in examples:
        assert argv in [argv for _, argv, _, _ in pinned.PINNED], argv


def test_pinned_group_holds_every_pinned_cli_argv():
    reqs = request_hashes.pinned_requests("run.json")
    assert [req.rid for req in reqs] == pinned.request_ids()
    assert [req.argv for req in reqs] == [
        pinned.with_config(argv, "run.json") for _, argv, _, _ in pinned.PINNED]


def test_pinned_group_follows_the_workloads(one_round, monkeypatch, capsys):
    monkeypatch.setattr(pinned, "PINNED", pinned.PINNED[:2])
    assert request_hashes.main(["11", "--workload", "pinned", "--workload", "green_grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[:2] for line in lines[-2:]] == [["pinned", "-"]] * 2
    assert {line.split(" ")[0] for line in lines[:-2]} == {"green_grid"}
    assert [line.split(" ")[2] for line in lines[-2:]] == [
        "pin.00.levels.README-HO", "pin.01.levels.README-DEC_HO"]


def test_every_pinned_request_has_its_own_id():
    ids = pinned.request_ids()
    assert len(set(ids)) == len(ids) == len(pinned.PINNED)


def test_no_test_id_carries_a_pinned_sha256():
    # a re-pin edits one row's sha256 and renames no test
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--collect-only",
                           "-p", "no:cacheprovider", str(ROOT)],
                          capture_output=True, text=True, cwd=ROOT)
    ids = [line for line in done.stdout.splitlines() if "::" in line]
    assert len(ids) > 1000, done.stdout[-2000:]
    shas = {sha for _, _, _, sha in pinned.PINNED}
    assert [i for i in ids if any(sha in i for sha in shas)] == []


def test_ab_and_request_hashes_hash_a_request_through_one_request_bytes(one_round, capsys):
    # one definition, in a module that imports the standard library only
    defs = [path.name for path in (ROOT / "tools").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == "request_bytes"]
    assert defs == ["pinned.py"]
    source = (ROOT / "tools" / "pinned.py").read_text(encoding="utf-8")
    assert all(n.split(".")[0] in sys.stdlib_module_names for n in imported_modules(source))
    assert request_hashes.main(["11", "--workload", "green_grid"]) == 0
    _, _, rid, digest = capsys.readouterr().out.splitlines()[0].split(" ")
    with ab.Workers(ROOT, ROOT, "green_grid", 11) as workers:
        (req,) = [req for req in workers.requests([0]) if req["rid"] == rid]
        _, code, ab_digest = workers.ask(0, ("run", req))
    assert (code, ab_digest) == (0, digest)


def test_ab_compares_one_round_of_a_checkout_with_itself(one_round, capsys):
    # round 0 of spectrum_mix, one run per side: every request kind gets a
    # ratio, and both workers are gone when it returns
    started = []
    enter = ab.Workers.__enter__

    def keep(self):
        started.append(self)
        return enter(self)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ab.Workers, "__enter__", keep)
        assert ab.main([str(ROOT), str(ROOT), "spectrum_mix", "--reps", "1"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["kind", "n", "parent_ms", "change_ms", "ratio"]
    rows = {line.split()[0]: line.split()[1:] for line in table[1:]}
    assert list(rows) == ["levels", "sweep", "table1", "total"]
    assert [int(rows[k][0]) for k in rows] == [9, 6, 1, 16]
    assert all(float(rows[k][3]) > 0.0 for k in rows)
    (workers,) = started
    assert not any(proc.is_alive() for proc in workers.procs)


def test_ab_names_the_first_request_whose_output_differs(tmp_path):
    # a checkout whose scan step differs: the levels bytes change
    for d in ("src", "perfbench"):
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__", "out"))
    path = tmp_path / "src" / "greenwell" / "spectrum.py"
    path.write_text(path.read_text().replace("_STEP = 0.005\n", "_STEP = 0.0051\n"))
    with ab.Workers(ROOT, tmp_path, "spectrum_mix", 11) as workers:
        levels = [req for req in workers.requests([0]) if req["kind"] == "levels"]
        with pytest.raises(ValueError, match=f"^{re.escape(levels[0]['rid'])}: parent gave"):
            workers.measure(levels[:2], 1)
    assert not any(proc.is_alive() for proc in workers.procs)


# the repository's own top-level modules: the package, the tools, and the
# perfbench modules that tools/ puts on its path
OWN_MODULES = {"greenwell"} | {p.stem for d in ("tools", "perfbench")
                               for p in (ROOT / d).glob("*.py")}


def imported_modules(source):
    """The names of the modules `source` imports by absolute name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def outside_imports(source):
    """Top-level names of the modules `source` imports that are neither
    in the standard library nor the repository's own."""
    return [n for n in imported_modules(source)
            if n.split(".")[0] not in sys.stdlib_module_names | OWN_MODULES]


def test_outside_imports_finds_third_party_modules():
    source = "import os, mpmath\nfrom numpy.linalg import eigh\nfrom . import model\n"
    assert outside_imports(source) == ["mpmath", "numpy.linalg"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "greenwell").glob("*.py"))
                         + sorted((ROOT / "tools").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_program_and_tools_import_only_the_standard_library(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []
