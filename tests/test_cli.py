"""End-to-end command-line behavior via subprocess."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from ringlab import cli, predicates

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ringlab.cli", *args],
        capture_output=True, text=True, timeout=600)


def test_import_loads_no_scipy():
    """numpy is the one runtime dependency (pyproject.toml)."""
    p = subprocess.run(
        [sys.executable, "-c",
         "import sys, ringlab, ringlab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def test_describe():
    p = run_cli("describe", "Z36")
    assert p.returncode == 0
    assert "size: 36" in p.stdout or "36" in p.stdout
    assert "radical" in p.stdout


def test_describe_json(tmp_path):
    out = tmp_path / "d.json"
    p = run_cli("describe", "M(2, Z3)", "--json", str(out))
    assert p.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["size"] == 81
    assert payload["commutative"] is False


def test_ideals_listing():
    p = run_cli("ideals", "Z4 x Z6")
    assert p.returncode == 0
    # 3 ideals of Z4 crossed with 4 ideals of Z6
    rows = [ln for ln in p.stdout.splitlines() if ln.strip().startswith("gen(")]
    assert len(rows) == 12


def test_check_true_exits_zero(tmp_path):
    out = tmp_path / "r.json"
    p = run_cli("check", "Z36", "--ideal", "gen(4)",
                "--subset", "mulclosed(1, 3, 9, 27)",
                "--predicate", "s-j", "--json", str(out))
    assert p.returncode == 0, p.stderr
    assert "verdict: true" in p.stdout
    assert "witness_s: 3" in p.stdout
    payload = json.loads(out.read_text())
    assert payload["verdict"] is True
    assert payload["witness_s"] == "3"
    assert payload["quantifier_mode"] == "fixed-s"


def test_check_false_exits_one(tmp_path):
    out = tmp_path / "r.json"
    p = run_cli("check", "Z36", "--ideal", "gen(4)", "--predicate", "j",
                "--json", str(out))
    assert p.returncode == 1
    assert "verdict: false" in p.stdout
    payload = json.loads(out.read_text())
    assert payload["counterexample"] == ["2", "2"]


def test_check_per_pair_mode():
    p = run_cli("check", "Z12", "--ideal", "gen(4)", "--subset", "gen_s(5)",
                "--predicate", "s-j", "--mode", "per-pair")
    assert p.returncode == 1
    assert "per-pair-s" in p.stdout


def test_check_raw_indices_match_native(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    p = run_cli("check", "Z4 x Z6", "--ideal", "gen((2, 3))",
                "--subset", "gen_s((1, 1))", "--predicate", "s-j",
                "--json", str(a))
    q = run_cli("check", "Z4 x Z6", "--ideal", "gen(15)",
                "--subset", "gen_s(7)", "--predicate", "s-j", "--raw",
                "--json", str(b))
    assert p.returncode == q.returncode
    pa = json.loads(a.read_text())
    pb = json.loads(b.read_text())
    assert pa["verdict"] == pb["verdict"]


def test_usage_errors_exit_two():
    cases = [
        ("check", "Zoo", "--ideal", "gen(0)", "--predicate", "j"),
        ("check", "Z36", "--ideal", "gen(3)", "--predicate", "s-j",
         "--subset", "mulclosed(1, 3, 9, 27)"),        # not disjoint
        ("check", "M(2, Z2)", "--ideal", "gen(0)", "--predicate", "s-j",
         "--subset", "gen_s([[1,0],[0,1]])"),          # needs commutative
        ("check", "Z36", "--ideal", "gen(4)", "--predicate", "s-j"),
        ("describe", "idealize(Z6, 4)"),
    ]
    for args in cases:
        p = run_cli(*args)
        assert p.returncode == 2, (args, p.returncode, p.stderr)
        assert p.stderr.strip()


def test_argparse_errors_exit_two():
    p = run_cli("check", "Z36", "--ideal", "gen(4)",
                "--predicate", "not-a-predicate")
    assert p.returncode == 2


def test_capacity_exits_three():
    p = run_cli("check", "Z67 x Z67", "--ideal", "gen((0, 0))",
                "--subset", "gen_s((2, 1))", "--predicate", "s-j")
    assert p.returncode == 3
    assert "capacity" in p.stderr


def test_verify_small_and_schema(tmp_path):
    out = tmp_path / "report.json"
    p = run_cli("verify", "--max-size", "20", "--json", str(out))
    assert p.returncode == 0, p.stderr
    assert "violations: 0" in p.stdout
    reports = json.loads(out.read_text())
    assert [r["property_id"] for r in reports] \
        == ["P%d" % i for i in range(1, 34)]
    assert all(r["violated"] == 0 for r in reports)


def test_verify_properties_filter(tmp_path):
    out = tmp_path / "p.json"
    p = run_cli("verify", "--max-size", "16", "--properties", "P2,P16",
                "--json", str(out))
    assert p.returncode == 0, p.stderr
    reports = json.loads(out.read_text())
    assert [r["property_id"] for r in reports] == ["P2", "P16"]


def test_reproduce():
    p = run_cli("reproduce")
    assert p.returncode == 0, p.stderr
    lines = [ln for ln in p.stdout.splitlines() if " PASS " in ln]
    assert len(lines) == 5


def test_no_subcommand_exits_two():
    p = run_cli()
    assert p.returncode == 2


def test_readme_mode_names_are_accepted():
    """Every library ``mode="..."`` in the README is a predicate mode and
    every ``--mode`` value a CLI one."""
    text = README.read_text()
    library = re.findall(r'mode="([^"]*)"', text)
    flags = [v for spec in re.findall(r"--mode ([\w|-]+)", text)
             for v in spec.split("|")]
    assert library and flags
    assert set(library) <= set(predicates.MODES)
    assert set(flags) <= set(cli.MODES)
