import csv
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import F2, F4_TABLE, parse_dot, polys, run_cli, tree_json_witness
from quadval import QuadraticPoly, build_tree, nu2
from quadval.cli import build_parser, render_tree_json


def test_classify_bounded_text():
    code, out, _ = run_cli(["classify", "-a", "15", "-b", "1142", "-c", "25559"])
    assert code == 0
    assert "bounded, case 3(c), ℓ=7, m=2, period 128" in out


def test_classify_unbounded_text():
    code, out, _ = run_cli(["classify", "-a", "4", "-b", "13", "-c", "-25"])
    assert code == 0
    assert "unbounded, case 2, 1 infinite branch" in out


def test_classify_constant_text():
    code, out, _ = run_cli(["classify", "-a", "4", "-b", "8", "-c", "2"])
    assert code == 0
    assert "constant, case 1, valuation 1, period 1" in out


def test_classify_json():
    code, out, _ = run_cli(["classify", "-a", "5", "-b", "106", "-c", "1125", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["case"] == "3(c)"
    assert record["ell"] == 5 and record["m"] == 5 and record["period"] == 32
    assert record["bounded"] is True and record["max_valuation"] == 10


def test_classify_zero_leading_coefficient():
    code, _, err = run_cli(["classify", "-a", "0", "-b", "1", "-c", "1"])
    assert code == 2
    assert "leading coefficient must be nonzero" in err


def test_classify_unknown_flag():
    code, _, _ = run_cli(["classify", "-a", "1", "-b", "2", "--nope"])
    assert code == 2


def test_table_f4_rows():
    code, out, _ = run_cli(["table", "-a", "5", "-b", "106", "-c", "1125"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "residue,valuation"
    assert len(lines) == 33
    assert "15,8" in lines and "31,10" in lines
    values = tuple(int(line.split(",")[1]) for line in lines[1:])
    assert values == F4_TABLE


def test_table_f3_rows():
    code, out, _ = run_cli(["table", "-a", "15", "-b", "1142", "-c", "25559"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 129
    assert "11,10" in lines


def test_table_unbounded_is_domain_error():
    code, _, err = run_cli(["table", "-a", "4", "-b", "13", "-c", "-25"])
    assert code == 3
    assert "unbounded" in err and "no period table" in err


def test_table_csv_round_trip():
    _, out, _ = run_cli(["table", "-a", "1", "-b", "2", "-c", "5"])
    rows = list(csv.reader(io.StringIO(out)))
    rebuilt = "\n".join(",".join(row) for row in rows) + "\n"
    assert rebuilt == out


def test_table_json_round_trip():
    _, out, _ = run_cli(["table", "-a", "1", "-b", "2", "-c", "5", "--format", "json"])
    payload = json.loads(out)
    assert payload["entries"] == [0, 3, 0, 2]
    assert json.dumps(payload, ensure_ascii=False, indent=2) + "\n" == out


def test_tree_ascii_markers():
    code, out, _ = run_cli(["tree", "-a", "1", "-b", "2", "-c", "5"])
    assert code == 0
    assert "n  *" in out
    assert "2q  ν=0" in out
    assert "4q+1  ν=3" in out
    assert "4q+3  ν=2" in out


def test_tree_ascii_trivial_root():
    code, out, _ = run_cli(["tree", "-a", "1", "-b", "1", "-c", "1"])
    assert code == 0
    assert out == "n  ν=0\n"


def test_tree_ascii_depth_cap_marker():
    _, out, _ = run_cli(["tree", "-a", "4", "-b", "13", "-c", "-25", "--depth", "3"])
    assert "…" in out


def test_tree_json_f4():
    code, out, _ = run_cli(["tree", "-a", "5", "-b", "106", "-c", "1125", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"] == 5

    def collect(node, acc):
        acc.append(node)
        for child in node["children"]:
            collect(child, acc)
        return acc

    nodes = collect(payload["root"], [])
    deep = [n for n in nodes if n["level"] == 5 and n["residue"] == 31]
    assert deep and deep[0]["valuation"] == 10 and deep[0]["status"] == "terminating"


def test_tree_json_root_marker():
    _, out, _ = run_cli(["tree", "-a", "1", "-b", "0", "-c", "-1", "--depth", "2", "--format", "json"])
    payload = json.loads(out)
    pinned = [ch for ch in payload["root"]["children"] if ch["status"] == "root_node"]
    assert len(pinned) == 1
    assert pinned[0]["residue"] == 1 and pinned[0]["valuation"] == "inf"


def test_tree_dot_f2_frontier():
    code, out, _ = run_cli(["tree", "-a", "13", "-b", "12", "-c", "-28", "--depth", "4", "--format", "dot"])
    assert code == 0
    nodes, edges = parse_dot(out)
    with_children = {src for src, _ in edges}
    frontier_unfilled = [
        nid for nid, attrs in nodes.items()
        if nid not in with_children and "style=filled" not in attrs
    ]
    assert len(frontier_unfilled) == 2
    # terminating leaves are filled
    filled = [nid for nid, attrs in nodes.items() if "style=filled" in attrs]
    assert filled and all(nid not in with_children for nid in filled)
    # every node but the root has exactly one edge in
    assert sorted(dst for _, dst in edges) == sorted(nid for nid in nodes if nid != "n0_0")


def test_tree_depth_validation():
    code, _, err = run_cli(["tree", "-a", "1", "-b", "2", "-c", "5", "--depth", "0"])
    assert code == 2
    assert "depth" in err


@pytest.mark.parametrize("fmt", ["ascii", "dot"])
def test_tree_deeper_than_the_recursion_limit(tmp_path, fmt):
    path = tmp_path / f"tree.{fmt}"
    argv = ["tree", "-a", "13", "-b", "12", "-c", "-28", "--depth", "2048", "--format", fmt, "--output", str(path)]
    code, _, err = run_cli(argv)
    assert code == 0, err
    text = path.read_text(encoding="utf-8")
    if fmt == "ascii":
        lines = text.splitlines()
        depths = [(len(line) - len(line.lstrip(" "))) // 2 for line in lines]
        levels = set(depths)
        assert [d for line, d in zip(lines, depths) if line.endswith("…")] == [2048, 2048]
    else:
        nodes, _ = parse_dot(text)
        levels = {int(nid[1:].split("_")[0]) for nid in nodes}
    assert levels == set(range(2049))


def test_tree_json_depth_bound():
    code, out, err = run_cli(["tree", "-a", "13", "-b", "12", "-c", "-28", "--depth", "257", "--format", "json"])
    assert code == 2
    assert out == ""
    assert "256" in err
    code, out, _ = run_cli(["tree", "-a", "13", "-b", "12", "-c", "-28", "--depth", "256", "--format", "json"])
    assert code == 0 and json.loads(out)["depth_cap"] == 256
    assert out == tree_json_witness(build_tree(F2, 256))


@given(f=polys(), depth=st.integers(min_value=0, max_value=12))
@example(f=QuadraticPoly(1, 0, -1), depth=2)  # a ROOT_NODE with valuation "inf"
@example(f=QuadraticPoly(13, 12, -28), depth=4)  # DEPTH_CAPPED leaves, levels null
@example(f=QuadraticPoly(5, 106, 1125), depth=12)  # a complete tree, levels 5
@example(f=QuadraticPoly(1, 1, 1), depth=0)  # the root alone
@settings(max_examples=300, deadline=None)
def test_tree_json_writer_matches_json_dumps(f, depth):
    tree = build_tree(f, depth)
    assert render_tree_json(tree) == tree_json_witness(tree)


@pytest.mark.parametrize("coeffs", [["5", "106", "1125"], ["1", "0", "-1"], ["13", "12", "-28"], ["1", "1", "1"]])
def test_tree_json_round_trip(coeffs):
    _, out, _ = run_cli(["tree", "-a", coeffs[0], "-b", coeffs[1], "-c", coeffs[2], "--depth", "6", "--format", "json"])
    assert json.dumps(json.loads(out), ensure_ascii=False, indent=2) + "\n" == out


def test_seq_csv_reference_rows(tmp_path):
    code, out, _ = run_cli(["seq", "-a", "15", "-b", "1142", "-c", "25559", "--count", "16"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,valuation"
    assert lines[1] == "0,25559,0"
    assert lines[4] == "3,29120,6"
    assert lines[12] == "11,39936,10"


def test_seq_handles_roots():
    code, out, _ = run_cli(["seq", "-a", "1", "-b", "0", "-c", "-1", "--count", "3"])
    assert code == 0
    assert "1,0,inf" in out.splitlines()


def test_seq_json_round_trip():
    _, out, _ = run_cli(["seq", "-a", "1", "-b", "0", "-c", "-1", "--count", "4", "--format", "json"])
    payload = json.loads(out)
    assert payload["rows"][1] == {"n": 1, "value": 0, "valuation": "inf"}
    assert all(isinstance(r["valuation"], (int, str)) for r in payload["rows"])
    assert json.dumps(payload, ensure_ascii=False, indent=2) + "\n" == out


def test_seq_csv_round_trip():
    _, out, _ = run_cli(["seq", "-a", "5", "-b", "106", "-c", "1125", "--count", "40"])
    rows = list(csv.reader(io.StringIO(out)))
    rebuilt = "\n".join(",".join(row) for row in rows) + "\n"
    assert rebuilt == out


def test_seq_start_window():
    _, out, _ = run_cli(["seq", "-a", "4", "-b", "13", "-c", "-25", "--start", "9", "--count", "1"])
    assert out.splitlines()[1] == "9,416,5"


def test_seq_count_validation():
    code, _, _ = run_cli(["seq", "-a", "1", "-b", "2", "-c", "5", "--count", "0"])
    assert code == 2


def test_verify_bounded_passes():
    for coeffs in (["5", "106", "1125"], ["15", "1142", "25559"]):
        code, out, _ = run_cli(["verify", "-a", coeffs[0], "-b", coeffs[1], "-c", coeffs[2]])
        assert code == 0
        assert "result: PASS" in out
        assert "ok: closed form matches brute force" in out
        assert "ok: empirical minimal period" in out
    # the period check always brute-forces four periods, however short the horizon
    code, out, _ = run_cli(["verify", "-a", "5", "-b", "106", "-c", "1125", "--horizon", "16"])
    assert code == 0 and "ok: empirical minimal period 32" in out.splitlines()


def test_verify_unbounded_passes():
    code, out, _ = run_cli(["verify", "-a", "4", "-b", "13", "-c", "-25"])
    assert code == 0
    assert "ok: live branch counts match" in out
    assert "result: PASS" in out


def test_verify_checks_the_tree_against_node_status(monkeypatch):
    import quadval.tree

    def split_without_4a_in_b(i, r, big_a, big_b, big_c):
        return (r, 4 * big_a, 2 * big_b, big_c), (r + (1 << i), 4 * big_a, 2 * big_b, big_a + big_b + big_c)

    monkeypatch.setattr(quadval.tree, "_split", split_without_4a_in_b)
    for coeffs in (["5", "106", "1125"], ["4", "13", "-25"]):
        code, out, _ = run_cli(["verify", "-a", coeffs[0], "-b", coeffs[1], "-c", coeffs[2]])
        assert code == 1
        assert "disagrees with node_status" in out and "result: FAIL" in out


def test_verify_counts_live_branches_below_an_integer_root():
    # n**2 - 1 has the integer roots 1 and -1, so its tree pins a class at level 1
    code, out, _ = run_cli(["verify", "-a", "1", "-b", "0", "-c", "-1"])
    assert code == 0
    assert "ok: live branch counts match on levels 1..12" in out.splitlines()
    assert "note" not in out and "result: PASS" in out


def test_verify_reports_a_wrong_live_branch_count(monkeypatch):
    import quadval.cli

    law = quadval.cli.live_branch_count
    monkeypatch.setattr(quadval.cli, "live_branch_count", lambda cls, level: law(cls, level) + 1)
    code, out, _ = run_cli(["verify", "-a", "1", "-b", "0", "-c", "-1"])
    assert code == 1
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL: ") and "live branches" in ln]


ELL_64 = ["-a", "1", "-b", "2", "-c", str(1 - 5 * 4**63)]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", *ELL_64],
        ["table", *ELL_64, "--format", "json"],
        ["verify", *ELL_64],
        ["verify", *ELL_64, "--horizon", "16"],
        ["seq", "-a", "1", "-b", "2", "-c", "5", "--count", "1048577"],
        ["verify", "-a", "4", "-b", "13", "-c", "-25", "--horizon", "1048577"],
    ],
)
def test_oversize_requests_exit_before_any_work(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert "exceeds the limit of 1048576 values" in err


def test_size_limit_admits_exactly_max_values(monkeypatch):
    import quadval.cli

    monkeypatch.setattr(quadval.cli, "MAX_VALUES", 64)
    ell_6, ell_7 = ["-a", "1", "-b", "2", "-c", str(1 - 5 * 4**5)], ["-a", "1", "-b", "2", "-c", str(1 - 5 * 4**6)]
    ell_4, ell_5 = ["-a", "1", "-b", "2", "-c", str(1 - 5 * 4**3)], ["-a", "1", "-b", "2", "-c", str(1 - 5 * 4**4)]
    unbounded = ["-a", "4", "-b", "13", "-c", "-25"]
    assert run_cli(["table", *ell_6])[0] == 0 and run_cli(["table", *ell_7])[0] == 2
    assert run_cli(["verify", *ell_4])[0] == 0 and run_cli(["verify", *ell_5])[0] == 2
    assert run_cli(["verify", *unbounded, "--horizon", "64"])[0] == 0
    assert run_cli(["verify", *unbounded, "--horizon", "65"])[0] == 2
    assert run_cli(["seq", *unbounded, "--count", "64"])[0] == 0
    assert run_cli(["seq", *unbounded, "--count", "65"])[0] == 2


@pytest.mark.parametrize("coeffs", [["5", "106", "1125"], ["4", "13", "-25"], ["1", "1", "1"]])
def test_verify_negative_horizon_names_the_option(coeffs):
    code, out, err = run_cli(["verify", "-a", coeffs[0], "-b", coeffs[1], "-c", coeffs[2], "--horizon", "-5"])
    assert (code, out, err) == (2, "", "error: horizon must be nonnegative\n")


def test_verify_constant():
    code, out, _ = run_cli(["verify", "-a", "1", "-b", "1", "-c", "1", "--horizon", "500"])
    assert code == 0
    assert "valuation constant at 0" in out


def test_batch_csv(tmp_path):
    path = tmp_path / "polys.csv"
    path.write_text(
        "a,b,c\n4,13,-25\n13,12,-28\n15,1142,25559\n5,106,1125\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(["batch", "--input", str(path)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [json.dumps(r, ensure_ascii=False) for r in records] == out.splitlines()
    assert [r["case"] for r in records] == ["2", "3(b)", "3(c)", "3(c)"]
    assert records[2]["period"] == 128 and records[3]["period"] == 32
    assert records[0]["infinite_branches"] == 1 and records[1]["infinite_branches"] == 2


def test_batch_error_records(tmp_path):
    path = tmp_path / "polys.csv"
    path.write_text("1,2\n1,2,5\n", encoding="utf-8")
    code, out, _ = run_cli(["batch", "--input", str(path)])
    assert code == 4
    lines = out.splitlines()
    first = json.loads(lines[0])
    assert first["line"] == 1 and "error" in first
    assert json.loads(lines[1])["case"] == "3(c)"


def test_batch_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    code, out, _ = run_cli(["batch", "--input", str(path)])
    assert code == 0
    assert out == ""


def test_batch_json_array(tmp_path):
    path = tmp_path / "polys.json"
    path.write_text('[{"a": 1, "b": 2, "c": 5}, [2, 1, 1], {"a": 1}]', encoding="utf-8")
    code, out, _ = run_cli(["batch", "--input", str(path)])
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["case"] == "3(c)"
    assert records[1]["case"] == "2"
    assert records[2]["index"] == 2 and "error" in records[2]


def test_batch_json_rejects_non_integer_coefficients(tmp_path):
    path = tmp_path / "polys.json"
    path.write_text('[[1.9, 2, 3], [true, 2, 3], {"a": "7", "b": 2, "c": 3}]', encoding="utf-8")
    code, out, _ = run_cli(["batch", "--input", str(path)])
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [{"index": i, "error": "coefficients must be integers"} for i in range(3)]


def test_batch_missing_file():
    code, _, err = run_cli(["batch", "--input", "/nonexistent/never.csv"])
    assert code == 2
    assert "error" in err


def test_ops_reference():
    code, out, _ = run_cli(["ops", "-a", "5", "-b", "106", "-c", "1125"])
    assert code == 0
    assert "canonical: n^2 + 2n + 2817" in out
    assert "TRANSLATE(-52), S_FORWARD(5)" in out


def test_ops_identity_like():
    code, out, _ = run_cli(["ops", "-a", "1", "-b", "2", "-c", "5"])
    assert code == 0
    assert "TRANSLATE(0), S_FORWARD(1)" in out


def test_ops_show_canonical():
    code, out, _ = run_cli(["ops", "-a", "5", "-b", "106", "-c", "1125", "--show-canonical"])
    assert code == 0
    assert "level 5: 15 -> 31" in out
    assert "level 5: 31 -> 15" in out


def test_ops_json():
    code, out, _ = run_cli(["ops", "-a", "5", "-b", "106", "-c", "1125", "--json", "--show-canonical"])
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == {"a": 1, "b": 2, "c": 2817}
    assert payload["chain"] == [
        {"kind": "TRANSLATE", "param": -52},
        {"kind": "S_FORWARD", "param": 5},
    ]
    deepest = [e for e in payload["residue_map"] if e["level"] == 5]
    assert {(e["canonical_residue"], e["residue"]) for e in deepest} == {(15, 31), (31, 15)}


def test_ops_show_canonical_at_large_ell():
    # ℓ = 64, m = 5: a period of 2**64, of which the map lists 65 residues
    f = QuadraticPoly(1, 2, 1 - 5 * 4**63)
    code, out, _ = run_cli(["ops", "-a", "1", "-b", "2", "-c", str(f.c), "--show-canonical"])
    assert code == 0
    assert f"canonical: {f}" in out
    rows = [line for line in out.splitlines() if line.startswith("  level ")]
    assert len(rows) == 65
    for row in rows:
        t = int(row.split(": ")[1].split(" -> ")[0])
        assert row.endswith(f"(ν={nu2(f(t))})")


def test_ops_unbounded_is_domain_error():
    code, _, err = run_cli(["ops", "-a", "4", "-b", "13", "-c", "-25"])
    assert code == 3
    assert "error" in err


def test_unexpected_exceptions_exit_5_without_a_traceback(monkeypatch):
    import quadval.cli

    def broken_build_tree(f, depth_cap=32):
        raise RuntimeError("tree builder broke")

    monkeypatch.setattr(quadval.cli, "build_tree", broken_build_tree)
    code, out, err = run_cli(["tree", "-a", "5", "-b", "106", "-c", "1125"])
    assert (code, out) == (5, "")
    assert err == "internal error: RuntimeError: tree builder broke\n"


def test_consecutive_calls_share_no_state():
    # the parser is built once per process, so nothing one call parses may reach the next
    assert build_parser() is build_parser()
    classify_f4 = ["classify", "-a", "5", "-b", "106", "-c", "1125"]
    assert json.loads(run_cli([*classify_f4, "--json"])[1])["case"] == "3(c)"
    assert run_cli(["classify", "-a", "5", "-b", "106"])[0] == 2
    assert run_cli(classify_f4) == (0, "f(n) = 5n^2 + 106n + 1125\nbounded, case 3(c), ℓ=5, m=5, period 32\n", "")
    tree_f2 = ["tree", "-a", "13", "-b", "12", "-c", "-28", "--format", "json"]
    assert json.loads(run_cli([*tree_f2, "--depth", "3"])[1])["depth_cap"] == 3
    assert json.loads(run_cli(tree_f2)[1])["depth_cap"] == 32
    assert run_cli(["tree", "-a", "13", "-b", "12", "-c", "-28"])[1].splitlines()[0] == "n  *"


def test_output_flag(tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(["table", "-a", "1", "-b", "2", "-c", "5", "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == "residue,valuation\n0,0\n1,3\n2,0\n3,2\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadval", "classify", "-a", "1", "-b", "2", "-c", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bounded, case 3(c)" in proc.stdout


def test_big_integer_coefficients():
    big = str(10**40 + 3)
    code, out, _ = run_cli(["classify", "-a", "1", "-b", "2", "-c", big])
    assert code == 0
    code, out, _ = run_cli(["seq", "-a", "1", "-b", "0", "-c", f"-{10**30}", "--count", "2"])
    assert code == 0
    assert out.splitlines()[1].startswith("0,-1000000000000000000000000000000,")
