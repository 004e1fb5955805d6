import json

import pytest

from petrisynth import cli, polysynth, reduction
from petrisynth.cli import main
from petrisynth.fileio import parse_net, parse_ts, serialize_formula, serialize_ts
from petrisynth.nets import reachability_graph
from petrisynth.nettypes import FAMILIES
from petrisynth.reduction import Cm1in3Formula
from petrisynth.ts import PROBLEMS, TransitionSystem, deterministic_isomorphism


@pytest.fixture
def a2_file(tmp_path, a2):
    path = tmp_path / "a2.ts"
    path.write_text(serialize_ts(a2))
    return path


@pytest.fixture
def a1_file(tmp_path, a1):
    path = tmp_path / "a1.ts"
    path.write_text(serialize_ts(a1))
    return path


def test_check_polynomial_yes(a2_file, capsys):
    assert main(["check", "--family", "zppt", "--b", "2", "--problem", "ssp", str(a2_file)]) == 0
    assert capsys.readouterr().out == "ssp over zppt at b=2: yes\n"


def test_check_polynomial_no(a2_file, capsys):
    code = main(["check", "--family", "rzpt", "--b", "1", "--problem", "solvability", str(a2_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert out == "solvability over rzpt at b=1: no (unsolvable: ssa(s0,s1))\n"


def test_check_solvability_decides_ssp_first(tmp_path, capsys):
    # ssa(s0,s1) and essa(a,s0) are both unsolvable at b=1; check must
    # name the same atom as synthesize and the oracle
    ts = TransitionSystem(
        "r945989",
        ["s0", "s1", "s2", "s3", "s4"],
        ["a", "b"],
        [("s0", "b", "s1"), ("s1", "b", "s2"), ("s1", "a", "s3"), ("s2", "a", "s4"),
         ("s2", "b", "s2"), ("s3", "a", "s0"), ("s4", "a", "s4"), ("s4", "b", "s4")],
        "s0",
    )
    path = tmp_path / "r.ts"
    path.write_text(serialize_ts(ts))
    for problem, atom in (("solvability", "ssa(s0,s1)"), ("essp", "essa(a,s0)"), ("ssp", "ssa(s0,s1)")):
        assert main(["check", "--family", "rzpt", "--b", "1", "--problem", problem, str(path)]) == 1
        assert capsys.readouterr().out == f"{problem} over rzpt at b=1: no (unsolvable: {atom})\n"
    assert main(["synthesize", "--b", "1", str(path)]) == 1
    assert "(unsolvable: ssa(s0,s1))" in capsys.readouterr().out
    assert main(["oracle", "--family", "rzpt", "--b", "1", "--problem", "solvability", str(path)]) == 1
    assert "(unsolvable: ssa(s0,s1))" in capsys.readouterr().out


def test_check_refuses_pure_families(a2_file, capsys):
    code = main(["check", "--family", "pt", "--b", "1", "--problem", "essp", str(a2_file)])
    assert code == 2
    assert "no polynomial decider" in capsys.readouterr().out


def test_check_oracle_fallback_warns(a2_file, capsys):
    with pytest.warns(UserWarning, match="falling back to the exhaustive oracle"):
        code = main(["check", "--family", "zppt", "--b", "2", "--problem", "essp", str(a2_file)])
    assert code == 0
    assert "essp over zppt at b=2: yes" in capsys.readouterr().out


def test_check_budget_env(a1_file, capsys, monkeypatch):
    monkeypatch.setenv("PETRISYNTH_BUDGET", "1")
    with pytest.warns(UserWarning):
        code = main(["check", "--family", "zppt", "--b", "1", "--problem", "essp", str(a1_file)])
    assert code == 2
    assert "inconclusive: oracle budget exhausted after 1 candidates" in capsys.readouterr().out


def test_bad_budget_env(a2_file, capsys, monkeypatch):
    monkeypatch.setenv("PETRISYNTH_BUDGET", "soon")
    code = main(["oracle", "--family", "ppt", "--b", "1", "--problem", "ssp", str(a2_file)])
    assert code == 2
    assert "error: PETRISYNTH_BUDGET must be an integer, got 'soon'" in capsys.readouterr().err
    monkeypatch.setenv("PETRISYNTH_BUDGET", "0")
    code = main(["oracle", "--family", "ppt", "--b", "1", "--problem", "ssp", str(a2_file)])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err


def test_bad_budget_flag(a2_file, capsys):
    for bad in ("0", "-3"):
        code = main(["oracle", "--family", "ppt", "--b", "1", "--problem", "ssp",
                     "--budget", bad, str(a2_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: --budget must be positive, got {bad}" in captured.err
        assert "inconclusive" not in captured.out


def test_bad_cap_flag(a2_file, tmp_path, capsys):
    # rejected before any work, not reported as an exceeded cap afterwards
    assert main(["synthesize", "--b", "2", str(a2_file)]) == 0
    net_path = tmp_path / "a2.net"
    capsys.readouterr()
    for bad in ("0", "-3"):
        for argv in (["synthesize", "--b", "2", "-o", str(tmp_path / "bad.net")], ["reachability"]):
            path = a2_file if argv[0] == "synthesize" else net_path
            assert main(argv + ["--cap", bad, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --cap must be positive, got {bad}\n"
            assert captured.out == ""
    assert not (tmp_path / "bad.net").exists()
    assert not (tmp_path / "a2.rg.ts").exists()


def test_synthesize_cap_bounds_the_state_count(a2_file, capsys):
    # the README's 3-cycle a2.ts: its rzpt net at b=2 reaches three markings
    assert main(["synthesize", "--b", "2", "--cap", "2", str(a2_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cap exceeded: more than 2 reachable markings in a2.synth\n"
    assert captured.out == ""
    assert not a2_file.with_suffix(".net").exists()
    assert main(["synthesize", "--b", "2", "--cap", "3", str(a2_file)]) == 0


def test_synthesize_checks_the_cap_before_deciding(a2_file, monkeypatch, capsys):
    # a2.ts is not rzpt-solvable at b=1, but its three states are past the
    # cap: the cap wins, with no decision made and no net written
    trees = []
    build = polysynth.build_spanning

    def counting_build(*args, **kwargs):
        trees.append(args[0].name)
        return build(*args, **kwargs)

    monkeypatch.setattr(polysynth, "build_spanning", counting_build)
    assert main(["synthesize", "--b", "1", "--cap", "2", str(a2_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cap exceeded: more than 2 reachable markings in a2.synth\n"
    assert captured.out == ""
    assert not a2_file.with_suffix(".net").exists()
    assert trees == []


# the method check decides a2.ts with; pt and ppt are refused (no method)
CHECK_METHOD = {
    ("zpt", "ssp"): "polynomial",
    ("zpt", "essp"): "oracle",
    ("zpt", "solvability"): "oracle",
    ("zppt", "ssp"): "polynomial",
    ("zppt", "essp"): "oracle",
    ("zppt", "solvability"): "oracle",
    ("rzpt", "ssp"): "polynomial",
    ("rzpt", "essp"): "polynomial",
    ("rzpt", "solvability"): "polynomial",
}


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_check_dispatch(a2_file, capsys, family, problem, b):
    # a2.ts is a 3-cycle: s0 and s1 need b >= 2 apart, every essa atom is
    # solvable
    method = CHECK_METHOD.get((family, problem))
    failing = "ssa(s0,s1)" if method and problem != "essp" and b == 1 else None
    code = 2 if method is None else int(failing is not None)
    argv = ["--json", "check", "--family", family, "--b", str(b), "--problem", problem, str(a2_file)]
    if method == "oracle":
        with pytest.warns(UserWarning, match="falling back to the exhaustive oracle"):
            assert main(argv) == code
    else:
        assert main(argv) == code
    report = json.loads(capsys.readouterr().out)
    assert (report["exit"], report["method"], report["failing"]) == (code, method, failing)


def test_check_solvability_builds_one_spanning_tree(a1_file, a2_file, monkeypatch, capsys):
    trees = []
    build = polysynth.build_spanning

    def counting_build(*args, **kwargs):
        trees.append(args[0].name)
        return build(*args, **kwargs)

    monkeypatch.setattr(polysynth, "build_spanning", counting_build)
    for path, b, code in ((a1_file, 1, 0), (a2_file, 2, 0), (a2_file, 1, 1)):
        trees.clear()
        argv = ["check", "--family", "rzpt", "--b", str(b), "--problem", "solvability", str(path)]
        assert main(argv) == code
        assert trees == [path.stem]
    assert capsys.readouterr().out.splitlines()[-1] == "solvability over rzpt at b=1: no (unsolvable: ssa(s0,s1))"


def test_synthesize_reachability_iso_pipeline(a2_file, a2, tmp_path, capsys):
    assert main(["synthesize", "--b", "2", str(a2_file)]) == 0
    net_path = tmp_path / "a2.net"
    assert "wrote" in capsys.readouterr().out
    net = parse_net(net_path.read_text())
    assert deterministic_isomorphism(a2, reachability_graph(net)) is not None

    assert main(["reachability", str(net_path)]) == 0
    graph_path = tmp_path / "a2.rg.ts"
    capsys.readouterr()
    assert main(["iso", str(a2_file), str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "isomorphic"
    assert "  s0 -> 0" in out


def test_internal_error_exits_2(a2_file, capsys, monkeypatch):
    # exit 1 means a justified no; a failed self-check is neither that nor yes
    def broken(*args, **kwargs):
        raise AssertionError("derived region misses its atom")

    monkeypatch.setattr(cli, "synthesize_rzpt", broken)
    assert main(["synthesize", "--b", "2", str(a2_file)]) == 2
    assert "internal error: AssertionError" in capsys.readouterr().err


def test_synthesize_failure(a2_file, capsys):
    assert main(["synthesize", "--b", "1", str(a2_file)]) == 1
    assert "not rzpt-synthesizable at b=1" in capsys.readouterr().out


def test_iso_negative(a1_file, a2_file, capsys):
    assert main(["iso", str(a1_file), str(a2_file)]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_oracle_negative_and_budget_flag(a2_file, capsys):
    code = main(["oracle", "--family", "pt", "--b", "1", "--problem", "ssp", str(a2_file)])
    assert code == 1
    assert capsys.readouterr().out == (
        "ssp over pt at b=1: no (unsolvable: ssa(s0,s1)) [8 candidates]\n"
    )
    code = main(["oracle", "--family", "pt", "--b", "1", "--problem", "ssp",
                 "--budget", "2", str(a2_file)])
    assert code == 2
    assert "inconclusive" in capsys.readouterr().out


def test_json_reports(a2_file, capsys):
    assert main(["--json", "check", "--family", "zppt", "--b", "2", "--problem", "ssp",
                 str(a2_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "command": "check",
        "family": "zppt",
        "bound": 2,
        "problem": "ssp",
        "input": str(a2_file),
        "answer": True,
        "failing": None,
        "method": "polynomial",
        "exit": 0,
    }

    assert main(["--json", "synthesize", "--b", "2", str(a2_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["isomorphism"] == {"0": "s0", "1": "s1", "2": "s2"}
    assert report["output"].endswith("a2.net")


def test_reduce_writes_instance(tmp_path, example_formula, capsys):
    source = tmp_path / "phi.cnf3"
    source.write_text(serialize_formula(example_formula))
    assert main(["reduce", "--variant", "ssp", "--b", "1", str(source)]) == 0
    out = capsys.readouterr().out
    assert "distinguished atom ssa(h2_0,h2_1)" in out
    joined = parse_ts((tmp_path / "phi.ts").read_text())
    assert joined.name == "ssp.lj.b1"
    assert len(joined.states) == 200


def test_reduce_emits_witness(tmp_path, example_formula, capsys):
    source = tmp_path / "phi.cnf3"
    source.write_text(serialize_formula(example_formula))
    code = main(["--json", "reduce", "--variant", "ssp", "--b", "2",
                 "--emit-witness", str(source)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == [0, 4]
    witness = (tmp_path / "phi.ts.witness").read_text()
    assert witness.startswith("# witness regions for ssp.lj.b2\n")
    assert ".atom ssa h2_0 h2_2" in witness
    assert ".region r0" in witness
    assert ".sup h2_0" in witness and ".sig k " in witness


def test_reduce_emit_witness_builds_the_union_once(tmp_path, example_formula, monkeypatch):
    # the witness region is built over the union the command already built
    calls = []
    original = reduction.build_union

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reduction, "build_union", counting)
    monkeypatch.setattr(cli, "build_union", counting)
    source = tmp_path / "phi.cnf3"
    source.write_text(serialize_formula(example_formula))
    assert main(["reduce", "--variant", "ssp", "--b", "2", "--emit-witness", str(source)]) == 0
    assert len(calls) == 1


def test_reduce_unsat_writes_stub(tmp_path, capsys):
    unsat = Cm1in3Formula(((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    source = tmp_path / "unsat.cnf3"
    source.write_text(serialize_formula(unsat))
    code = main(["--json", "reduce", "--variant", "z-essp", "--b", "2",
                 "--emit-witness", str(source)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] is None
    stub = (tmp_path / "unsat.ts.witness").read_text()
    assert "no one-in-three model" in stub


def test_reduce_empty_formula_reports_empty_model(tmp_path, capsys):
    # the empty formula's model is the empty set: a witness is written and
    # the report names that model, not None
    source = tmp_path / "zero.cnf3"
    source.write_text(".cnf3 0\n")
    code = main(["--json", "reduce", "--variant", "ssp", "--b", "1",
                 "--emit-witness", str(source)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == []
    assert report["witness"].endswith("zero.ts.witness")
    assert ".region r0" in (tmp_path / "zero.ts.witness").read_text()


def test_reduce_past_the_brute_force_limit_writes_nothing(tmp_path, capsys):
    # nine copies of the cubic formula on disjoint variables: 27 clauses
    big = Cm1in3Formula(tuple((3 * k, 3 * k + 1, 3 * k + 2) for k in range(9) for _ in range(3)))
    source = tmp_path / "big.cnf3"
    source.write_text(serialize_formula(big))
    assert main(["reduce", "--variant", "ssp", "--b", "1", "--emit-witness", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: formula too large for brute force: m = 27\n"
    assert captured.out == ""
    assert not (tmp_path / "big.ts").exists()
    assert not (tmp_path / "big.ts.witness").exists()


def test_parser_is_built_once_and_keeps_no_state(a2_file, capsys):
    assert cli._parser() is cli._parser()
    assert main(["--json", "check", "--family", "zppt", "--b", "2", "--problem", "ssp",
                 str(a2_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["command"], report["answer"], report["method"]) == ("check", True, "polynomial")
    assert main(["oracle", "--family", "pt", "--b", "1", "--problem", "ssp", str(a2_file)]) == 1
    assert capsys.readouterr().out == (
        "ssp over pt at b=1: no (unsolvable: ssa(s0,s1)) [8 candidates]\n"
    )


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.ts"
    bad.write_text(".ts x\n.oops\n")
    assert main(["check", "--family", "zppt", "--b", "1", "--problem", "ssp", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 2: unknown directive: .oops\n"


def test_missing_file_exit(tmp_path, capsys):
    assert main(["iso", str(tmp_path / "no.ts"), str(tmp_path / "no.ts")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_bound_exit(a2_file, capsys):
    assert main(["check", "--family", "zppt", "--b", "0", "--problem", "ssp", str(a2_file)]) == 2
    assert "bound must be >= 1" in capsys.readouterr().err


def test_bound_past_the_cap_exits_2(a2_file, tmp_path, example_formula, capsys):
    assert main(["check", "--family", "zpt", "--b", "1001", "--problem", "ssp", str(a2_file)]) == 2
    assert capsys.readouterr().err == "error: bound must be <= 1000, got 1001\n"
    source = tmp_path / "phi.cnf3"
    source.write_text(serialize_formula(example_formula))
    assert main(["reduce", "--variant", "ssp", "--b", "1001", str(source)]) == 2
    assert capsys.readouterr().err == "error: bound must be <= 1000, got 1001\n"
