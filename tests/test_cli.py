"""End-to-end checks for the command line interface.

Every test drives cli.main(argv) in process and inspects the JSON
document it prints, so the tests cover argument wiring, payload
shapes, and exit codes at the same time.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclg import mutation
from toriclg.cli import build_parser, main
from toriclg.constructions import catalog
from toriclg.laurent import parse

CATALOG = catalog()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUADRIC_F0 = "(x+1)^2/(x*y*z)+y+z"
CUBIC4_F00 = "(x+1)^3/(x*y*z*t)+y+z+t"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out
    if out.lstrip().startswith("{"):
        return code, json.loads(out)
    return code, out


def test_period_projective_plane(capsys):
    code, doc = run_cli(["period", "x+y+1/(x*y)", "--n", "6"], capsys)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["values"] == ["1", "0", "0", "6", "0", "0", "90"]


def test_period_rejects_zero(capsys):
    code, doc = run_cli(["period", "0"], capsys)
    assert code == 2
    assert doc["status"] == "fail"
    assert doc["diagnostics"]


def test_period_constant_without_variables(capsys):
    code, doc = run_cli(["period", "5", "--n", "3"], capsys)
    assert code == 0
    assert doc["payload"]["values"] == ["1", "5", "25", "125"]


def test_period_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x+y+1/(x*y)"))
    code, doc = run_cli(["period", "-", "--n", "3"], capsys)
    assert code == 0
    assert doc["payload"]["values"] == ["1", "0", "0", "6"]


def test_float_adds_approx_shadow(capsys):
    code, doc = run_cli(["period", "x+1/x", "--n", "4", "--float"], capsys)
    assert code == 0
    assert doc["payload"]["values"] == ["1", "0", "2", "0", "6"]
    assert doc["payload"]["approx"]["values"] == [1.0, 0.0, 2.0, 0.0, 6.0]


def test_text_emit_mode(capsys):
    code, out = run_cli(["period", "x+1/x", "--n", "2", "--emit", "text"], capsys)
    assert code == 0
    assert isinstance(out, str)
    assert out.splitlines()[0] == "status: ok"


def test_emit_flag_accepted_after_subcommand(capsys):
    code, doc = run_cli(["p2-chain", "--depth", "1", "--emit", "json"], capsys)
    assert code == 0
    assert doc["status"] == "ok"


def test_newton_command(capsys):
    code, doc = run_cli(["newton", "x+y+1/(x*y)"], capsys)
    assert code == 0
    assert doc["payload"]["dim_affine"] == 2
    assert doc["payload"]["polytope"]["vertices"] == [[-1, -1], [0, 1], [1, 0]]


def test_equiv_identity_has_witness(capsys):
    code, doc = run_cli(["equiv", "x+y+1/(x*y)", "x+y+1/(x*y)"], capsys)
    assert code == 0
    assert doc["payload"]["equivalent"] is True
    assert doc["payload"]["witness"]["type"] == "toric"


def test_equiv_scan_cap_exits_4(capsys):
    # the 6-D cross-polytope model against a sheared copy: one vertex colour,
    # so 12 starts * P(10, 6) frame tuples * 6^3 = 391,910,400 units
    first = " + ".join("x%d + 1/x%d" % (i, i) for i in range(6))
    second = first.replace("x0 + 1/x0", "x0*x1 + 1/(x0*x1)")
    start = time.perf_counter()
    code, doc = run_cli(["equiv", first, second], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "ComplexityLimit"


def test_equiv_on_cyclic_polytopes_scans_only_like_coloured_frames(capsys):
    # two cyclic polytopes C(4, 20), the second the first under s -> s + 1:
    # every vertex has 19 neighbours (20 * P(19, 4) * 4^3 = 119 M units by
    # degree alone), but the vertex colours leave 32 frame tuples
    first = " + ".join("x^%d*y^%d*z^%d*t^%d" % (s, s**2, s**3, s**4) for s in range(1, 21))
    second = " + ".join("x^%d*y^%d*z^%d*t^%d" % (s, s**2, s**3, s**4) for s in range(2, 22))
    start = time.perf_counter()
    code, doc = run_cli(["equiv", first, second], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    witness = mutation.steps_from_json([doc["payload"]["witness"]], tuple("xyzt"))[0]
    assert mutation.apply_toric(parse(first), witness) == parse(second, tuple("xyzt"))


def test_equiv_negative_is_fail(capsys):
    code, doc = run_cli(["equiv", "x+y", "x+y+1"], capsys)
    assert code == 2
    assert doc["status"] == "fail"
    assert doc["payload"]["equivalent"] is False


# negative 3-D 6-vertex pairs of the mutation benchmark whose scales took
# seconds to minutes through powers of the support's Smith transform
SLOW_SCALE_PAIRS = [
    (
        "x^3*y*z^2 + x^3*y^-1*z^2 + x^2*y^-3*z^-1 + x*y^2*z^-3 + x^-1*y^-2*z^-3 + x^-3*y*z^-2",
        "-1/8*x^3*y^-5*z^-2 - 8*x*y*z^2 - 8*x*y^-1*z^2 + 1/2*y^-3*z^-3 - 28*x^-1*z^-1 + 2*x^-2*y^-7*z^-3",
    ),
    (
        "x^3*y^2*z + x^3*y^-2*z + x*y^-3*z^2 + x^-1*y^3*z^2 + x^-2*y^-1*z^-3 + x^-3*y^2*z",
        "-7/16*x^4*y^-6*z^-4 + 1/32*x^3*y^-7*z^-2 - 2*x^2*y^-1*z^3 + 32*x^-1*y^3*z^2 + 1/2*x^-1*y^-3*z^2 - 16*x^-2*y^2*z^2",
    ),
]


@pytest.mark.parametrize("first, second", SLOW_SCALE_PAIRS)
def test_equiv_negative_with_scales_is_fast(first, second, capsys):
    start = time.perf_counter()
    code, doc = run_cli(["equiv", first, second], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["payload"] == {"equivalent": False}


def test_equiv_positive_with_scales_has_witness(capsys):
    first = parse(SLOW_SCALE_PAIRS[0][0])
    change = mutation.ToricChange(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0), (2, "-1/2", 2))
    second = mutation.apply_toric(first, change)
    start = time.perf_counter()
    code, doc = run_cli(["equiv", SLOW_SCALE_PAIRS[0][0], str(second)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    witness = mutation.steps_from_json([doc["payload"]["witness"]], first.var_names)[0]
    assert mutation.apply_toric(first, witness) == second


def test_equiv_reads_the_first_expression_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x+y"))
    code, doc = run_cli(["equiv", "-", "y+2*x*z"], capsys)
    assert code == 0
    assert doc["payload"]["equivalent"] is True


def test_hori_vafa_matches_catalog(capsys):
    code, doc = run_cli(["hori-vafa", "--N", "4", "--degrees", "3"], capsys)
    assert code == 0
    assert doc["payload"]["dim"] == 3
    assert doc["payload"]["index"] == 2
    names = tuple(doc["payload"]["vars"])
    assert parse(doc["payload"]["polynomial"], names) == CATALOG["cubic3.f0"]


def test_hori_vafa_rejects_bad_degree_data(capsys):
    code, doc = run_cli(["hori-vafa", "--N", "4", "--degrees", "2", "2", "1"], capsys)
    assert code == 2
    assert doc["status"] == "fail"


def test_hori_vafa_rejects_nonpositive_index(capsys):
    code, doc = run_cli(["hori-vafa", "--N", "3", "--degrees", "2", "2"], capsys)
    assert code == 2
    assert doc["status"] == "fail"


def test_hori_vafa_variable_cap_exits_4(capsys):
    # 800 variables would take tens of seconds and memory growing with N^2
    start = time.perf_counter()
    code, doc = run_cli(["hori-vafa", "--N", "800"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "ComplexityLimit"


def test_markov_depth_zero(capsys):
    code, doc = run_cli(["markov", "--depth", "0"], capsys)
    assert code == 0
    assert doc["payload"]["triples"] == [[1, 1, 1]]


def test_markov_depth_six_contains_known_triples(capsys):
    code, doc = run_cli(["markov", "--depth", "6"], capsys)
    assert code == 0
    triples = [tuple(t) for t in doc["payload"]["triples"]]
    for expected in [(1, 2, 5), (1, 5, 13), (2, 5, 29)]:
        assert expected in triples


def test_markov_depth_cap_exits_4(capsys):
    # each level doubles the triple count; the cap stops depth 40 early
    start = time.perf_counter()
    code, doc = run_cli(["markov", "--depth", "40"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "ComplexityLimit"


def test_mutate_replays_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"type": "cluster", "pivot": 1, "sign": -1, "factor": "x+1"}]))
    code, doc = run_cli(["mutate", QUADRIC_F0, "--trace", str(trace)], capsys)
    assert code == 0
    assert doc["payload"]["periods_equal"] is True
    assert len(doc["payload"]["intermediates"]) == 2
    names = ("x", "y", "z")
    assert parse(doc["payload"]["result"], names) == CATALOG["quadric3.f1"]


def test_mutate_applies_each_step_once(tmp_path, capsys, monkeypatch):
    calls = []
    real_apply_step = mutation.apply_step

    def counting_apply_step(f, step):
        calls.append(step)
        return real_apply_step(f, step)

    monkeypatch.setattr(mutation, "apply_step", counting_apply_step)
    steps = [
        {"type": "cluster", "pivot": 1, "sign": -1, "factor": "x+1"},
        {"type": "toric", "A": [[1, 0, 0], [0, 1, 0], [1, 0, 1]]},
        {"type": "toric", "A": [[1, 0, 0], [0, 1, 0], [-1, 0, 1]]},
    ]
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(steps))
    code, doc = run_cli(["mutate", QUADRIC_F0, "--trace", str(trace)], capsys)
    assert code == 0
    assert len(doc["payload"]["intermediates"]) == len(steps) + 1
    assert len(calls) == len(steps)


def test_mutate_empty_trace_echoes_input(tmp_path, capsys):
    trace = tmp_path / "empty.json"
    trace.write_text("[]")
    code, doc = run_cli(["mutate", "x+y", "--trace", str(trace)], capsys)
    assert code == 0
    assert doc["payload"]["result"] == "x + y"


def test_mutate_failure_exits_3(tmp_path, capsys):
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps([{"type": "cluster", "pivot": 0, "sign": -1, "factor": "y+1"}]))
    code, doc = run_cli(["mutate", "x+y+1/(x*y)", "--trace", str(trace)], capsys)
    assert code == 3
    assert doc["status"] == "fail"
    assert any("step" in line for line in doc["diagnostics"])


@pytest.mark.parametrize(
    "trace",
    [
        {"a": 1},
        [1, 2],
        [{"type": "toric", "A": [[1, 0], [0, 1]], "scale": ["1/0", "1"]}],
        [{"type": "cluster", "sign": 1, "factor": "y"}],
        [{"type": "cluster", "pivot": "abc", "sign": 1, "factor": "y"}],
        [{"type": "toric", "shift": [0, 0]}],
    ],
)
def test_mutate_malformed_trace_is_invalid_change(tmp_path, capsys, trace):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(trace))
    code, doc = run_cli(["mutate", "x+y+1/(x*y)", "--trace", str(path)], capsys)
    assert code == 2
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "InvalidChange"


def test_iv_mutate_with_expected_polytope(tmp_path, capsys):
    data = {
        "polytope": {"dim": 2, "vertices": [[-1, 2], [1, 2], [0, -1]]},
        "r": [0, 1, 0],
        "s_matrix": [[1, 0, 0], [0, 1, 1]],
        "C1": [[-1, 1], [0, 1]],
        "C2": [["1/2", "1/2"]],
        "expected": {"dim": 2, "vertices": [[-1, 1], [0, 1], [1, -2]]},
    }
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(data))
    code, doc = run_cli(["iv-mutate", str(path)], capsys)
    assert code == 0
    assert doc["payload"]["polytope"]["vertices"] == [[-1, 1], [0, 1], [1, -2]]
    assert doc["payload"]["equivalent_to_expected"] is True
    assert "A" in doc["payload"]["equivalence"]


def test_iv_mutate_rejects_fractional_expected_polytope(tmp_path, capsys):
    # a half-integer translate of the true result is not lattice equivalent to it
    data = {
        "polytope": {"dim": 2, "vertices": [[-1, 2], [1, 2], [0, -1]]},
        "r": [0, 1, 0],
        "s_matrix": [[1, 0, 0], [0, 1, 1]],
        "C1": [[-1, 1], [0, 1]],
        "C2": [["1/2", "1/2"]],
        "expected": {"dim": 2, "vertices": [["-1/2", 1], ["1/2", 1], ["3/2", -2]]},
    }
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(data))
    code, doc = run_cli(["iv-mutate", str(path)], capsys)
    assert code == 2
    assert doc["payload"]["equivalent_to_expected"] is False
    assert "equivalence" not in doc["payload"]


def test_iv_mutate_without_expected(tmp_path, capsys):
    data = {
        "polytope": {"dim": 2, "vertices": [[-1, 2], [1, 2], [0, -1]]},
        "r": [0, 1, 0],
        "s_matrix": [[1, 0, 0], [0, 1, 1]],
        "C1": [[-1, 1], [0, 1]],
        "C2": [["1/2", "1/2"]],
    }
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(data))
    code, doc = run_cli(["iv-mutate", str(path)], capsys)
    assert code == 0
    assert "equivalent_to_expected" not in doc["payload"]


IV_114 = {
    "polytope": {"dim": 2, "vertices": [[-1, 2], [1, 2], [0, -1]]},
    "r": [0, 1, 0],
    "s_matrix": [[1, 0, 0], [0, 1, 1]],
    "C1": [[-1, 1], [0, 1]],
    "C2": [["1/2", "1/2"]],
}


@pytest.mark.parametrize(
    "data",
    [
        [1],
        {"polytope": [1]},
        dict(IV_114, polytope={"dim": 2, "vertices": 5}),
        dict(IV_114, r=5),
        dict(IV_114, polytope={"dim": 2, "vertices": [["a", 0]]}),
        dict(IV_114, C2=[["1/0", 1]]),
        {key: value for key, value in IV_114.items() if key != "s_matrix"},
    ],
)
def test_iv_mutate_malformed_data_is_shape_mismatch(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["iv-mutate", str(path)])
    out = capsys.readouterr().out
    doc = json.loads(out)  # exactly one JSON document
    assert code == 2
    assert doc["payload"]["error"] == "ShapeMismatch"


@pytest.mark.parametrize("field", ["C1", "C2", "polytope", "expected"])
@pytest.mark.parametrize("token", ["Infinity", "1e400"])
def test_iv_mutate_non_finite_numbers_are_shape_mismatch(tmp_path, capsys, field, token):
    # json reads both tokens as float infinity, which Fraction cannot hold
    data = dict(IV_114, expected={"dim": 2, "vertices": [[-1, 1], [0, 1], [1, -2]]})
    if field in ("C1", "C2"):
        data[field] = [[0, "NONFINITE"]]
    else:
        data[field] = {"dim": 2, "vertices": [[0, "NONFINITE"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace('"NONFINITE"', token))
    code = main(["iv-mutate", str(path)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # exactly one JSON document
    assert code == 2
    assert doc["payload"]["error"] == "ShapeMismatch"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv, data",
    [
        (["mutate", "x+y", "--trace"], [{"type": "cluster", "pivot": 1.9, "sign": 1, "factor": "x+1"}]),
        (["mutate", "x+y", "--trace"], [{"type": "cluster", "pivot": 1, "sign": -0.5, "factor": "x+1"}]),
        (["mutate", "x+y", "--trace"], [{"type": "toric", "A": [[1, 0.5], [0, 1]]}]),
        (["mutate", "x+y", "--trace"], [{"type": "toric", "A": [[1, 0], [0, 1]], "shift": [0, 2.5]}]),
        (["mutate", "x+y", "--trace"], [{"type": "toric", "A": [[1, float("inf")], [0, 1]]}]),
        (["mutate", "x+y", "--trace"], [{"type": "toric", "A": [[1, 0], [0, 1]], "scale": [float("inf"), 1]}]),
        (["verify-minkowski", "--poly", "x+1", "--presentation"], {"faces": [{"face": [[0.4], [1]], "summands": [[[0], [1]]]}]}),
        (["verify-minkowski", "--poly", "x+1", "--presentation"], {"faces": [{"face": [[0], [1]], "summands": [[[0], [1.7]]]}]}),
        (["verify-minkowski", "--poly", "x+1", "--presentation"], {"faces": [{"face": [[float("inf")]], "summands": []}]}),
        (["iv-mutate"], dict(IV_114, r=[0, 1.9, 0])),
        (["iv-mutate"], dict(IV_114, s_matrix=[[1, 0, 0], [0, 1, 0.5]])),
        (["iv-mutate"], dict(IV_114, r=[0, "1/2", 0])),
    ],
)
def test_non_integral_numbers_in_integer_fields_exit_2(tmp_path, capsys, argv, data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code = main(argv + [str(path)])
    doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 2
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] in ("InvalidChange", "ShapeMismatch")


def test_integral_floats_in_integer_fields_are_accepted(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"type": "toric", "A": [[1.0, 0], [0, 1]], "shift": [2.0, 0]}]))
    code, doc = run_cli(["mutate", "x+y", "--trace", str(trace)], capsys)
    assert code == 0
    assert doc["payload"]["result"] == "x^3 + x^2*y"
    data = tmp_path / "iv.json"
    data.write_text(json.dumps(dict(IV_114, r=[0, 1.0, 0])))
    assert run_cli(["iv-mutate", str(data)], capsys)[0] == 0


def test_verify_minkowski_full_presentation(capsys):
    code, doc = run_cli(["verify-minkowski", "--poly", QUADRIC_F0], capsys)
    assert code == 0
    assert doc["payload"]["ok"] is True
    assert doc["payload"]["partial"] is False
    assert all(status == "ok" for status in doc["payload"]["faces"].values())


def test_verify_minkowski_partial_requires_flag(capsys):
    code, doc = run_cli(["verify-minkowski", "--poly", CUBIC4_F00], capsys)
    assert code == 2
    assert doc["status"] == "partial"

    code, doc = run_cli(["verify-minkowski", "--poly", CUBIC4_F00, "--partial-ok"], capsys)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["partial"] is True
    assert any(entry["status"] == "skipped" for entry in doc["payload"]["report"])


def test_verify_minkowski_rejects_unit_coefficient_failure(capsys):
    code, doc = run_cli(["verify-minkowski", "--poly", "2*x+y+1/(x*y)"], capsys)
    assert code == 2
    assert doc["status"] == "fail"


def test_p2_chain_triples_and_invariants(capsys):
    code, doc = run_cli(["p2-chain", "--depth", "3"], capsys)
    assert code == 0
    steps = doc["payload"]["steps"]
    assert [s["triple"] for s in steps] == [[1, 1, 1], [1, 1, 2], [1, 2, 5], [1, 5, 13]]
    for step in steps[1:]:
        assert step["weights"] == [t * t for t in step["triple"]]
        assert step["weights_ok"] is True
        assert step["periods_equal"] is True


def test_catalog_single_example(capsys):
    code, doc = run_cli(["catalog", "quadric3"], capsys)
    assert code == 0
    entry = doc["payload"]["examples"]["quadric3"]
    assert entry["ok"] is True
    assert all(check["ok"] for check in entry["checks"])


def test_catalog_all_examples(capsys):
    code, doc = run_cli(["catalog", "--all"], capsys)
    assert code == 0
    assert doc["payload"]["ok"] is True
    assert set(doc["payload"]["examples"]) == {
        "p2",
        "quadric3",
        "cubic3",
        "cubic4",
        "p3",
        "p112",
        "p114",
    }
    for entry in doc["payload"]["examples"].values():
        assert entry["ok"] is True


# sha256 of stdout, pinned from a run of the all-Fraction coefficient code:
# int coefficients must leave every byte of these documents as it was
GOLDEN_STDOUT = [
    (["catalog", "--all"], "93f40f3dec53a6911bd898cb5b539045948569bf7c98c4a3be0076ce393864cd"),
    (["p2-chain", "--depth", "6"], "afa6849153994ff0f3769e1abcffaa4face15414b9e8ce6683b82f1b51bb711f"),
    (["markov", "--depth", "6"], "9acea5d5769811e20953117d12e3f8ed975b428a75f306eb6e3d034d38dff806"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_stdout_matches_the_pinned_digest(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["period"],
        ["catalog"],
        ["catalog", "nosuch"],
        ["mutate", "x+y"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == 1


def test_parse_error_reports_position(capsys):
    code, doc = run_cli(["period", "x+&y"], capsys)
    assert code == 2
    assert doc["status"] == "fail"
    assert any("position" in line or "&" in line for line in doc["diagnostics"])


def test_deeply_nested_parentheses_are_a_parse_error(capsys):
    depth = 3000
    code, doc = run_cli(["period", "(" * depth + "x" + ")" * depth], capsys)
    assert code == 2
    assert doc["payload"]["error"] == "ParseError"
    assert "position 100" in doc["payload"]["message"]


def test_large_power_hits_the_product_cap(capsys):
    start = time.perf_counter()
    code, doc = run_cli(["period", "(x+y+1)^400", "--n", "2"], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"


@pytest.mark.parametrize("argv", [["newton", "3^999999999*x+1"], ["period", "3^10000*x+1/x", "--n", "2"]])
def test_large_coefficient_power_hits_the_power_cap(argv, capsys):
    start = time.perf_counter()
    code, doc = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"


# the origin is interior; t's two terms are the apexes of a bipyramid over
# the 6-simplex, the only vertices of degree 7, so the equivalence scan
# tries 2 * 7! frame tuples; the second is the first under t -> t*x
SEVEN_VARIABLES = "t + 1/t + x + y + z + u + v + w + 1/(x*y*z*u*v*w)"
SEVEN_VARIABLES_SHEARED = "t*x + 1/(t*x) + x + y + z + u + v + w + 1/(x*y*z*u*v*w)"


def test_seven_variables_build_hulls(capsys):
    code, doc = run_cli(["newton", SEVEN_VARIABLES], capsys)
    assert code == 0
    assert doc["payload"]["dim_affine"] == 7
    assert len(doc["payload"]["polytope"]["vertices"]) == 9
    code, doc = run_cli(["period", SEVEN_VARIABLES, "--n", "4"], capsys)
    assert code == 0
    # a_2 pairs t with 1/t; a_4 adds (t, 1/t) twice: 4! / (2! 2!)
    assert doc["payload"]["values"] == ["1", "0", "2", "0", "6"]
    code, doc = run_cli(["equiv", SEVEN_VARIABLES, SEVEN_VARIABLES_SHEARED], capsys)
    assert code == 0
    witness = mutation.steps_from_json([doc["payload"]["witness"]], tuple("txyzuvw"))[0]
    f, g = parse(SEVEN_VARIABLES), parse(SEVEN_VARIABLES_SHEARED, tuple("txyzuvw"))
    assert mutation.apply_toric(f, witness) == g


def test_seven_variable_scan_over_the_work_cap_exits_4(capsys):
    # 8 starts * 7! tuples * 7^3 = 13.8 M units, over EQUIVALENCE_WORK_CAP
    start = time.perf_counter()
    code, doc = run_cli(
        ["equiv", "x+y+z+u+v+w+t+1/(x*y*z*u*v*w*t)", "x+y+z+u+v+w+t+2/(x*y*z*u*v*w*t)"], capsys
    )
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"


def test_hull_over_the_work_cap_exits_4(capsys):
    # 200 variables: the first simplex alone charges 201 * 200^3 units
    code, doc = run_cli(["hori-vafa", "--N", "200"], capsys)
    assert code == 0
    start = time.perf_counter()
    code, doc = run_cli(["period", doc["payload"]["polynomial"], "--n", "2"], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"


# 1,000 variables: a simplex, whose ambient eliminations alone charge
# 1000 * (1001 * 1000 + 1000) hull units, and a segment, whose hull is cheap
# but whose equivalence scan weighs 1000^3 per frame tuple
PRODUCT_1000 = "*".join("x%d" % i for i in range(1000))
SIMPLEX_1000 = PRODUCT_1000.replace("*", "+") + "+1/(" + PRODUCT_1000 + ")"


@pytest.mark.parametrize(
    "argv",
    [
        ["newton", SIMPLEX_1000],
        ["period", SIMPLEX_1000, "--n", "2"],
        ["equiv", PRODUCT_1000 + "+1", PRODUCT_1000 + "+2"],
        # equal inputs: the identity change is 1000 x 1000, checked in 1000^3
        ["equiv", PRODUCT_1000 + "+1", PRODUCT_1000 + "+1"],
    ],
)
def test_thousand_variable_inputs_exit_4_at_once(argv, capsys):
    start = time.perf_counter()
    code, doc = run_cli(argv, capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"


def test_thousand_variable_cosection_exits_4_at_once(tmp_path, capsys):
    # the retraction check is (n + 1)^3 work, refused before it is done
    n = 1000
    data = {
        "polytope": {"dim": n, "vertices": [[0] * n, [1] * n]},
        "r": [1, 1] + [0] * (n - 1),
        "s_matrix": [[1] + [0] * n] + [[0, 0] + [int(k == i) for k in range(n - 1)] for i in range(n - 1)],
        "C1": [[0] * n],
        "C2": [[0] * n],
    }
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, doc = run_cli(["iv-mutate", str(path)], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert "retraction" in doc["payload"]["message"]


CROSS_4 = "w + 1/w + x + 1/x + y + 1/y + z + 1/z"
CROSS_5 = "v + 1/v + " + CROSS_4


@pytest.mark.parametrize("f, code", [(CROSS_4, 0), (CROSS_5, 4)])
def test_cross_polytope_model_against_a_sheared_copy(f, code, capsys):
    # 2 * 4 starts * P(6, 4) tuples * 4^3 = 184,320 units fit the
    # equivalence cap; 10 starts * P(8, 5) * 5^3 = 8.4 M do not (the parent
    # cap of 100,000 tuples in every dimension let those 67,200 pass)
    sheared = f.replace("w + 1/w", "w*x + 1/(w*x)")
    got, doc = run_cli(["equiv", f, sheared], capsys)
    assert got == code
    if code == 4:
        assert doc["payload"]["error"] == "ComplexityLimit"


def test_deep_period_over_the_run_budget_exits_4(capsys):
    # depth 30 needs 1.45 M units of PERIOD_WORK_CAP; the kept support grows
    # like N^4, so depth 50 passes the cap after a few seconds at most
    start = time.perf_counter()
    code, doc = run_cli(["period", CROSS_4, "--n", "50"], capsys)
    assert time.perf_counter() - start < 10.0
    assert code == 4
    assert "term pairs and term-cut tests" in doc["payload"]["message"]


def test_parse_over_the_exponent_slot_cap_exits_4(capsys):
    # 20,000 variables times 20,000 terms, refused before any tuple is built
    start = time.perf_counter()
    code, doc = run_cli(["newton", "+".join("x%d" % i for i in range(20000))], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 4
    assert "exponent slots" in doc["payload"]["message"]


@pytest.mark.parametrize("n", [7, 8])
def test_iv_mutate_on_cross_polytopes_past_six_dimensions(n, tmp_path, capsys):
    # slicing by r = e_1 + e_2: both slices are unit segments
    data = {
        "polytope": {"dim": n, "vertices": [[s * int(k == i) for k in range(n)] for i in range(n) for s in (1, -1)]},
        "r": [1, 1] + [0] * (n - 1),
        "s_matrix": [[1] + [0] * n] + [[0, 0] + [int(k == i) for k in range(n - 1)] for i in range(n - 1)],
        "C1": [[0] * (n - 1) + [1], [1] + [0] * (n - 2) + [1]],
        "C2": [[0] * (n - 1) + [1]],
    }
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, doc = run_cli(["iv-mutate", str(path)], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert doc["payload"]["polytope"]["dim"] == n


@pytest.mark.parametrize(
    "argv", [["newton", "x^" + "9" * 4300 + "*x^" + "9" * 4300], ["period", "3^5000*3^5000*x+1/x", "--n", "2"]]
)
def test_unprintable_result_is_one_error_line(argv, capsys):
    # each literal prints, but the exponent sum and coefficient product have
    # more digits than int-to-text conversion allows
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_float_shadow_of_a_value_past_float_range_is_null(capsys):
    code, doc = run_cli(["period", "10^400*x+1/x", "--n", "2", "--float"], capsys)
    assert code == 0
    assert doc["payload"]["approx"]["values"] == [1.0, 0.0, None]


def _quick(text):
    # "-" reads stdin, and two adjacent digits may ask for a slow product
    return text != "-" and re.search(r"\d\d", text) is None


# the parser's alphabet, other letters and digits (some that int() cannot
# read), and decimal literals around the 4,300 digits int() reads
FUZZ_EXPRESSIONS = st.one_of(
    st.text(alphabet="xyz_0123456789+-*/^() ", max_size=24).filter(_quick),
    st.text(alphabet=st.characters(categories=("L", "N", "P", "S", "Zs")), max_size=12).filter(_quick),
    st.tuples(st.sampled_from(["", "x^", "x^-", "x*", "(x+1)^"]), st.integers(4290, 4310)).map(lambda t: t[0] + "9" * t[1]),
)


@settings(max_examples=300, deadline=None)
@given(FUZZ_EXPRESSIONS)
def test_newton_fuzz_ends_in_a_documented_exit_code(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["newton", "--", text])
    assert code in (0, 2, 3, 4), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue())


def test_long_edge_hits_the_factor_combination_cap(capsys):
    start = time.perf_counter()
    code, doc = run_cli(["verify-minkowski", "--poly", "(1+x)^15"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert doc["payload"]["error"] == "ComplexityLimit"
    code, doc = run_cli(["verify-minkowski", "--poly", "(1+x)^14"], capsys)
    assert code == 0
    assert doc["payload"]["ok"] is True


# (argv, whether stdout is a closed pipe); the options and errors come
# before plain calls that must not inherit anything from them
PARSER_REUSE_CALLS = [
    (["--emit", "text", "markov", "--depth", "2"], False),
    (["period", "x+y+1/(x*y)", "--n", "3", "--float"], False),
    (["period", "--n", "3"], False),
    (["--help"], True),
    (["markov", "--depth", "2"], False),
    (["period", "x+y+1/(x*y)", "--n", "3"], False),
    (["verify-minkowski", "--poly", "(1+x)*(1+x+y)"], False),
]


def _call(argv, closed, capsys, monkeypatch):
    if not closed:
        code = main(argv)
        return (code,) + tuple(capsys.readouterr())
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stream:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            code = main(argv)
    return (code,) + tuple(capsys.readouterr())


def test_one_parser_serves_every_call(capsys, monkeypatch):
    build_parser.cache_clear()
    reused = [_call(argv, closed, capsys, monkeypatch) for argv, closed in PARSER_REUSE_CALLS]
    assert build_parser.cache_info().hits == len(PARSER_REUSE_CALLS) - 1
    for (argv, closed), got in zip(PARSER_REUSE_CALLS, reused):
        build_parser.cache_clear()
        assert got == _call(argv, closed, capsys, monkeypatch), argv
    assert reused[2][0] == 1 and reused[2][2].startswith("usage: ")
    assert reused[3][0] == 1 and reused[3][2].startswith("error: ")
    assert json.loads(reused[5][1])["payload"] == {"n": 3, "values": ["1", "0", "0", "6"]}


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["markov", "--depth", "3"], ["catalog", "--all"], ["--help"], ["equiv", "--help"]])
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toriclg.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ")


def test_benchmark_self_test_passes():
    # the benchmark imports library names; a deleted one would crash its worker
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
