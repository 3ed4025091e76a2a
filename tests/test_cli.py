import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from toricctl import cli, reference
from toricctl.cli import main
from toricctl.cones import fan_to_json, load_fan, make_fan
from toricctl.varieties import build_wps_fan

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
GOLDEN = Path(__file__).parent / "data" / "golden"
FANS = Path(__file__).parent / "data" / "fans"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fan(tmp_path, fan, name="fan.json"):
    path = tmp_path / name
    path.write_text(fan_to_json(fan))
    return str(path)


# -- check-fan -----------------------------------------------------------------


def test_check_fan_valid(tmp_path, capsys):
    path = write_fan(tmp_path, build_wps_fan(1, 1, 2, 3))
    code, out, _ = run(capsys, "check-fan", path)
    assert code == 0
    assert "1/3(1,1,2)" in out and "terminal" in out


def test_check_fan_json(tmp_path, capsys):
    path = write_fan(tmp_path, build_wps_fan(1, 1, 2, 3))
    code, out, _ = run(capsys, "check-fan", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["report"]["valid"] is True
    assert payload["report"]["class_rank"] == 1


def test_check_fan_missing_file(capsys):
    code, _, err = run(capsys, "check-fan", "/nonexistent/fan.json")
    assert code == 2
    assert "error" in err


def test_check_fan_bad_dim(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "dim": 2, "rays": [[1,0,0]], "cones": []}')
    code, _, err = run(capsys, "check-fan", str(path))
    assert code == 2
    assert "dim" in err


def test_check_fan_non_integer_entry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "dim": 3, "rays": [[1, 0, 0.5]], "cones": []}')
    code, _, err = run(capsys, "check-fan", str(path))
    assert code == 2


def _fan_doc(fields: str) -> bytes:
    return ('{"name": "x", ' + fields + "}").encode()


@pytest.mark.parametrize(
    "content, expected",
    [
        (_fan_doc('"dim": 3, "rays": 5, "cones": []'), "'rays' must be a list"),
        (_fan_doc('"dim": 3, "rays": [], "cones": null'), "'cones' must be a list"),
        (_fan_doc('"dim": 3, "rays": {"a": 1}, "cones": []'), "'rays' must be a list"),
        (_fan_doc('"dim": 3, "rays": "abc", "cones": []'), "'rays' must be a list"),
        (_fan_doc('"dim": 3.0, "rays": [], "cones": []'), "'dim' must be the integer 3"),
        (_fan_doc('"dim": true, "rays": [], "cones": []'), "'dim' must be the integer 3"),
        (_fan_doc('"dim": 3, "rays": [], "cones": []').decode().encode("utf-16"), "not UTF-8"),
        (b"[" * 100_000, "nested too deeply"),
        (_fan_doc('"dim": 3, "rays": [[' + "1" * 5000 + ", 0, 0]]"), "invalid JSON"),
    ],
    ids=[
        "rays-number",
        "cones-null",
        "rays-object",
        "rays-string",
        "dim-float",
        "dim-bool",
        "utf16-bom",
        "deep-nesting",
        "huge-integer",
    ],
)
def test_check_fan_wrong_types(tmp_path, capsys, content, expected):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check-fan", str(path))
    assert code == 2
    assert out == ""
    assert expected in err and "Traceback" not in err


# Small integers only, so that no fan has a large group order.
_INT = st.integers(-6, 7)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_TRIPLE = st.lists(_INT, min_size=3, max_size=3)
_FAN_DOC = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4),
        "dim": st.just(3),
        "rays": st.lists(_TRIPLE, max_size=6),
        "cones": st.lists(st.lists(st.integers(-1, 6), min_size=3, max_size=3), max_size=6),
    }
)
_JUNK_FAN_DOC = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4) | _JSON,
        "dim": st.just(3) | _JSON,
        "rays": st.lists(_TRIPLE | _JSON, max_size=6) | _JSON,
        "cones": st.lists(_TRIPLE | _JSON, max_size=6) | _JSON,
    }
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_JSON | _FAN_DOC | _JUNK_FAN_DOC)
def test_check_fan_survives_arbitrary_json(tmp_path, capsys, document):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check-fan", str(path), "--format", fmt)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if fmt == "json" and code != 2:
            assert json.loads(out)["command"] == "check-fan"


def test_check_fan_empty_fan_is_the_trivial_fan(tmp_path, capsys):
    path = write_fan(tmp_path, make_fan("empty", [], []))
    code, out, _ = run(capsys, "check-fan", path, "--format", "json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["valid"] is True and report["violations"] == []
    assert report["complete"] is False and report["class_rank"] is None
    assert report["rays"] == 0 and report["cones"] == []


def test_check_fan_overlapping_cones(tmp_path, capsys):
    fan = make_fan(
        "overlap",
        [E1, E2, E3, (1, 1, 1), (-1, 0, 0)],
        [(0, 1, 2), (3, 1, 4)],
    )
    path = write_fan(tmp_path, fan)
    code, out, _ = run(capsys, "check-fan", str(path))
    assert code == 1
    assert "common face" in out


def test_check_fan_non_cyclic_cone(tmp_path, capsys):
    # Z^3 modulo the rays (1,0,0), (1,2,0), (1,0,2) is Z/2 x Z/2: no cyclic
    # type, so terminality is left open and the fan is not all terminal
    path = write_fan(tmp_path, make_fan("noncyclic", [E1, (1, 2, 0), (1, 0, 2)], [(0, 1, 2)]))
    code, out, _ = run(capsys, "check-fan", path, "--format", "json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["valid"] is True and report["all_terminal"] is False
    (cone,) = report["cones"]
    assert cone == {"rays": [0, 1, 2], "multiplicity": 4, "type": "noncyclic(2,2)", "terminal": None}
    code, out, _ = run(capsys, "check-fan", path)
    assert code == 0
    assert "  cone (0, 1, 2): mult 4, type noncyclic(2,2), terminal unknown\n" in out


# -- wps ------------------------------------------------------------------------


def test_wps_p1123_text(capsys):
    code, out, _ = run(capsys, "wps", "1,1,2,3")
    assert code == 0
    assert "4 rays" in out and "4 maximal cones" in out
    assert "1/3(1,1,2)" in out and "1/2(1,1,1)" in out
    assert "class group rank (rho over Q): 1" in out


def test_wps_bad_weights(capsys):
    assert run(capsys, "wps", "1,2,2,2")[0] == 2
    assert run(capsys, "wps", "1,1,2")[0] == 2
    assert run(capsys, "wps", "0,1,1,1")[0] == 2
    assert run(capsys, "wps", "a,b,c,d")[0] == 2


def test_wps_emit_fan(tmp_path, capsys):
    out_path = tmp_path / "p1123.json"
    code, _, _ = run(capsys, "wps", "1,1,2,3", "--emit-fan", str(out_path))
    assert code == 0
    assert load_fan(out_path) == build_wps_fan(1, 1, 2, 3)


@pytest.mark.parametrize(
    "weights, big_type",
    [
        ("1,1,1,1000000007", "1/1000000007(1,1,1)"),
        ("2,3,5,1000000007", "1/1000000007(1,200000002,800000006)"),
    ],
)
def test_wps_huge_weight_is_fast(capsys, weights, big_type):
    # a user-supplied weight of order 10^9 must not drive loops of that length
    start = time.perf_counter()
    code, out, _ = run(capsys, "wps", weights, "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    cones = json.loads(out)["report"]["cones"]
    assert [c["type"] for c in cones if c["multiplicity"] == 1000000007] == [big_type]
    assert elapsed < 1.0


def _best_of_three(capsys, *argv):
    """Exit code, stdout and the least wall time of three runs of the CLI."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        best = min(best, time.perf_counter() - start)
    return code, out, best


def test_check_fan_cone_of_type_one_over_pqs_is_fast(tmp_path, capsys):
    # type 1/(pqs)(p, q, s) with p, q, s = 1000003, 1000033, 1000037: the
    # least gcd(a, r) is p, and normalize_type must not scan p candidates;
    # the best of three calls absorbs a slow host
    path = tmp_path / "pqs.json"
    rays = [[1000070001221, -1000033, 66669], [0, 1000003, -66668], [0, 0, 1]]
    path.write_text(json.dumps({"name": "pqs", "dim": 3, "rays": rays, "cones": [[0, 1, 2]]}))
    code, out, best = _best_of_three(capsys, "check-fan", str(path), "--format", "json")
    assert code == 0
    cones = json.loads(out)["report"]["cones"]
    assert [c["type"] for c in cones] == ["1/1000073001431003663(1000003,1000033,1000037)"]
    assert best < 0.05


def test_wps_chart_of_type_one_over_pqs_is_fast(capsys):
    # the chart of the weight pqs has type 1/(pqs)(p, q, s)
    p, q, s = 100003, 100019, 100043
    code, out, best = _best_of_three(capsys, "wps", f"{p},{q},{s},{p * q * s}", "--format", "json")
    assert code == 0
    cones = json.loads(out)["report"]["cones"]
    assert f"1/{p * q * s}({p},{q},{s})" in [c["type"] for c in cones]
    assert best < 0.05


# -- classify-case1 ----------------------------------------------------------------


def test_classify_case1_cli(capsys):
    code, out, _ = run(capsys, "classify-case1", "--bound", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [{"n": 3, "m": 2, "mu": 1, "nu": 2}]
    record = payload["records"][0]
    assert record["equivalent_to"] == "P(1,1,2,3)"
    assert record["ok"] is True


def test_classify_case1_trivial_bound(capsys):
    code, out, _ = run(capsys, "classify-case1", "--bound", "2")
    assert code == 0
    assert "0" in out


def test_classify_case1_huge_bound_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify-case1", "--bound", "100000000000", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["solutions"] == [{"n": 3, "m": 2, "mu": 1, "nu": 2}]
    assert elapsed < 1.0


def test_classify_case1_bad_bound(capsys):
    assert run(capsys, "classify-case1", "--bound", "0")[0] == 2
    assert run(capsys, "classify-case1", "--bound", "1")[0] == 2


# -- verify-sl2 ---------------------------------------------------------------------


def test_verify_sl2_default(capsys):
    code, out, _ = run(capsys, "verify-sl2")
    assert code == 0
    assert "6/6 generators vanish" in out
    assert "images invariant under (x,y,z) -> (-x,-y,-z): yes" in out


def test_verify_sl2_subset_and_samples(capsys):
    code, out, _ = run(capsys, "verify-sl2", "--generators", "1")
    assert code == 0
    assert "1/1 generators vanish" in out
    code, out, _ = run(capsys, "verify-sl2", "--sample-points", "500", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["samples"] == 500
    assert payload["all_ok"] is True


def test_verify_sl2_bad_options(capsys):
    assert run(capsys, "verify-sl2", "--generators", "9")[0] == 2
    assert run(capsys, "verify-sl2", "--sample-points", "-1")[0] == 2
    assert run(capsys, "verify-sl2", "--sample-points", "100001")[0] == 2


def test_verify_sl2_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("TORICCTL_SEED", "12345")
    code, out, _ = run(capsys, "verify-sl2", "--format", "json")
    assert code == 0
    assert json.loads(out)["verification"]["seed"] == 12345


def test_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("TORICCTL_SEED", "not-a-number")
    assert run(capsys, "verify-sl2")[0] == 2


# -- reproduce-paper ------------------------------------------------------------------


def test_reproduce_paper_passes(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    assert "8/8 reference checks passed" in out
    assert "FAIL" not in out


def test_reproduce_paper_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce-paper", "--format", "json")
    code2, out2, _ = run(capsys, "reproduce-paper", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["report"]["all_passed"] is True


# check-fan goldens: each fan file's name, and whether the fan is valid (exit 0)
CHECK_FAN_GOLDENS = (
    ("stellar", 0),  # complete, with singular cones
    ("stellar-minus-cone0", 0),  # valid, not complete
    ("stellar-overlap", 1),  # a cone inside cone 0
    ("noncyclic", 0),
    ("clockwise", 0),  # the stellar fan with every cone's det < 0
    ("degenerate", 1),
)


def _golden_id(argv) -> str:
    if argv[0] == "check-fan":
        return "check-fan-" + Path(argv[1]).stem
    return "-".join(argv)


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        pytest.param(argv, code, id=_golden_id(argv))
        for argv, code in [(("reproduce-paper",), 0), (("verify-sl2",), 0)]
        + [
            (("wps", w), 0)
            for w in ("1,1,1,1", "1,1,1,2", "1,1,2,3", "1,2,3,5", "1,3,4,5", "2,3,5,7", "3,4,5,7")
        ]
        + [(("check-fan", str(FANS / f"{name}.json")), code) for name, code in CHECK_FAN_GOLDENS]
    ],
)
def test_json_output_matches_golden(monkeypatch, capsys, argv, expected_code):
    monkeypatch.delenv("TORICCTL_SEED", raising=False)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == expected_code
    assert out.encode() == (GOLDEN / (_golden_id(argv) + ".json")).read_bytes()


def test_reproduce_paper_names_corrupted_check(monkeypatch, capsys):
    corrupted = dict(reference.EXPECTED["standard_cone_types"])
    corrupted[3] = "1/3(1,2,2)"
    monkeypatch.setitem(reference.EXPECTED, "standard_cone_types", corrupted)
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 1
    assert "FAIL" in out
    assert "first failing check: standard_cone_types" in out


# -- usage ----------------------------------------------------------------------------


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("build_parser called after import")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    codes = [main([]), main(["wps", "1,2"])]
    capsys.readouterr()
    first = run(capsys, "wps", "1,1,2,3", "--format", "json")
    second = run(capsys, "wps", "1,1,2,3", "--format", "json")
    assert codes + [first[0], second[0]] == [2, 2, 0, 0]
    assert first[1] == second[1]


def test_all_json_payloads_have_schema(tmp_path, capsys):
    path = write_fan(tmp_path, build_wps_fan(1, 1, 1, 1))
    for argv in (
        ["check-fan", path, "--format", "json"],
        ["wps", "1,1,1,2", "--format", "json"],
        ["classify-case1", "--bound", "5", "--format", "json"],
        ["verify-sl2", "--format", "json"],
        ["reproduce-paper", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["schema"] == 1
