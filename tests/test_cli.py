"""Command line front end: subcommands, formats, exit codes."""

import csv
import io
import json

import pytest

from coframes import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0
    assert "contact5" in out and "symplectic4" in out
    assert "bgg ambient basic" in out


def test_list_json_is_sorted(capsys):
    code, out, err = run(capsys, "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [r["geometry"] for r in payload["geometries"]]
    assert "elliptic7" in names
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_page_level1_engel(capsys):
    code, out, err = run(capsys, "page", "engel4", "--level", "1",
                         "--format", "json")
    assert code == 0
    cells = {(c["p"], c["q"]): c["dim"]
             for c in json.loads(out)["cells"] if c["dim"]}
    assert cells == {(0, 0): 1, (1, 0): 2, (2, 1): 1,
                     (2, 2): 1, (3, 3): 2, (4, 3): 1}


def test_page_csv_has_header(capsys):
    code, out, err = run(capsys, "page", "contact5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "dim", "label"]
    assert len(rows) > 5


def test_page_unknown_geometry_exits_2(capsys):
    code, out, err = run(capsys, "page", "nope")
    assert code == 2
    assert "unknown geometry" in err


def test_report_bgg(capsys):
    code, out, err = run(capsys, "report", "g2_5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 3, 3, 2, 1]
    assert payload["orders"] == [1, 3, 2, 3, 1]
    assert payload["checks"]["palindrome"]


def test_report_basic_complex(capsys):
    code, out, err = run(capsys, "report", "g2_5", "--complex", "basic",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 6, 9, 5, 1]
    assert payload["ok"]


def test_report_unknown_complex_exits_2(capsys):
    code, out, err = run(capsys, "report", "engel4", "--complex", "rs")
    assert code == 2


def test_verify_engel_passes(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--degree", "2",
                         "--samples", "4")
    assert code == 0
    assert "result: PASS" in out
    assert "FAIL" not in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "engel4", "--degree", "2", "--samples", "4",
            "--seed", "9", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    ids = [c["id"] for c in payload["checks"]]
    assert "structure" in ids and "exactness[bgg]" in ids


def test_verify_skip_flag(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--degree", "2",
                         "--samples", "4", "--skip", "exactness",
                         "--format", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert not any(i.startswith("exactness") for i in ids)


def test_verify_unknown_skip_exits_2(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--skip", "bogus")
    assert code == 2
    assert out == ""
    assert "unknown check id bogus" in err
    for cid in cli.CHECK_IDS:
        assert cid in err


@pytest.mark.parametrize("var,flag", [("COFRAMES_SEED", "--seed"),
                                      ("COFRAMES_DEGREE", "--degree")])
def test_bad_environment_default_exits_2(monkeypatch, capsys, var, flag):
    monkeypatch.setenv(var, "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "engel4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: invalid int value: 'abc'" % flag in err


def test_environment_defaults(monkeypatch, capsys):
    monkeypatch.delenv("COFRAMES_SEED", raising=False)
    monkeypatch.delenv("COFRAMES_DEGREE", raising=False)
    args = cli._build_parser().parse_args(["verify", "engel4"])
    assert (args.seed, args.degree) == (7, 3)
    monkeypatch.setenv("COFRAMES_SEED", "11")
    assert cli._build_parser().parse_args(["list"]).seed == 11


def test_verify_symplectic_rs(capsys):
    code, out, err = run(capsys, "verify", "symplectic4", "--degree", "2",
                         "--samples", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    exact = [c for c in payload["checks"]
             if c["id"] == "exactness[rs]"][0]
    assert exact["ok"]
    assert exact["detail"].startswith("homology 1 1 0")


def test_apply_constant_gives_zero(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4,
                       "terms": [{"exps": [0, 0, 0, 0],
                                  "num": "1", "den": "1"}]}]}
    path = tmp_path / "const1.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "dH",
                         "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert all(not t["terms"] for t in payload["coeffs"])
    assert payload["cell"] == 1


def test_apply_writes_output_file(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4,
                       "terms": [{"exps": [0, 0, 1, 0],
                                  "num": "2", "den": "1"}]}]}
    src = tmp_path / "in.json"
    src.write_text(json.dumps(sec))
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(src), "--output", str(dst))
    assert code == 0
    payload = json.loads(dst.read_text())
    assert any(t["terms"] for t in payload["coeffs"])


def test_apply_unwritable_output_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4, "terms": []}]}
    src = tmp_path / "in.json"
    src.write_text(json.dumps(sec))
    dst = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(src), "--output", str(dst))
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert not dst.exists()


def test_apply_wrong_component_count_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 1,
           "coeffs": [{"nvars": 4, "terms": []}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "P",
                         "--input", str(path))
    assert code == 2
    assert "components" in err


@pytest.mark.parametrize("nvars,exps", [(5, [0, 0, 0, 1, 7]),
                                         (3, [0, 1, 0])])
def test_apply_wrong_nvars_exits_2(tmp_path, capsys, nvars, exps):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": nvars,
                       "terms": [{"exps": exps, "num": "1", "den": "1"}]}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "variables" in err


@pytest.mark.parametrize("blob", [
    [],
    {"model": "engel4", "cell": 0,
     "coeffs": [{"nvars": 4, "terms": [{"exps": [0, 0, 1, 0],
                                         "num": "1", "den": "0"}]}]}])
def test_apply_malformed_section_exits_2(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(path))
    assert code == 2
    assert "cannot read section" in err


def test_apply_unknown_operator_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4, "terms": []}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "Q",
                         "--input", str(path))
    assert code == 2


def test_classify7_builtins(capsys):
    code, out, err = run(capsys, "classify7", "--model", "elliptic7",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "elliptic"
    code, out, err = run(capsys, "classify7", "--model", "hyperbolic7",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


def test_classify7_model_file(tmp_path, capsys):
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("hyperbolic7"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path),
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


def _break_first_entry(blob):
    blob["coframe"][0][0] = "x"


def _zero_denominator(blob):
    blob["coframe"][0][0]["terms"][0]["den"] = 0


def _drop_rows(blob):
    del blob["coframe"][3:]


@pytest.mark.parametrize("mutate", [_break_first_entry, _zero_denominator,
                                    _drop_rows],
                         ids=["string-entry", "zero-den", "three-rows"])
def test_classify7_malformed_model_exits_2(tmp_path, capsys, mutate):
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("elliptic7"))
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path))
    assert code == 2
    assert "cannot read model file" in err


def test_classify7_non_seven_variable_model_exits_2(tmp_path, capsys):
    from coframes.models import builtin_model, model_to_json
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(builtin_model("contact5"))))
    code, out, err = run(capsys, "classify7", "--model", str(path))
    assert code == 2
    assert "1 depth-2 and 4 horizontal" in err
    assert "Traceback" not in err


def test_classify7_bad_input_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "classify7", "--model", "contact99")
    assert code == 2
