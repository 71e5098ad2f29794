import json
import sys

import pytest

from gsalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def rel_yx(tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("y*x\n")
    return str(f)


@pytest.fixture
def comm2(tmp_path):
    f = tmp_path / "comm2.txt"
    f.write_text("x*y - y*x\nx*x\ny*y\n")
    return str(f)


@pytest.fixture
def profile_r3(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"d": 2, "degree_counts": {"3": 1}}))
    return str(f)


def test_hilbert_single_relation(capsys, rel_yx):
    code, data = run_json(capsys, "hilbert", "--gens", "2", "--relations", rel_yx,
                          "--max-degree", "12", "--json")
    assert code == 0
    assert data["schema"] == "gsalg/1"
    assert data["command"] == "hilbert"
    assert data["ok"] is True
    rep = data["report"]
    assert rep["series"] == list(range(2, 14))
    assert rep["a0"] == 1
    assert rep["gs"]["ok"] is True
    assert rep["min_series"] == list(range(2, 14))
    assert rep["attains_min"] is True
    assert "config" in data and "seed" in data


def test_hilbert_free_algebra(capsys):
    code, data = run_json(capsys, "hilbert", "--max-degree", "6", "--json")
    assert code == 0
    assert data["report"]["series"] == [2, 4, 8, 16, 32, 64]


def test_certify_profile_witness(capsys, profile_r3):
    code, data = run_json(capsys, "certify", "--profile", profile_r3,
                          "--partial-degree", "3", "--json")
    assert code == 0
    rep = data["report"]
    assert rep["certified"] is True
    assert rep["witness"] == "4/5"
    assert rep["value"] == "-11/125"
    assert rep["points_checked"] == 4


def test_certify_without_witness_exits_one(capsys, tmp_path):
    f = tmp_path / "p2.json"
    f.write_text(json.dumps({"d": 2, "degree_counts": {"2": 1}}))
    code, data = run_json(capsys, "certify", "--profile", str(f), "--json")
    assert code == 1
    assert data["ok"] is False
    assert data["report"]["certified"] is False
    assert "inconclusive" in data["report"]["note"]


def test_certify_from_relation_file(capsys, rel_yx):
    code, data = run_json(capsys, "certify", "--relations", rel_yx, "--json")
    assert code == 1      # one quadratic relation has no witness


def test_quotient_commutative_pair(capsys, comm2):
    code, data = run_json(capsys, "quotient", "--gens", "2", "--relations", comm2,
                          "--precision", "8", "--json")
    assert code == 0
    rep = data["report"]
    assert rep["findim"]["k"] == 3
    assert rep["findim"]["total_dim"] == 4
    assert rep["commutativity"]["commutative_at_precision"] is True
    assert rep["threshold"]["construction_size"] == 3


def test_quotient_infinite_case(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("x*y - y*x\n")
    code, data = run_json(capsys, "quotient", "--relations", str(f), "--json")
    assert code == 0
    assert data["report"]["findim"] == {"certified": False}


def test_ladder_report(capsys):
    code, data = run_json(capsys, "ladder", "--top", "3", "--strategy", "lex-greedy",
                          "--e-max-degree", "5", "--witness", "2", "--json")
    assert code == 0
    rep = data["report"]
    assert all(rep["verify"].values())
    degrees = [e["k"] for e in rep["e_pipeline"]]
    assert degrees == [1, 2, 3, 4, 5]
    assert all(e["cover_bound"]["ok"] for e in rep["e_pipeline"])
    assert rep["witness"]["independent"] is True


@pytest.mark.parametrize("argv, degrees", [
    (["--top", "1"], []),
    (["--top", "2"], [1, 2]),
    (["--top", "3", "--e-max-degree", "7"], [1, 2, 3, 4, 5, 6]),
    (["--top", "4", "--e-max-degree", "7"], [1, 2, 3, 4, 5, 6]),
])
def test_ladder_skips_degrees_whose_e_spaces_are_out_of_reach(capsys, argv, degrees):
    # e_sets_consistent needs E(k + 1) as well as E(k)
    code, data = run_json(capsys, "ladder", *argv, "--json")
    assert code == 0
    assert [e["k"] for e in data["report"]["e_pipeline"]] == degrees


def test_schedule_from_degrees(capsys):
    code, data = run_json(capsys, "schedule", "--degrees", "300,300,300", "--json")
    assert code == 1      # window 8 cannot carry these counts
    assert data["ok"] is False


def test_schedule_from_profile(capsys, tmp_path):
    prof = {"levels": [{"n": 8, "r": "65536"}]}
    f = tmp_path / "prof.json"
    f.write_text(json.dumps(prof))
    code, data = run_json(capsys, "schedule", "--profile", str(f), "--json")
    assert code == 1      # validation fails (half_level_upper), schedule itself works
    rep = data["report"]
    assert rep["schedule"]["levels"][0]["e"] == 7
    assert rep["validation"]["ok"] is False


def test_bounds_at_degree(capsys, tmp_path):
    prof = {"levels": [{"n": 8, "r": "65536"}]}
    f = tmp_path / "prof.json"
    f.write_text(json.dumps(prof))
    code, data = run_json(capsys, "bounds", "--profile", str(f), "--at", "2^10", "--json")
    assert code == 0
    rep = data["report"]["bounds"]
    assert rep["consistent"] is True
    assert rep["k"] == 8 and rep["j"] == 8


def test_c35_tower(capsys):
    code, data = run_json(capsys, "c35", "--count", "2", "--json")
    assert code == 0
    rep = data["report"]
    assert rep["window_map"] == {"1": 101, "2": 206060201}
    assert rep["class_checks"]["ok"] is True


def test_byte_determinism(capsys, comm2):
    _, out1, _ = run(capsys, "quotient", "--relations", comm2, "--precision", "8", "--json")
    _, out2, _ = run(capsys, "quotient", "--relations", comm2, "--precision", "8", "--json")
    assert out1 == out2


def test_text_mode_mentions_key_facts(capsys, rel_yx):
    code, out, _ = run(capsys, "hilbert", "--relations", rel_yx, "--max-degree", "4",
                       "--text")
    assert code == 0
    assert "series" in out
    assert "schema" in out


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("x*?y\n")
    code, out, err = run(capsys, "hilbert", "--relations", str(f), "--json")
    assert code == 2
    assert out == ""
    assert "parse error" in err
    assert "column" in err


def test_hilbert_reaches_degree_14_under_the_default_budget(capsys, rel_yx, monkeypatch):
    # fourteen seeded layers under the default 512 MiB; degree 16 is still refused
    monkeypatch.delenv("GSALG_MEMORY_LIMIT_MB", raising=False)
    code, data = run_json(capsys, "hilbert", "--relations", rel_yx, "--max-degree", "14",
                          "--json")
    assert code == 0
    assert data["report"]["series"] == list(range(2, 16))
    code, out, err = run(capsys, "hilbert", "--relations", rel_yx, "--max-degree", "16")
    assert code == 2 and out == ""
    assert "ideal layer in degree 16 needs about" in err


def test_negative_max_degree_exit_code(capsys):
    code, out, err = run(capsys, "hilbert", "--max-degree", "-3", "--json")
    assert code == 2
    assert out == ""
    assert "max degree must be non-negative, got -3" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "--relations", "/nonexistent/nope.txt", "--json")
    assert code == 2 and err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--json"])        # --at is required
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["hilbert", "quotient"])
def test_gfp_zero_is_not_a_field(capsys, comm2, command):
    # gfp:0 used to build the rationals and exit 0
    code, out, err = run(capsys, command, "--relations", comm2, "--field", "gfp:0",
                         "--json")
    assert code == 2
    assert out == ""
    assert "gfp:P needs a prime P, got 0" in err


@pytest.mark.parametrize("at", ["2^-3", "0", "-4", "two"])
def test_bounds_rejects_degrees_below_one(capsys, tmp_path, at):
    f = tmp_path / "prof.json"
    f.write_text(json.dumps({"levels": [{"n": 8, "r": "65536"}]}))
    code, out, err = run(capsys, "bounds", "--profile", str(f), "--at", at, "--json")
    assert code == 2
    assert out == ""
    assert "--at" in err and repr(at) in err


@pytest.mark.parametrize("at", ["2^1000000000000", "10^400000"])
def test_bounds_refuses_degrees_over_the_bit_budget(capsys, tmp_path, at):
    # B^K is refused from K * bitlen(B) alone, before B ** K is computed
    f = tmp_path / "prof.json"
    f.write_text(json.dumps({"levels": [{"n": 8, "r": "65536"}]}))
    code, out, err = run(capsys, "bounds", "--profile", str(f), "--at", at, "--json")
    assert code == 2
    assert out == ""
    assert repr(at) in err and "bit budget" in err


def test_bounds_refuses_degrees_the_report_cannot_print(capsys, tmp_path):
    # 2^14000 has 4215 decimal digits and 2^15000 has 4516, over the default
    # limit of 4300 that str() enforces on ints
    f = tmp_path / "prof.json"
    f.write_text(json.dumps({"levels": [{"n": 8, "r": "65536"}]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, data = run_json(capsys, "bounds", "--profile", str(f),
                              "--at", "2^14000", "--json")
        assert code == 0 and data["report"]["bounds"]["n"] == str(1 << 14000)
        code, out, err = run(capsys, "bounds", "--profile", str(f),
                             "--at", "2^15000", "--json")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert "--at '2^15000' has more than 4300 decimal digits" in err


@pytest.mark.parametrize("command", ["schedule", "bounds"])
def test_huge_nested_exponent_in_profile_exit_code(capsys, tmp_path, command):
    # r = 3^(2^(10^12)): the nested exponent alone would take 125 GB
    r = {"coeff": "1",
         "factors": [{"base": "3", "exp": {"base": "2", "exp": "1000000000000"}}]}
    f = tmp_path / "prof.json"
    f.write_text(json.dumps({"levels": [{"n": 8, "r": r}]}))
    extra = ["--at", "8"] if command == "bounds" else []
    code, out, err = run(capsys, command, "--profile", str(f), *extra, "--json")
    assert code == 2
    assert out == ""
    assert "bad dyadic profile" in err and "magnitude budget" in err


@pytest.mark.parametrize("command", ["schedule", "bounds"])
@pytest.mark.parametrize("content, message", [
    (json.dumps({"levels": [{"n": 8}]}), "bad dyadic profile"),
    (json.dumps([{"n": 8, "r": 1}]), "bad dyadic profile"),
    ('{"levels": [', "bad dyadic profile"),
])
def test_malformed_dyadic_profile_exit_code(capsys, tmp_path, command, content, message):
    f = tmp_path / "prof.json"
    f.write_text(content)
    extra = ["--at", "8"] if command == "bounds" else []
    code, out, err = run(capsys, command, "--profile", str(f), *extra, "--json")
    assert code == 2
    assert out == ""
    assert message in err and str(f) in err


@pytest.mark.parametrize("content, message", [
    ('{"d": 2, "degree_counts": [3]}', "bad degree profile"),
    ('{"d": 2,', "bad degree profile"),
])
def test_malformed_degree_profile_exit_code(capsys, tmp_path, content, message):
    f = tmp_path / "p.json"
    f.write_text(content)
    code, out, err = run(capsys, "certify", "--profile", str(f), "--json")
    assert code == 2
    assert out == ""
    assert message in err and str(f) in err


@pytest.mark.parametrize("den", ["-3", "0", "1"])
def test_certify_rejects_grid_denominators_below_two(capsys, profile_r3, den):
    # -3 used to run with denominator 2 and 0 with the default, both exit 0
    code, out, err = run(capsys, "certify", "--profile", profile_r3,
                         "--grid-denominator", den, "--json")
    assert code == 2
    assert out == ""
    assert f"grid denominator must be an integer >= 2, got {den}" in err


@pytest.mark.parametrize("den", ["65537", "100000000"])
def test_certify_rejects_grid_denominators_over_the_cap(capsys, profile_r3, den):
    # each grid point is an exact evaluation; 10^8 of them ran for minutes
    code, out, err = run(capsys, "certify", "--profile", profile_r3,
                         "--grid-denominator", den, "--json")
    assert code == 2
    assert out == ""
    assert f"grid denominator must be at most 65536, got {den}" in err


def test_ladder_rejects_negative_e_max_degree(capsys):
    code, out, err = run(capsys, "ladder", "--top", "3", "--e-max-degree", "-1", "--json")
    assert code == 2
    assert out == ""
    assert "--e-max-degree must be at least 0, got -1" in err
