"""Command-line surface: exit codes, precedence, determinism, formats.

Everything goes through main(argv) in-process; stdout and files are
compared as raw bytes where the contract promises byte-identical output.
"""

import json
import re

import pytest

from torusglue.cli import ENV_SEED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# small runs for the commands whose defaults take long
SMALL = {
    "verify-metric": ["--samples", "20"],
    "counterexample": ["--samples", "20"],
    "nearest": ["--instances", "1"],
    "isometry-check": ["--samples", "5", "--instances", "2"],
    "lift": ["--samples", "5"],
}


def test_verify_metric_passes(capsys):
    code, payload = run_json(capsys, "verify-metric", "--samples", "2000")
    assert code == 0
    assert payload["passed"] is True
    assert payload["report"]["violations_total"] == 0
    cfg = payload["config"]
    assert cfg["R"] == "1" and cfg["M"] == "2" and cfg["seed"] == 0
    assert cfg["mode"]["kind"] == "float"


def test_verify_metric_exact_mode(capsys):
    code, payload = run_json(
        capsys, "verify-metric", "--samples", "120", "--mode", "exact", "--R", "3/2", "--M", "2"
    )
    assert code == 0
    assert payload["config"]["mode"] == {"kind": "exact"}
    assert payload["config"]["R"] == "3/2"


def test_counterexample_requires_opt_in(capsys):
    code, out, err = run(capsys, "counterexample", "--R", "2/5", "--M", "1")
    assert code == 2
    assert out == ""
    assert "allow-invalid-metric" in err


def test_counterexample_flags_violation(capsys):
    code, payload = run_json(
        capsys, "counterexample", "--R", "2/5", "--M", "1", "--allow-invalid-metric"
    )
    assert code == 1
    assert payload["flagged"] is True
    assert payload["witness"]["slack"] == "1/5"
    assert payload["axioms"]["violations_total"] >= 1


def test_counterexample_refuses_valid_metric(capsys):
    code, out, err = run(capsys, "counterexample")
    assert code == 2
    assert "config key 'R'" in err


def test_nearest_small_run(capsys):
    code, payload = run_json(
        capsys, "nearest", "--instances", "3", "--grid", "25", "--t-grid", "41"
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["instances"]) == 3


@pytest.mark.parametrize("m", ["1e300", "2e307"])
def test_float_nearest_passes_where_2M_dwarfs_the_height(capsys, m):
    # the grid oracle's heights are exact offsets from t, so t survives a span of 4M
    code, payload = run_json(
        capsys, "nearest", "--mode", "float", "--R", m, "--M", m, "--instances", "2"
    )
    assert code == 0
    oks = [inst[key]["ok"] for inst in payload["instances"] for key in inst if key != "instance"]
    assert oks == [True] * 6


def test_isometry_check(capsys):
    code, payload = run_json(capsys, "isometry-check", "--samples", "30", "--instances", "6")
    assert code == 0
    assert payload["passed"] is True
    assert payload["impostors"]["swap_rejected"] is True
    assert payload["impostors"]["scaling_rejected"] is True
    assert payload["roundtrips"]["failures"] == 0


def test_isometry_check_over_sqrt3(capsys):
    # sample and probe points are drawn in the configured field, not sqrt(2)
    code, payload = run_json(
        capsys, "isometry-check", "--d", "3", "--samples", "5", "--instances", "3"
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["roundtrips"] == {"failures": 0, "total": 3}
    code, payload = run_json(capsys, "lift", "--d", "3", "--samples", "5")
    assert code == 0
    assert payload["passed"] is True


@pytest.mark.parametrize("command,extra", [
    ("counterexample", ["--R", "1/2", "--M", "2", "--allow-invalid-metric"]),
    ("verify-metric", ["--mode", "exact", "--samples", "60", "--R", "1/2", "--M", "2",
                       "--allow-invalid-metric"]),
])
def test_exact_axiom_samples_over_sqrt3(capsys, command, extra):
    # the exact axiom sampler draws its points in the configured field
    code, out, err = run(capsys, command, "--d", "3", *extra)
    assert code == 1 and err == ""
    radicals = re.findall(r"\*sqrt\((\d+)\)", out)
    assert len(radicals) > 20
    assert set(radicals) == {"3"}


def test_nearest_rejects_even_t_grid(capsys):
    code, out, err = run(capsys, "nearest", "--instances", "2", "--t-grid", "400")
    assert code == 2
    assert out == ""
    assert "config key 't_grid'" in err
    code, payload = run_json(capsys, "nearest", "--instances", "2", "--grid", "25", "--t-grid", "401")
    assert code == 0


def test_lift_default_shifts(capsys):
    code, payload = run_json(capsys, "lift", "--samples", "40")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["lifts"]) == 8  # four shifts, both orientations


def test_density_json_and_csv_agree(capsys):
    argv = ("density", "--targets", "0,1/2", "--epsilons", "1e-2", "--budget", "1000000")
    code, payload = run_json(capsys, *argv)
    assert code == 0
    code2, out2, _ = run(capsys, *argv, "--format", "csv")
    assert code2 == 0
    lines = out2.strip().split("\n")
    assert lines[0] == "target_u1,target_u2,t,distance"
    assert len(lines) == 2
    hit = payload["reports"][0]["results"][0]["hit"]
    assert "%.17g" % hit["distance"] in lines[1]


def test_density_miss_exits_nonzero(capsys):
    code, payload = run_json(
        capsys, "density", "--targets", "0,1/2", "--epsilons", "1e-7", "--budget", "1000"
    )
    assert code == 1
    assert payload["passed"] is False


def test_non_closure_certifies(capsys):
    code, payload = run_json(
        capsys, "non-closure", "--target", "0,1/2", "--epsilons", "1e-2", "--budget", "1000000"
    )
    assert code == 0
    assert payload["report"]["certificate_replayed"] is True
    assert payload["report"]["certificate"]["member"] is False


def test_non_closure_rejects_orbit_member(capsys):
    code, out, err = run(
        capsys, "non-closure", "--target", "0,0", "--epsilons", "1e-2", "--budget", "1000"
    )
    assert code == 2
    assert "config key 'target'" in err


def test_local_isometry_sampled(capsys):
    code, payload = run_json(capsys, "local-isometry", "--count", "15")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["records"]) == 15


def test_local_isometry_refusal(capsys):
    code, payload = run_json(capsys, "local-isometry", "--t", "1/2", "--s", "0")
    assert code == 1
    assert payload["refused"] is True
    assert payload["radius"] < payload["separation"]
    code2, payload2 = run_json(capsys, "local-isometry", "--t", "1/8", "--s", "0")
    assert code2 == 0
    assert payload2["record"]["passed"] is True


def test_x1_group(capsys):
    code, payload = run_json(capsys, "x1-group", "--k-range=-2:2", "--count", "12")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["elements"]) == 10  # five k values, two kinds
    cert = payload["rational_target_certificate"]
    assert cert["ok"] is True and cert["certificate"]["member"] is False
    assert payload["line_transitivity"] is True


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "verify-metric", "--mode", "sometimes")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "density", "--help")[0] == 0


def test_config_validation_names_the_key(capsys):
    cases = [
        (("verify-metric", "--R", "-1"), "'R'"),
        (("verify-metric", "--M", "0"), "'M'"),
        (("verify-metric", "--d", "4"), "'d'"),
        # the prime 2^89 - 1, beyond the radicand bound 2^64: refused, not trial-divided
        (("density", "--d", "618970019642690137449562111"), "'d'"),
        (("verify-metric", "--gram", "1,2"), "'gram'"),
        (("verify-metric", "--gram", "1,5,1"), "'gram'"),
        (("verify-metric", "--seed", "-3"), "'seed'"),
        (("verify-metric", "--samples", "many"), "'samples'"),
        (("verify-metric", "--alpha", "0"), "'alpha'"),
        (("density", "--targets", "1/2"), "'targets'"),
    ]
    for argv, key in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"config key {key}" in err, (argv, err)


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-metric", "--samples", "300", "--seed", "17"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_different_seed_changes_report(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["density", "--targets", "1/3,1/5", "--epsilons", "1e-2",
                 "--budget", "1000000", "--output", str(a)]) == 0
    assert main(["density", "--targets", "1/3,2/5", "--epsilons", "1e-2",
                 "--budget", "1000000", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_env_seed_wins(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "99")
    code, payload = run_json(capsys, "verify-metric", "--samples", "50", "--seed", "11")
    assert code == 0
    assert payload["config"]["seed"] == 99


def test_env_seed_must_be_valid(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "not-a-seed")
    code, out, err = run(capsys, "verify-metric", "--samples", "10")
    assert code == 2
    assert "config key 'seed'" in err


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nM = 3\nR=2\nsamples=25\n")
    code, payload = run_json(capsys, "verify-metric", "--config", str(cfg))
    assert code == 0
    assert payload["config"]["M"] == "3" and payload["config"]["R"] == "2"
    assert payload["report"]["samples"] == 25
    # flags override the file
    code, payload = run_json(capsys, "verify-metric", "--config", str(cfg), "--M", "4")
    assert payload["config"]["M"] == "4"


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=10\n")  # a 'nearest' key, invalid for verify-metric
    code, out, err = run(capsys, "verify-metric", "--config", str(cfg))
    assert code == 2
    cfg2 = tmp_path / "broken.cfg"
    cfg2.write_text("justaword\n")
    assert run(capsys, "verify-metric", "--config", str(cfg2))[0] == 2
    assert run(capsys, "verify-metric", "--config", str(tmp_path / "missing.cfg"))[0] == 2


def test_output_write_failure_exits_2(capsys, tmp_path):
    dest = tmp_path / "nope" / "deep" / "r.json"
    code, out, err = run(capsys, "verify-metric", "--samples", "10", "--output", str(dest))
    assert code == 2
    assert "cannot write report" in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (("density", "--epsilons", "0"), "epsilons"),
        (("non-closure", "--epsilons", "0"), "epsilons"),
        (("density", "--epsilons=-1e-2"), "epsilons"),
        (("x1-group", "--eps", "0"), "eps"),
        (("x1-group", "--eps=-1e-3"), "eps"),
        (("x1-group", "--eps", "1e-3,1e-5"), "eps"),
        (("nearest", "--instances", "-1"), "instances"),
        (("isometry-check", "--instances", "-1"), "instances"),
        (("local-isometry", "--count", "-3"), "count"),
        # the report's separation |t - s| is a float
        (("local-isometry", "--t", "1e400", "--s", "0"), "t"),
    ],
)
def test_bad_values_exit_2_naming_the_key(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"config key '{key}'" in err


@pytest.mark.parametrize("key", ["R", "M"])
@pytest.mark.parametrize(
    "command", ["verify-metric", "counterexample", "nearest", "isometry-check", "lift"]
)
def test_lengths_without_a_float_view_exit_2(capsys, command, key):
    # 2R < M, so that counterexample gets past its 2R >= M refusal
    lengths = {"R": "1e400", "M": "1e401"} if key == "R" else {"R": "1", "M": "1e400"}
    argv = ["--R", lengths["R"], "--M", lengths["M"], "--allow-invalid-metric"]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert f"config key '{key}'" in err


# (command, mode) -> exit code with --gram 1,0,1e400: 2 naming 'gram' where the
# float kernel reads the reduced form as floats (float mode, and nearest's grid
# oracles in every mode) and where local-isometry reports the slope 1 + |v|;
# 1e400 has no float.  Elsewhere the exact path takes it.
GRAM_BEYOND_FLOAT = {
    ("verify-metric", "exact"): 0,
    ("verify-metric", "float"): 2,
    ("counterexample", "exact"): 1,
    ("counterexample", "float"): 2,
    ("nearest", "exact"): 2,
    ("nearest", "float"): 2,
    ("isometry-check", "exact"): 0,
    ("isometry-check", "float"): 2,
    ("lift", "exact"): 0,
    ("lift", "float"): 2,
    ("density", "exact"): 1,
    ("density", "float"): 1,
    ("non-closure", "exact"): 1,
    ("non-closure", "float"): 1,
    ("local-isometry", "exact"): 2,
    ("local-isometry", "float"): 2,
    ("x1-group", "exact"): 0,
    ("x1-group", "float"): 0,
}

GRAM_BEYOND_FLOAT_ARGV = ["--gram", "1,0,1e400", "--R", "1/2", "--allow-invalid-metric"]


@pytest.mark.parametrize("command, mode", [c for c, code in GRAM_BEYOND_FLOAT.items() if code == 2])
def test_gram_without_a_float_view_exits_2(capsys, command, mode):
    code, out, err = run(capsys, command, *GRAM_BEYOND_FLOAT_ARGV, "--mode", mode)
    assert code == 2
    assert out == ""
    assert "config key 'gram'" in err


@pytest.mark.parametrize("command, mode", [c for c, code in GRAM_BEYOND_FLOAT.items() if code != 2])
def test_gram_without_a_float_view_runs_where_no_float_reads_it(capsys, command, mode):
    argv = [*GRAM_BEYOND_FLOAT_ARGV, "--mode", mode, *SMALL.get(command, [])]
    code, out, err = run(capsys, command, *argv)
    assert code == GRAM_BEYOND_FLOAT[command, mode]
    assert err == ""


def test_exact_verify_metric_takes_a_gram_beyond_the_float_range(capsys):
    code, payload = run_json(
        capsys, "verify-metric", "--gram", "1,0,1e400", "--mode", "exact", "--samples", "20"
    )
    assert code == 0
    assert payload["passed"] is True


# exit codes for `--R 1e308 --M 1e308`: the float samplers and grid oracles
# span heights over 6 * max(1, M), beyond the float range.  The five float
# cells at 2 ended in an OverflowError traceback (exit 1) before their check;
# exact counterexample exits 2 naming R (2R >= M), as before.  Every other cell
# is the code these commands gave before the check.
HEIGHTS_BEYOND_FLOAT = {
    ("verify-metric", "exact"): 0,
    ("verify-metric", "float"): 2,
    ("counterexample", "exact"): 2,
    ("counterexample", "float"): 2,
    ("nearest", "exact"): 0,
    ("nearest", "float"): 2,
    ("isometry-check", "exact"): 0,
    ("isometry-check", "float"): 2,
    ("lift", "exact"): 0,
    ("lift", "float"): 2,
    ("density", "exact"): 0,
    ("density", "float"): 0,
    ("non-closure", "exact"): 0,
    ("non-closure", "float"): 0,
    ("local-isometry", "exact"): 0,
    ("local-isometry", "float"): 0,
    ("x1-group", "exact"): 0,
    ("x1-group", "float"): 0,
}

HEIGHTS_BEYOND_FLOAT_ARGV = ["--R", "1e308", "--M", "1e308"]


@pytest.mark.parametrize("command, mode", [c for c, code in HEIGHTS_BEYOND_FLOAT.items() if code == 2])
def test_heights_without_a_float_range_exit_2(capsys, command, mode):
    code, out, err = run(capsys, command, *HEIGHTS_BEYOND_FLOAT_ARGV, "--mode", mode)
    assert code == 2
    assert out == ""
    assert f"config key '{'R' if mode == 'exact' else 'M'}'" in err


@pytest.mark.parametrize("command, mode", [c for c, code in HEIGHTS_BEYOND_FLOAT.items() if code != 2])
def test_heights_without_a_float_range_run_where_no_sampler_reads_them(capsys, command, mode):
    argv = [*HEIGHTS_BEYOND_FLOAT_ARGV, "--mode", mode, *SMALL.get(command, [])]
    code, out, err = run(capsys, command, *argv)
    assert code == HEIGHTS_BEYOND_FLOAT[command, mode]
    assert err == ""


def test_height_range_check_is_exact_at_the_float_boundary(capsys):
    # 6.0 * M is finite at the first M and overflows at the next float
    for m, want in (("2.996155224770526e+307", 0), ("2.9961552247705263e+307", 2)):
        code, out, err = run(capsys, "verify-metric", "--R", m, "--M", m, "--samples", "20")
        assert code == want
        assert ("config key 'M'" in err) == (want == 2)


# -- one row per subcommand: each cell of the command table, pinned ----------------

COMMON_FLAGS = {
    "--d", "--alpha", "--gram", "--R", "--M", "--mode", "--seed", "--format", "--output",
    "--allow-invalid-metric",
}

OWN_FLAGS = {
    "verify-metric": {"--samples"},
    "counterexample": {"--samples"},
    "nearest": {"--instances", "--grid", "--t-grid"},
    "isometry-check": {"--samples", "--instances"},
    "lift": {"--shifts", "--samples"},
    "density": {"--targets", "--epsilons", "--budget"},
    "non-closure": {"--target", "--epsilons", "--budget"},
    "local-isometry": {"--count", "--t", "--s"},
    "x1-group": {"--k-range", "--count", "--eps"},
}


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_help_names_the_common_flags_and_the_commands_own(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert code == 0
    flags = set(re.findall(r"--[a-zA-Z][\w-]*", out))
    assert flags == {"--help", "--config"} | COMMON_FLAGS | OWN_FLAGS[command]


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_csv_only_for_density_tables(capsys, command):
    code, out, err = run(capsys, command, "--format", "csv")
    if command in ("density", "non-closure"):
        assert code == 0
        assert out.startswith("target_u1,target_u2,t,distance\n")
    else:
        assert code == 2
        assert out == ""
        assert "config key 'format'" in err
