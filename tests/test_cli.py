import os

import pytest

from sakde.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_asymptotics_rho(capsys):
    code, out = run(capsys, "asymptotics", "rho", "--d", "1")
    assert code == 0
    assert "0.94320" in out


def test_asymptotics_ci_constant(capsys):
    code, out = run(capsys, "asymptotics", "ci-constant",
                    "--gamma0", "0.79", "--a", "0.21", "--d", "1")
    assert code == 0
    assert "0.88882" in out


def test_asymptotics_regime(capsys):
    code, out = run(capsys, "asymptotics", "regime",
                    "--a", "0.2", "--alpha", "1", "--d", "1")
    assert code == 0
    assert out.splitlines()[0] == "balanced"


def test_asymptotics_variance_query(capsys):
    code, out = run(capsys, "asymptotics", "variance", "--density", "gaussian",
                    "--x", "0", "--a", "0.21", "--gamma0", "0.79", "--n", "100")
    assert code == 0
    assert "recursive variance" in out


def test_asymptotics_missing_flags_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["asymptotics", "rho"])


def test_table_writes_csv_and_diff(tmp_path, capsys):
    out_file = tmp_path / "t1.csv"
    code, out = run(capsys, "table", "1", "--seed", "7", "--reps", "40",
                    "--jobs", "1", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(data_lines) == 37  # header + 36 cells
    assert "# seed=7" in text
    assert "max |coverage - reference|" in out


def test_table_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "table", "1", "--seed", "5", "--reps", "30", "--jobs", "1", "--out", str(a))
    run(capsys, "table", "1", "--seed", "5", "--reps", "30", "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_table_requires_id(capsys):
    with pytest.raises(SystemExit):
        main(["table"])


def test_table_conflicting_ids(tmp_path):
    with pytest.raises(SystemExit):
        main(["table", "1", "--table", "2", "--out", str(tmp_path / "x.csv")])


def test_seed_env_override_is_echoed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SAKDE_SEED", "123")
    out_file = tmp_path / "t.csv"
    code, _ = run(capsys, "table", "1", "--reps", "10", "--jobs", "1",
                  "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "# seed=123" in text
    assert "env:SAKDE_SEED" in text


def test_cell_command(tmp_path, capsys):
    out_file = tmp_path / "cell.csv"
    code, out = run(capsys, "cell", "--density", "mixture", "--x", "0.5",
                    "--a", "0.23", "--n", "50", "--estimator", "recursive",
                    "--reps", "25", "--seed", "2", "--out", str(out_file))
    assert code == 0
    assert "empirical level" in out
    lines = [ln for ln in out_file.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["check", "slow"])
    assert exc.value.code == 2


def test_unknown_table_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table", "9"])
    assert exc.value.code == 2


def test_check_fast_passes(capsys):
    code, out = run(capsys, "check", "fast", "--seed", "1")
    assert "[FAIL]" not in out
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["table", "1", "--reps", "0"],
    ["table", "1", "--jobs", "-3"],
    ["table", "1", "--reps", "many"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "50",
     "--estimator", "recursive", "--reps", "0"],
    ["check", "fast", "--jobs", "0"],
])
def test_nonpositive_reps_and_jobs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


def test_non_integer_seed_env_is_one_line_exit(tmp_path, monkeypatch):
    monkeypatch.setenv("SAKDE_SEED", "4x2")
    with pytest.raises(SystemExit) as exc:
        main(["table", "1", "--reps", "10", "--jobs", "1", "--out", str(tmp_path / "t.csv")])
    message = str(exc.value.code)
    assert "SAKDE_SEED" in message and "'4x2'" in message
    assert "\n" not in message
