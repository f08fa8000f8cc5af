import inspect
import re

import pytest

from sakde import checks, cli
from sakde.cli import QUERIES, main

#: an in-domain value of every asymptotics flag
FLAG_VALUES = {"density": "gaussian", "x": "0", "a": "0.21", "gamma0": "0.79", "n": "100",
               "d": "1", "alpha": "1", "c": "0"}

#: every command and asymptotics query, by the argv that names it, with the
#: function whose parameters are its arguments
COMMANDS = {"table": cli._table, "cell": cli._cell, "check": cli._check,
            **{f"asymptotics {query}": answer for query, answer in QUERIES.items()}}


def _params(command, kind):
    return [p for p in inspect.signature(command).parameters.values() if p.kind is kind]


def _flags(query):
    """``(required, optional)``: the flags a query's function takes without and
    with a default."""
    flags = _params(QUERIES[query], inspect.Parameter.KEYWORD_ONLY)
    return ([p.name for p in flags if p.default is p.empty],
            [p.name for p in flags if p.default is not p.empty])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_asymptotics_rho(capsys):
    code, out = run(capsys, "asymptotics", "rho", "--d", "1")
    assert code == 0
    assert "0.94320" in out


def test_asymptotics_rho_in_high_dimension(capsys):
    # (d + 2)^(2d + 4) alone would overflow a float from d = 79 on
    code, out = run(capsys, "asymptotics", "rho", "--d", "1000")
    assert code == 0
    assert out == "optimal-MSE efficiency ratio rho(d=1000) = 0.99878\n"


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


def test_asymptotics_mise_optimal_output(capsys):
    expected = {
        "gaussian": ("0.211571", "0.83255", "5", "0.352949"),
        "mixture": ("0.112651", "0.94440", "5", "0.311148"),
        "gaussian-2d": ("0.222568", "0.78742", "6", "0.144388"),
        "mixture-2d": ("0.154365", "0.83693", "6", "0.127808"),
    }
    for density, (integral, h_const, rate, mise_const) in expected.items():
        code, out = run(capsys, "asymptotics", "mise-optimal", "--density", density)
        assert code == 0
        assert out.splitlines() == [
            f"integrated squared curvature = {integral}",
            "stepsize: gamma_n = 1/n (gain limit 1)",
            f"bandwidth: h_n = {h_const} * gamma_n^(1/{rate})",
            f"leading MISE = {mise_const} * n^(-4/{rate})",
        ]


def test_asymptotics_missing_flags_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["asymptotics", "rho"])


def _query(query, flags):
    return ["asymptotics", query,
            *(tok for flag in flags for tok in (f"--{flag}", FLAG_VALUES[flag]))]


@pytest.mark.parametrize("query, flag", [
    (query, flag) for query in QUERIES
    for flag in FLAG_VALUES if flag not in sum(_flags(query), [])])
def test_asymptotics_flag_a_query_does_not_read_is_usage_error(query, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_query(query, (*_flags(query)[0], flag)))
    assert exc.value.code == 2
    # reported under the query's own usage, which names the query
    assert capsys.readouterr().err.endswith(
        f"sakde asymptotics {query}: error: unrecognized arguments: "
        f"--{flag} {FLAG_VALUES[flag]}\n")


@pytest.mark.parametrize("argv, prog, extra", [
    ("table 1 --reps 10 --bogus", "sakde table", "--bogus"),
    ("cell --density gaussian --x 0 --a 0.21 --n 50 --estimator recursive --jobs 2",
     "sakde cell", "--jobs 2"),
    ("check fast extra", "sakde check", "extra"),
    # an argument before the command is the top level's to refuse
    ("--bogus check fast", "sakde", "--bogus"),
])
def test_argument_a_command_does_not_read_is_usage_error(argv, prog, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(f"{prog}: error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize("query, flag", [
    (query, flag) for query in QUERIES for flag in _flags(query)[0]])
def test_asymptotics_query_missing_a_flag_is_usage_error(query, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_query(query, [f for f in _flags(query)[0] if f != flag]))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"the following arguments are required: --{flag}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_parameters(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    flags = _params(COMMANDS[command], inspect.Parameter.KEYWORD_ONLY)
    assert set(re.findall(r"--(\w+)", out)) == {"help", *(p.name for p in flags)}
    # a positional-only parameter is the one positional argument, listed by its choices
    positional = re.findall(r"^positional arguments:\n((?:  .*\n)*)", out, re.M)
    assert len("".join(positional).splitlines()) == len(
        _params(COMMANDS[command], inspect.Parameter.POSITIONAL_ONLY))


def test_every_declared_argument_is_a_parameter_of_a_command():
    # and every parameter has its one declaration
    assert set(cli._ARGS) == {name for command in COMMANDS.values()
                              for name in inspect.signature(command).parameters}


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
    # perfbench parses these verdict lines: names and order are an interface
    names = ("kernel-constants(d=1) kernel-constants(d=2) sequence-diagnostic "
             "weight-induced-gain lemma-identity lemma-limit recursion-equivalence "
             "closed-form-expansion density-hessians change-of-variables curvature-integral "
             "ci-constant-minimum efficiency-ratio mse-first-order-condition "
             "balanced-plan-ratios(d=1) balanced-plan-ratios(d=2) coverage-smoke").split()
    verdicts = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert [ln.split("] ", 1)[1].split(": ", 1)[0] for ln in verdicts] == names
    assert out.splitlines()[-1] == "17/17 checks passed"


def test_check_failure_is_reported_and_exits_1(capsys, monkeypatch):
    def broken(seed, jobs):
        return [checks.CheckOutcome("lemma-limit", False, "forced failure", {}, "")]

    monkeypatch.setattr(checks, "FAST", tuple(
        broken if c is checks.lemma_limit_value else c for c in checks.FAST))
    code, out = run(capsys, "check", "fast", "--seed", "1")
    assert "[FAIL] lemma-limit: forced failure" in out.splitlines()
    assert out.splitlines()[-1] == "16/17 checks passed"
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["table", "1", "--reps", "0"],
    ["table", "1", "--jobs", "-3"],
    ["table", "1", "--reps", "many"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "50",
     "--estimator", "recursive", "--reps", "0"],
    ["check", "fast", "--jobs", "0"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "0",
     "--estimator", "recursive"],
    ["asymptotics", "rho", "--d", "0"],
    ["asymptotics", "bias", "--density", "gaussian", "--x", "0", "--a", "0.21",
     "--gamma0", "1", "--n", "-5"],
    # a seed is an integer in [0, 2^64), the first word of every Philox key
    ["check", "fast", "--seed", "-1"],
    ["table", "1", "--seed", "-1"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "50",
     "--estimator", "recursive", "--seed", "18446744073709551616"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "50",
     "--estimator", "recursive", "--seed", "-1"],
    ["table", "1", "--seed", "4.5"],
    # text that is no integer gets the same message as an integer out of range
    ["check", "fast", "--jobs", "2.5"],
    ["cell", "--density", "gaussian", "--x", "0", "--a", "0.21", "--n", "ten",
     "--estimator", "recursive"],
    ["asymptotics", "rho", "--d", "one"],
])
def test_nonpositive_reps_and_jobs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(r"argument --\w+: must be (a positive integer|an integer in \[0, 2\^64\)), "
                     r"got '", err)
    assert not re.search(r"\b_\w", err)  # no private name of the program


def test_non_integer_seed_env_is_one_line_exit(tmp_path, monkeypatch):
    # the variable takes the domain of --seed, through the same parser
    for env in ("4x2", "-1", "18446744073709551616", "4.5"):
        monkeypatch.setenv("SAKDE_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(["table", "1", "--reps", "10", "--jobs", "1", "--out", str(tmp_path / "t.csv")])
        message = str(exc.value.code)
        assert message == f"SAKDE_SEED must be an integer in [0, 2^64), got {env!r}"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [
    "cell --density gaussian --x abc", "cell --density gaussian --x 0,0",
    "cell --density gaussian-2d --x 0", "asymptotics bias --density gaussian-2d --x 0",
])
def test_bad_point_is_one_line_exit(argv):
    rest = " --a 0.21 --n 50 " + ("--estimator recursive --reps 10" if "cell" in argv
                                  else "--gamma0 1")
    with pytest.raises(SystemExit) as exc:
        main((argv + rest).split())
    message = str(exc.value.code)
    assert message.startswith(f"--x must be {2 if '2d' in argv else 1} ")
    assert "\n" not in message


@pytest.mark.parametrize("argv, message", [
    ("asymptotics ci-constant --gamma0 0.3 --a 0.21 --d 1", "variance pole"),
    ("asymptotics ci-constant --gamma0 inf --a 0.21 --d 1", "positive and finite"),
    ("asymptotics bias --density gaussian --x 0 --a 0.21 --gamma0 nan --n 100",
     "scale must lie in (0, 1], got nan"),
    ("asymptotics variance --density gaussian --x 0 --a 0.21 --gamma0 1.5 --n 100",
     "scale must lie in (0, 1], got 1.5"),
    ("asymptotics bias --density gaussian --x 0 --a 0.21 --gamma0 0.3 --n 100", "bias pole"),
    ("asymptotics regime --a 0.9 --alpha 1 --d 2", "a must lie in"),
    ("asymptotics regime --a 0.2 --alpha nan --d 1", "alpha must lie in (1/2, 1], got nan"),
    ("asymptotics regime --a 0.2 --alpha inf --d 1", "alpha must lie in (1/2, 1], got inf"),
    ("asymptotics regime --a 0.2 --alpha=-inf --d 1", "alpha must lie in (1/2, 1], got -inf"),
    ("cell --density gaussian --x 0 --n 50 --estimator recursive --reps 10 --a 1.5",
     "a*d must lie in (0, 1), got 1.5"),
    ("asymptotics ci-constant --gamma0 0.79 --a nan --d 1", "a*d must lie in (0, 1)"),
    ("asymptotics ci-constant --gamma0 0.79 --a -0.5 --d 1", "a*d must lie in (0, 1)"),
    ("asymptotics regime --a 0.2 --alpha 1 --d 1 --gamma0 nan", "gamma0 must be positive"),
    ("asymptotics regime --a 0.2 --alpha 1 --d 1 --gamma0 -3", "gamma0 must be positive"),
    ("asymptotics clt --density gaussian --x 0 --a 0.21 --gamma0 0.79 --c nan",
     "c must be nonnegative"),
    ("asymptotics variance --density gaussian --x 0 --a 1.5 --gamma0 0.79 --n 100",
     "a*d must lie in (0, 1)"),
    ("asymptotics variance --density gaussian-2d --x 0,0 --a 0.6 --gamma0 0.79 --n 100",
     "a*d must lie in (0, 1)"),
    ("asymptotics clt --density gaussian --x 0 --a -0.5 --gamma0 0.79", "a*d must lie in (0, 1)"),
    ("asymptotics clt --density gaussian --x 0 --a 1.5 --gamma0 0.79", "a*d must lie in (0, 1)"),
    # integers beyond float range, where the formulas compute in floats
    (f"asymptotics variance --density gaussian --x 0 --a 0.21 --gamma0 0.79 --n 1{'0' * 400}",
     "n must be at least 1 and at most"),
    (f"asymptotics rho --d 1{'0' * 400}", "dim must be at most 2^53"),
    (f"asymptotics regime --a 0.2 --alpha 1 --d 1{'0' * 400}", "dim must be at most 2^53"),
])
def test_rejected_input_is_one_line_exit(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    text = str(exc.value.code)
    assert text.startswith(argv.split()[0]) and message in text
    assert "\n" not in text
