import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shiftrec.certificates import certificates_from_json, json_text
from shiftrec.cli import main
from shiftrec.dyadic import Dyadic

REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_recur_full_space(capsys):
    code, out = run_cli(capsys, "recur", "--clopen", "0,1", "--k", "2", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["witness"] == 1


def test_recur_explicit_bits(capsys):
    code, out = run_cli(
        capsys, "recur", "--clopen", "1", "--k", "1", "--n-max", "4", "--bits", "0100"
    )
    assert code == 0
    assert json.loads(out)["witness"] == 1


def test_recur_requires_source(capsys):
    code = main(["recur", "--clopen", "1"])
    assert code == 2


def test_recur_csv_format(capsys):
    code, out = run_cli(
        capsys,
        "recur", "--clopen", "1", "--k", "2", "--n-max", "50",
        "--seed", "1", "--seed", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,k,n_max,witness"
    assert len(lines) == 3


def test_kurtz_reports_expected_measures(capsys):
    code, out = run_cli(capsys, "kurtz", "--clopen", "1", "--k", "2", "--t-max", "2")
    assert code == 0
    data = json.loads(out)
    measures = [c["exact_measure"] for c in data["certificates"]]
    assert measures == ["3/2^2", "9/2^4"]
    assert data["all_pass"]


def test_kurtz_capture_report(capsys):
    code, out = run_cli(
        capsys, "kurtz", "--clopen", "1", "--k", "1", "--t-max", "3", "--bits", "0000"
    )
    assert code == 0
    assert json.loads(out)["capture"] == {"captured": True, "escape_stage": None}


def test_schnorr_subcommand(tmp_path, capsys):
    path = tmp_path / "B.txt"
    path.write_text("stage 2: 11\nstage 4: 0000\n")
    code, out = run_cli(
        capsys, "schnorr", "--class-file", str(path), "--k", "1", "--v", "1",
        "--t-max", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schedule"][1] == 2
    assert data["all_pass"]


def test_mltest_direct(tmp_path, capsys):
    path = tmp_path / "B.txt"
    path.write_text("stage 2: 11\n")
    code, out = run_cli(
        capsys, "mltest", "--class-file", str(path), "--k", "2", "--r", "3",
        "--stage-max", "12",
    )
    assert code == 0
    data = json.loads(out)
    assert data["path"] == "direct"
    assert data["q"] == "1/2^1"


def test_mltest_split_with_escape(tmp_path, capsys):
    path = tmp_path / "B.txt"
    path.write_text("stage 1: 0\nstage 2: 11\n")
    code, out = run_cli(
        capsys, "mltest", "--class-file", str(path), "--k", "2", "--r", "3",
        "--stage-max", "12", "--seed", "7",
    )
    assert code == 0
    data = json.loads(out)
    assert data["path"] == "split"
    assert data["split"]["head"] == ["0"]
    assert data["escape_level"] >= 1


def test_grid_ops(tmp_path, capsys):
    code, out = run_cli(
        capsys, "grid", "--op", "kurtz", "--dimension", "2", "--n1", "1",
        "--target-bits", "1", "--r", "1",
    )
    assert code == 0
    assert json.loads(out)["certificates"][0]["exact_measure"] == "3/2^2"

    path = tmp_path / "Bg.txt"
    path.write_text("dimension 2\nstage 2: 1011\n")
    code, out = run_cli(
        capsys, "grid", "--op", "ml", "--class-file", str(path), "--r", "1",
        "--stage-max", "5",
    )
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_grid_witness_csv(capsys):
    argv = ["grid", "--op", "witness", "--dimension", "2", "--n1", "1", "--seed", "5"]
    code, out = run_cli(capsys, *argv, "--target-bits", "1", "--format", "csv")
    assert code == 0
    _, record = run_cli(capsys, *argv, "--target-bits", "1")
    assert out == f"seed,dimension,n_max,witness\n5,2,64,{json.loads(record)['witness']}\n"
    # seed 0 has no all-zero 3x3x3 witness up to n_max = 2: the witness column is empty
    code, out = run_cli(
        capsys, "grid", "--op", "witness", "--dimension", "3", "--n1", "3",
        "--target-bits", "0" * 27, "--n-max", "2", "--format", "csv",
    )
    assert (code, out) == (0, "seed,dimension,n_max,witness\n0,3,2,\n")


def _readme_grid_outputs(tmp_path):
    """The outputs of the README's grid kurtz and grid ml commands."""
    (tmp_path / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    outputs = []
    for command in _readme_commands():
        argv = shlex.split(command)[1:]
        if argv[:3] in (["grid", "--op", "kurtz"], ["grid", "--op", "ml"]):
            argv = [str(tmp_path / a) if a == "Bg.txt" else a for a in argv]
            out = tmp_path / f"{argv[2]}.json"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out)
    assert len(outputs) == 2
    return outputs


def _survives_two_stages(bits: str) -> bool:
    """A row-major 3x3 cube survives stages 1 and 2 of the one-cell target
    ``1`` unless both cells moved s along an axis are 1, for s = 1 or 2."""
    return not any(bits[3 * s] == bits[s] == "1" for s in (1, 2))


# The row-major samples of the README grid outputs, one list per certificate.
README_GRID_SAMPLES = {
    "kurtz": [
        ["0000", "0001", "0010", "0011", "0100", "0101",
         "1000", "1001", "1010", "1011", "1100", "1101"],
        [b for b in (format(v, "09b") for v in range(1 << 9)) if _survives_two_stages(b)],
    ],
    "ml": [[""], ["1011"]],
}


def test_grid_certificates_list_shell_words(tmp_path, capsys):
    """Grid words are shell words, and read as cubes they are the README's samples."""
    from shiftrec.bitseq import Word
    from shiftrec.multidim import ArraySample

    for out in _readme_grid_outputs(tmp_path):
        certs = json.loads(out.read_text())["certificates"]
        cubes = [
            sorted(ArraySample.from_word(2, Word.from_string(w)).bit_string() for w in c["words"])
            for c in certs
        ]
        assert cubes == README_GRID_SAMPLES[out.stem]
        assert all("space" not in c and c["words"] == sorted(c["words"], key=len) for c in certs)
        code, _ = run_cli(capsys, "verify", str(out))
        assert code == 0


def test_rotate_subcommand(capsys):
    code, out = run_cli(
        capsys, "rotate", "--alpha", "golden", "--k", "2", "--epsilon", "0.05"
    )
    assert code == 0
    data = json.loads(out)
    assert data["scan"]["n"] == 21
    assert data["scan_verified"] is True
    assert data["ceiling"] == 400


@pytest.mark.parametrize(
    "flag", ["--epsilon", "--alpha"], ids=["epsilon", "alpha"]
)
def test_rotate_zero_denominator_is_usage_error(flag, capsys):
    """``1/0`` is a malformed number: exit 2 with an error line, not a
    ZeroDivisionError traceback and exit 1, the bound-violation status."""
    assert main(["rotate", "--k", "2", flag, "1/0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'1/0' has a zero denominator" in err


def test_rotate_takes_a_deep_return_from_the_convergents(capsys):
    """For epsilon <= 1/(2k) the least return is the first convergent
    denominator that returns, so a return past 2.6e8 under a Dirichlet
    ceiling of 1e32 needs no scan."""
    code, out = run_cli(
        capsys, "rotate", "--alpha", "golden", "--k", "4", "--epsilon", "1/100000000",
        "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[3], r[4]) for r in rows] == [("scan", "267914296"), ("cf", "267914296")]


@pytest.mark.parametrize(
    "flags,env_precision",
    [(["--precision", "0"], None), ([], "0"), (["--precision", "-3"], None)],
)
def test_rotate_rejects_nonpositive_precision(flags, env_precision, tmp_path):
    """A precision below 1 is a usage error, not an endless doubling of 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    env.pop("SHIFTREC_PRECISION", None)
    if env_precision is not None:
        env["SHIFTREC_PRECISION"] = env_precision
    argv = [sys.executable, "-m", "shiftrec.cli", "rotate", "--k", "2", *flags]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=30)
    assert proc.returncode == 2
    assert b"precision must be a positive integer" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("kurtz", "--clopen", "1", "--k", "2", "--t-max", "-1"),
        ("grid", "--op", "kurtz", "--target-bits", "1", "--r", "-2"),
        ("mltest", "--class-file", "M.txt", "--k", "2", "--r", "-1"),
        ("grid", "--op", "ml", "--class-file", "Bg.txt", "--r", "-1"),
        ("rotate", "--n-max", "-5"),
    ],
    ids=["kurtz-t-max", "grid-kurtz-r", "mltest-direct-r", "grid-ml-r", "rotate-n-max"],
)
def test_negative_count_flag_is_usage_error(argv, tmp_path, capsys):
    """A negative count exits 2 instead of printing an empty or vacuous result."""
    (tmp_path / "M.txt").write_text("stage 2: 11\nstage 5: 00000\n")
    (tmp_path / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("recur", "--clopen", "1", "--seed", "1", "--n-max", "0"),
        ("grid", "--op", "witness", "--target-bits", "1", "--n-max", "0"),
        ("rotate", "--n-max", "0"),
    ],
    ids=["recur", "grid-witness", "rotate"],
)
def test_zero_n_max_is_usage_error(argv, capsys):
    """A search up to n = 0 decides nothing: every search subcommand exits 2."""
    assert main(list(argv)) == 2
    assert "n_max must be positive" in capsys.readouterr().err


def test_negative_count_in_config_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"clopen": "1", "k": 2, "t-max": -1}))
    assert main(["kurtz", "--config", str(conf)]) == 2
    assert "config key 't-max': must be a nonnegative integer" in capsys.readouterr().err
    # zero stages stay valid, as documented
    conf.write_text(json.dumps({"clopen": "1", "k": 2, "t-max": 0}))
    code, out = run_cli(capsys, "kurtz", "--config", str(conf))
    assert code == 0 and json.loads(out)["certificates"] == []


def test_cli_import_leaves_numpy_out(tmp_path):
    """The package has no runtime dependency: importing the CLI loads no numpy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    code = "import sys, shiftrec.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0


def test_verify_roundtrip_and_tamper(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run_cli(
        capsys, "kurtz", "--clopen", "1", "--k", "2", "--t-max", "2",
        "--out", str(cert_path),
    )
    assert code == 0
    code, out = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert "ok" in out

    data = json.loads(cert_path.read_text())
    data["certificates"][0]["exact_measure"] = "1/2^6"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, out = run_cli(capsys, "verify", str(tampered))
    assert code == 1


def test_bad_class_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("who knows\n")
    code = main(["recur", "--class-file", str(path), "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (("kurtz", "--k", "1"), "granularity\n1\n"),
        (("mltest", "--k", "1"), "stage: 11\n"),
        (("grid", "--op", "ml"), "dimension\nstage 2: 1011\n"),
    ],
    ids=["granularity", "stage", "dimension"],
)
def test_class_file_header_without_number_is_usage_error(argv, text, tmp_path, capsys):
    path = tmp_path / "class.txt"
    path.write_text(text)
    assert main([*argv, "--class-file", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2]")
    assert main(["kurtz", "--config", str(conf)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"clopen": "1", "k": 2, "t-max": 2}))
    code, out = run_cli(capsys, "kurtz", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["parameters"]["k"] == 2
    # the grid op has a default, which a config op overrides
    conf.write_text(json.dumps({"op": "kurtz", "target-bits": "1"}))
    code, out = run_cli(capsys, "grid", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["op"] == "kurtz"


def test_flags_override_config(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"clopen": "1", "k": 2, "t-max": 2}))
    code, out = run_cli(capsys, "kurtz", "--config", str(conf), "--k", "1")
    assert code == 0
    assert json.loads(out)["parameters"]["k"] == 1


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"clopen": "1", "t-maxx": 2}))
    code = main(["kurtz", "--config", str(conf)])
    assert code == 2
    assert "t-maxx" in capsys.readouterr().err


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": 5, "clopen": "1"}))
    code, from_config = run_cli(capsys, "recur", "--config", str(conf))
    assert code == 0
    assert from_config == run_cli(capsys, "recur", "--seed", "5", "--clopen", "1")[1]
    conf.write_text(json.dumps({"clopen": "1", "k": "2", "seed": [1, 2]}))
    code, out = run_cli(capsys, "recur", "--config", str(conf))
    assert code == 0
    assert (json.loads(out)["k"], json.loads(out)["seeds"]) == (2, 2)


@pytest.mark.parametrize(
    "command, conf",
    [
        ("recur", {"clopen": "1", "seed": 5, "k": "x"}),
        ("kurtz", {"clopen": "1", "format": "xml"}),
        ("kurtz", {"clopen": "1", "k": [2]}),
        ("kurtz", {"clopen": "1", "out": None}),
        ("grid", {"op": "cube"}),
    ],
)
def test_config_value_rejected_by_its_flag_is_usage_error(command, conf, tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert main([command, "--config", str(path)]) == 2
    assert "error: config key" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["rotate", "--alpha", "golden", "--k", "2", "--epsilon", "0.05"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_recur_with_staged_class_file(tmp_path, capsys):
    path = tmp_path / "B.txt"
    path.write_text("stage 1: 1\n")  # complement of "starts 0..."
    code, out = run_cli(
        capsys, "recur", "--class-file", str(path), "--stage-max", "3",
        "--k", "1", "--n-max", "10", "--bits", "110",
    )
    assert code == 0
    assert json.loads(out)["witness"] == 2


def test_precision_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHIFTREC_PRECISION", "64")
    code, out = run_cli(
        capsys, "rotate", "--alpha", "golden", "--k", "1", "--epsilon", "0.1"
    )
    assert code == 0
    assert json.loads(out)["scan"]["precision"] == 64


def test_non_integer_precision_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SHIFTREC_PRECISION", "abc")
    assert main(["rotate", "--alpha", "golden", "--k", "2"]) == 2
    assert "SHIFTREC_PRECISION must be an integer, not 'abc'" in capsys.readouterr().err


def test_seeds_file_bad_token_names_file_and_token(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1 2\nx3 4\n")
    assert main(["recur", "--clopen", "1", "--seeds-file", str(seeds)]) == 2
    assert f"seeds file {seeds}: 'x3' is not an integer seed" in capsys.readouterr().err


def test_empty_seeds_file_says_it_holds_no_seeds(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(" \n")
    assert main(["recur", "--clopen", "1", "--seeds-file", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert f"seeds file {seeds} holds no seeds" in err
    assert "recur needs" not in err


def test_search_witnesses_in_csv(capsys):
    """The witnesses the console-script step of CI checks."""
    code, out = run_cli(
        capsys, "recur", "--clopen", "1", "--k", "4", "--n-max", "5000",
        "--seed", "1", "--seed", "2", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["37", "3", "79"]
    code, out = run_cli(
        capsys, "grid", "--op", "witness", "--dimension", "2", "--n1", "2",
        "--target-bits", "1011,0000", "--n-max", "4000", "--seed", "7", "--format", "csv",
    )
    assert code == 0
    assert out == "seed,dimension,n_max,witness\n7,2,4000,67\n"
    # the long grid searches of the same step, one a witness past 2 * 10^5
    for n_max, seed, witness in (("40000", "4", "2558"), ("1000000", "1", "220804")):
        code, out = run_cli(
            capsys, "grid", "--op", "witness", "--dimension", "3", "--n1", "2",
            "--target-bits", "10110110,00000000", "--n-max", n_max, "--seed", seed,
            "--format", "csv",
        )
        assert code == 0
        assert out == f"seed,dimension,n_max,witness\n{seed},3,{n_max},{witness}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--op", "witness", "--dimension", "3", "--n1", "2",
         "--target-bits", "10110110,00000000", "--seed", "5", "--seed", "6"),
        ("kurtz", "--clopen", "1", "--k", "2", "--t-max", "2", "--seed", "5", "--seed", "9"),
        ("mltest", "--clopen", "1", "--k", "2", "--seed", "5", "--seed", "9"),
    ],
    ids=["grid-witness", "kurtz", "mltest"],
)
def test_a_second_seed_is_usage_error(argv, tmp_path, capsys):
    """A subcommand that reads one sequence refuses a second ``--seed``, on
    the command line or as a ``--config`` list, instead of dropping it."""
    assert main(list(argv)) == 2
    assert "reads one --seed, got 2" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": [5, 9]}))
    assert main([*argv[: argv.index("--seed")], "--config", str(conf)]) == 2
    assert "reads one --seed, got 2" in capsys.readouterr().err
    code, _ = run_cli(capsys, *argv[: argv.index("--seed") + 2])
    assert code == 0


def test_help_lists_every_subcommand_and_each_its_flags(capsys):
    from shiftrec.cli import _COMMANDS, _SUBCOMMAND_FLAGS

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(_COMMANDS) + "}" in capsys.readouterr().out
    for name, flags in _SUBCOMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"--{flag}" in out for flag in flags), name
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--k", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cert_csv_has_fixed_column_count(capsys):
    import csv
    import io

    code, out = run_cli(
        capsys, "kurtz", "--clopen", "1", "--k", "2", "--t-max", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(r) == 6 for r in rows)


def test_verify_covers_all_mltest_certificates(tmp_path, capsys):
    class_file = tmp_path / "B.txt"
    class_file.write_text("stage 1: 0\nstage 2: 11\n")
    out_file = tmp_path / "ml.json"
    code, _ = run_cli(
        capsys, "mltest", "--class-file", str(class_file), "--k", "2",
        "--r", "2", "--stage-max", "10", "--out", str(out_file),
    )
    assert code == 0
    code, out = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    # level certs + escape sets + refined levels all re-checked
    assert out.count(": ok") >= 9


def test_traced_layers_resolve():
    """Every layer the benchmark traces still exists under its traced name."""
    import shiftrec.cli  # noqa: F401  (loads every module the tracer patches)
    import shiftrec.measure

    spec = importlib.util.spec_from_file_location("spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = shiftrec.measure.measure_open
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert shiftrec.measure.measure_open is original


def test_flags_of_other_subcommands_are_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rotate", "--clopen", "1", "--alpha", "golden", "--k", "1", "--epsilon", "0.1"])
    assert exc.value.code == 2
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"clopen": "1"}))
    code = main(["rotate", "--config", str(conf)])
    assert code == 2
    assert "clopen" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, flag, value",
    [
        ("witness", "r", "1"),
        ("witness", "class-file", "Bg.txt"),
        ("witness", "stage-max", "3"),
        ("kurtz", "seed", "9"),
        ("kurtz", "n-max", "9"),
        ("kurtz", "class-file", "Bg.txt"),
        ("kurtz", "stage-max", "3"),
        ("ml", "dimension", "3"),
        ("ml", "n1", "4"),
        ("ml", "target-bits", "1"),
        ("ml", "seed", "9"),
        ("ml", "n-max", "9"),
    ],
)
def test_grid_flags_of_other_ops_are_usage_errors(op, flag, value, tmp_path, capsys):
    """A grid flag that the chosen op does not read exits 2, from the command
    line or from a config file."""
    (tmp_path / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    reads = {
        "witness": ["--target-bits", "1", "--seed", "5"],
        "kurtz": ["--target-bits", "1", "--r", "1"],
        "ml": ["--class-file", str(tmp_path / "Bg.txt"), "--r", "1", "--stage-max", "3"],
    }[op]
    value = str(tmp_path / value) if flag == "class-file" else value
    assert main(["grid", "--op", op, *reads, "--out", str(tmp_path / "ok.json")]) == 0
    assert main(["grid", "--op", op, *reads, f"--{flag}", value]) == 2
    assert f"--{flag}" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"op": op, flag: [int(value)] if flag == "seed" else value}))
    assert main(["grid", *reads, "--config", str(conf)]) == 2
    assert f"--{flag}" in capsys.readouterr().err


def test_benchmark_job_arguments_parse(tmp_path, monkeypatch):
    """Every argv of the benchmark's job lists is accepted by its subcommand."""
    from shiftrec.cli import build_parser

    spec = importlib.util.spec_from_file_location("jobs", REPO / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "jobs", jobs)  # its dataclass looks itself up
    spec.loader.exec_module(jobs)
    parser = build_parser()
    for workload in jobs.WORKLOADS:
        inputs = jobs.write_inputs(workload, 1, tmp_path / workload)
        for job in jobs.job_list(workload, 1, inputs, tmp_path):
            parser.parse_args([*job.argv, "--out", str(tmp_path / "out")])


def _cut_to_five_words(cert):
    """Keep five words, restate their measure and loosen the bound to one."""
    kept = cert["words"][:5]
    top = max(map(len, kept))
    measure = Dyadic(sum(1 << (top - len(w)) for w in kept), top)
    cert.update(words=kept, exact_measure=str(measure), required_bound="1/2^0")


@pytest.mark.parametrize(
    "argv, class_text, key, index, edit",
    [
        (("kurtz", "--clopen", "1", "--k", "2", "--t-max", "2"), None, "certificates", 1,
         lambda c: c.update(words=["01"], exact_measure="1/2^2", required_bound="1/2^0")),
        # the r = 2 level of the benchmark's ml-direct inputs (1007 words, q = 9/16)
        (("mltest", "--k", "2", "--r", "2", "--stage-max", "22"), "stage 2: 11\nstage 5: 00000\n",
         "certificates", 2, _cut_to_five_words),
        (("schnorr", "--clopen", "1", "--k", "1", "--t-max", "2"), None, "certificates", 0,
         lambda c: c.update(required_bound="1/2^0")),
        (("mltest", "--k", "2", "--r", "2", "--stage-max", "10"), "stage 1: 0\nstage 2: 11\n",
         "refined_certificates", 1, lambda c: c.update(required_bound="1/2^0")),
    ],
    ids=["kurtz-stage", "ml-Cr", "schnorr-error", "ml-refined"],
)
def test_verify_rejects_tampered_kurtz_stage(argv, class_text, key, index, edit, tmp_path, capsys):
    """A cut word list or a loosened bound exits 1, although the measure and
    the bound the certificate states agree with each other."""
    if class_text is not None:
        class_file = tmp_path / "B.txt"
        class_file.write_text(class_text)
        argv = (*argv, "--class-file", str(class_file))
    src = tmp_path / "out.json"
    assert main([*argv, "--out", str(src)]) == 0
    cert = json.loads(src.read_text())[key][index]
    edit(cert)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({"certificates": [cert]}))
    code, out = run_cli(capsys, "verify", str(tampered))
    assert code == 1
    assert cert["kind"] in out


@pytest.mark.parametrize(
    "sample", [{"dimension": 0, "word": "1"}, {"dimension": 2, "word": "10"}]
)
def test_verify_rejects_malformed_grid_sample(sample, tmp_path, capsys):
    src = tmp_path / "grid.json"
    assert main(["grid", "--op", "kurtz", "--dimension", "2", "--n1", "1",
                 "--target-bits", "1", "--r", "1", "--out", str(src)]) == 0
    data = json.loads(src.read_text())
    data["certificates"][0]["parameters"]["dimension"] = sample["dimension"]
    data["certificates"][0]["words"].append(sample["word"])
    src.write_text(json.dumps(data))
    assert main(["verify", str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def _readme_commands() -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.startswith("shiftrec ")]


SMOKE_COMMANDS = ["shiftrec mltest --clopen 1 --k 2", *_readme_commands()]


@pytest.mark.parametrize("command", SMOKE_COMMANDS)
def test_documented_command_finishes(command, tmp_path):
    """Each documented invocation exits 0 within its time limit."""
    (tmp_path / "B.txt").write_text("stage 2: 11\nstage 4: 0000\n")
    (tmp_path / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    assert main(["kurtz", "--clopen", "1", "--k", "2", "--t-max", "2",
                 "--out", str(tmp_path / "certs.json")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    argv = [sys.executable, "-m", "shiftrec.cli", *shlex.split(command)[1:]]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("command", [c for c in _readme_commands() if " verify " not in f" {c} "])
def test_documented_json_output_matches_json_dumps(command, tmp_path, monkeypatch, capsys):
    """The writer's bytes equal the standard encoder's on every documented output."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B.txt").write_text("stage 2: 11\nstage 4: 0000\n")
    (tmp_path / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    code, out = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def _one_certificate(tmp_path, argv, edit):
    """The first certificate of ``argv``'s output, edited, alone in a file."""
    src = tmp_path / "out.json"
    assert main([*argv, "--out", str(src)]) == 0
    cert = json.loads(src.read_text())["certificates"][0]
    edit(cert)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({"certificates": [cert]}))
    return path


KURTZ_ARGV = ("kurtz", "--clopen", "1", "--k", "1", "--t-max", "1")
GRID_ARGV = ("grid", "--op", "kurtz", "--dimension", "2", "--n1", "1", "--target-bits", "1",
             "--r", "1")
SCHNORR_ARGV = ("schnorr", "--clopen", "1", "--t-max", "1")
ML_ARGV = ("mltest", "--clopen", "1", "--k", "1", "--r", "1", "--stage-max", "4")


@pytest.mark.parametrize(
    "argv, edit",
    [
        # a string is not a word list, though iterating it yields bit strings
        (KURTZ_ARGV, lambda c: c.update(kind="ml-Cr", words="0101", exact_measure="1",
                                        required_bound="1", stage_budget=4)),
        # a dimension-2 word is the shell word of a square: n**2 bits
        (GRID_ARGV, lambda c: c.update(words=["101"])),
        (GRID_ARGV, lambda c: c["parameters"].update(dimension=0)),
        (GRID_ARGV, lambda c: c.update(words=["1021"])),
        # a sample record, as older versions wrote grid words
        (GRID_ARGV, lambda c: c.update(words=[{"size": 1, "bits": "1"}])),
        (KURTZ_ARGV, lambda c: c.update(kind="bogus")),
        (KURTZ_ARGV, lambda c: c.update(exact_measure=5)),
        (KURTZ_ARGV, lambda c: c.update(required_bound=[1])),
        (KURTZ_ARGV, lambda c: c.update(stage_budget=None)),
        (KURTZ_ARGV, lambda c: c.update(parameters=5)),
        # the parameters a bound is derived from
        (SCHNORR_ARGV, lambda c: c["parameters"].pop("t")),
        (ML_ARGV, lambda c: c["parameters"].pop("q")),
        (ML_ARGV, lambda c: c["parameters"].update(q=0.5)),
        (ML_ARGV, lambda c: c["parameters"].update(r="1")),
    ],
    ids=["string-words", "grid-word-not-cube", "grid-dimension-zero", "grid-word-not-bits",
         "grid-record", "unknown-kind", "measure-not-string", "bound-not-string", "budget-null",
         "parameters-not-object", "schnorr-t-missing", "ml-q-missing", "ml-q-not-string",
         "ml-r-not-int"],
)
def test_verify_rejects_malformed_certificate(argv, edit, tmp_path, capsys):
    path = _one_certificate(tmp_path, argv, edit)
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", ["kind", "parameters", "exact_measure", "required_bound", "stage_budget"]
)
def test_verify_names_a_missing_field(field, tmp_path, capsys):
    path = _one_certificate(tmp_path, ML_ARGV, lambda c: c.pop(field))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: a certificate has no {field} field\n"


@pytest.mark.parametrize("text", ["5", '{"certificates": 5}'], ids=["number", "list-not-list"])
def test_verify_rejects_malformed_certificate_file(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("kurtz", "--clopen", "1", "--t-max", "0"),
        ("grid", "--op", "kurtz", "--target-bits", "1", "--r", "0"),
        ("schnorr", "--clopen", "1", "--t-max", "0"),
    ],
    ids=["kurtz", "grid-kurtz", "schnorr"],
)
def test_verify_reads_empty_certificate_list(argv, tmp_path, capsys):
    path = tmp_path / "empty.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert json.loads(path.read_text())["certificates"] == []
    code, out = run_cli(capsys, "verify", str(path))
    assert (code, out) == (0, "no certificates\n")


# --- the cube encoding of large level sets ---------------------------------------

ML_DIRECT_CSV = """kind,label,word_count,exact_measure,required_bound,pass
ml-Cr,k=2;q=9/2^4;r=0,1,1/2^0,1/2^0,true
ml-Cr,k=2;q=9/2^4;r=1,2,9/2^5,9/2^4,true
ml-Cr,k=2;q=9/2^4;r=2,1007,4463/2^15,81/2^8,true
ml-Cr,k=2;q=9/2^4;r=3,237600,7425/2^17,729/2^12,true
ml-Cr,k=2;q=9/2^4;r=4,0,0/2^0,6561/2^16,true
"""
GRID_ML_CSV = """kind,label,word_count,exact_measure,required_bound,pass
ml-Cr,dimension=2;q=1/2^3;r=0,1,1/2^0,1/2^0,true
ml-Cr,dimension=2;q=1/2^3;r=1,1,1/2^4,1/2^3,true
ml-Cr,dimension=2;q=1/2^3;r=2,253952,31/2^12,1/2^6,true
"""
KURTZ_CLOPEN_CSV = """kind,label,word_count,exact_measure,required_bound,pass
kurtz-stage,granularity=1;k=2;t=0;times=1,6,3/2^2,3/2^2,true
kurtz-stage,granularity=1;k=2;t=1;times=1+3,72,9/2^4,9/2^4,true
kurtz-stage,granularity=1;k=2;t=2;times=1+3+9,221184,27/2^6,27/2^6,true
"""
GRID_KURTZ_CSV = """kind,label,word_count,exact_measure,required_bound,pass
kurtz-stage,dimension=2;n1=1;product_exact=True;r=1;shifts=1,12,3/2^2,3/2^2,true
kurtz-stage,dimension=2;n1=1;product_exact=True;r=2;shifts=1+2,288,9/2^4,9/2^4,true
kurtz-stage,dimension=2;n1=1;product_exact=True;r=3;shifts=1+2+3,27648,27/2^6,27/2^6,true
"""
SCHNORR_S_CSV = """kind,label,word_count,exact_measure,required_bound,pass
schnorr-error,k=1;n_t=2;t=1;v=0,4,1/2^22,1/2^2,true
schnorr-error,k=1;n_t=4;t=2;v=0,16,1/2^22,1/2^3,true
schnorr-error,k=1;n_t=8;t=3;v=0,256,1/2^22,1/2^4,true
schnorr-error,k=1;n_t=16;t=4;v=0,65536,1/2^22,1/2^5,true
"""


@pytest.fixture(scope="module")
def cube_runs(tmp_path_factory):
    """argv of level, survivor and error-set runs whose last set is written as cubes."""
    d = tmp_path_factory.mktemp("cubes")
    (d / "M.txt").write_text("stage 2: 11\nstage 5: 00000\n")
    (d / "Bg.txt").write_text("dimension 2\nstage 2: 1011\n")
    (d / "S.txt").write_text("stage 2: 11\nstage 22: 0110100110010110011010\n")
    return {
        "ml-direct": ("mltest", "--class-file", str(d / "M.txt"), "--k", "2", "--r", "4",
                      "--stage-max", "22"),
        "grid-ml": ("grid", "--op", "ml", "--class-file", str(d / "Bg.txt"), "--r", "2",
                    "--stage-max", "6"),
        "kurtz-clopen": ("kurtz", "--clopen", "1", "--k", "2", "--t-max", "3"),
        "grid-kurtz": ("grid", "--op", "kurtz", "--target-bits", "1", "--r", "3"),
        "schnorr-s": ("schnorr", "--class-file", str(d / "S.txt"), "--k", "1", "--v", "0",
                      "--t-max", "4"),
    }


@pytest.mark.parametrize(
    "job, csv",
    [
        ("ml-direct", ML_DIRECT_CSV),
        ("grid-ml", GRID_ML_CSV),
        ("kurtz-clopen", KURTZ_CLOPEN_CSV),
        ("grid-kurtz", GRID_KURTZ_CSV),
        ("schnorr-s", SCHNORR_S_CSV),
    ],
)
def test_cube_levels_csv_counts_words(cube_runs, job, csv, capsys):
    """CSV word counts are the number of words a cover stands for."""
    assert run_cli(capsys, *cube_runs[job], "--format", "csv") == (0, csv)


# the one certificate of each run that is written as cubes
_CUBE_INDEX = {"ml-direct": 3, "grid-ml": 2, "kurtz-clopen": 2, "grid-kurtz": 2, "schnorr-s": 3}


@pytest.mark.parametrize(
    "job, cubes",
    [("ml-direct", 40), ("grid-ml", 5), ("kurtz-clopen", 8), ("grid-kurtz", 8), ("schnorr-s", 1)],
)
def test_cube_certificate_roundtrip_and_verify(cube_runs, job, cubes, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main([*cube_runs[job], "--out", str(path)]) == 0
    text = path.read_text()
    data = json.loads(text)
    encodings = [("cubes" in c, "words" in c) for c in data["certificates"]]
    assert encodings[_CUBE_INDEX[job]] == (True, False)
    assert sum(cube for cube, _ in encodings) == 1
    assert len(data["certificates"][_CUBE_INDEX[job]]["cubes"]) == cubes
    # reading and writing again gives the same bytes
    data["certificates"] = [c.to_json_dict() for c in certificates_from_json(text)]
    assert json_text(data) == text
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.count(": ok\n") == len(encodings)


def _split_first_star_pair(cubes):
    """Replace a cube with two halves that overlap: one fixes its first free
    bit to 0, the other its second.  The measure stays the same."""
    text = next(c for c in cubes if c.count("*") >= 2)
    i = text.index("*")
    j = text.index("*", i + 1)
    half_i = text[:i] + "0" + text[i + 1 :]
    half_j = text[:j] + "0" + text[j + 1 :]
    return [c for c in cubes if c != text] + [half_i, half_j]


def _cut_to_one_cube(cert):
    """Keep the first cube and restate its measure."""
    kept = cert["cubes"][:1]
    fixed = len(kept[0]) - kept[0].count("*")
    cert.update(cubes=kept, exact_measure=f"1/2^{fixed}")


def _cube_certificate(tmp_path, argv, edit):
    src = tmp_path / "out.json"
    assert main([*argv, "--out", str(src)]) == 0
    cert = next(c for c in json.loads(src.read_text())["certificates"] if "cubes" in c)
    edit(cert)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({"certificates": [cert]}))
    return path


@pytest.mark.parametrize(
    "job, edit, problem",
    [
        ("ml-direct", lambda c: c.update(cubes=_split_first_star_pair(c["cubes"])), "overlap"),
        ("grid-ml", lambda c: c.update(cubes=_split_first_star_pair(c["cubes"])), "overlap"),
        ("grid-ml", lambda c: c.update(exact_measure="1/2^6"), "differs from recomputed"),
        # one more free bit keeps every cube's measure and disjointness
        ("ml-direct", lambda c: c.update(cubes=[t + "*" for t in c["cubes"]]),
         "longer than the stage budget"),
        ("grid-ml", lambda c: c.update(required_bound="1/2^0"), "the bound its parameters give"),
        ("kurtz-clopen", lambda c: c.update(cubes=_split_first_star_pair(c["cubes"])), "overlap"),
        # a cut cover with its measure restated no longer equals the product formula
        ("kurtz-clopen", _cut_to_one_cube, "that a kurtz-stage certificate must equal"),
        ("grid-kurtz", lambda c: c.update(cubes=_split_first_star_pair(c["cubes"])), "overlap"),
        ("grid-kurtz", lambda c: c.update(exact_measure="1/2^1"), "differs from recomputed"),
        ("schnorr-s", lambda c: c.update(cubes=_split_first_star_pair(c["cubes"])), "overlap"),
        ("schnorr-s", lambda c: c.update(required_bound="1/2^0"), "the bound its parameters give"),
    ],
    ids=[
        "overlap-1d", "overlap-grid", "measure", "too-long", "loosened-bound",
        "kurtz-overlap", "kurtz-cut", "grid-kurtz-overlap", "grid-kurtz-measure",
        "schnorr-overlap", "schnorr-loosened-bound",
    ],
)
def test_verify_rejects_altered_cubes(cube_runs, job, edit, problem, tmp_path, capsys):
    path = _cube_certificate(tmp_path, cube_runs[job], edit)
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 1 and problem in out


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(cubes=["1012" + c["cubes"][0][4:]]),
        # a dimension-2 cube covers a square: 37 positions do not
        lambda c: c.update(cubes=[t + "*" for t in c["cubes"]]),
        lambda c: c.update(words=["1011"]),
        lambda c: c.update(cubes="1011"),
    ],
    ids=["not-0-1-star", "grid-cube-not-square", "words-and-cubes", "cubes-not-list"],
)
def test_verify_rejects_malformed_cubes(cube_runs, edit, tmp_path, capsys):
    path = _cube_certificate(tmp_path, cube_runs["grid-ml"], edit)
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reads_a_level_of_many_single_word_cubes(tmp_path, capsys):
    """A class file with 16,383 words at stage 14 puts as many fully fixed
    cubes in level 1; the overlap check splits them in near-linear time
    instead of comparing every pair, so its own verify accepts them."""
    words = (format(v, "014b") for v in range(1 << 14) if v != 1)
    class_file = tmp_path / "many.txt"
    class_file.write_text("stage 14: " + " ".join(words) + "\n")
    path = tmp_path / "out.json"
    assert main(["mltest", "--class-file", str(class_file), "--k", "1", "--r", "1",
                 "--stage-max", "14", "--out", str(path)]) == 0
    level = json.loads(path.read_text())["certificates"][1]
    assert len(level["cubes"]) == (1 << 14) - 1 and "*" not in "".join(level["cubes"])
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.count(": ok\n") == 2


def test_verify_overlap_check_has_a_budget(tmp_path, capsys, monkeypatch):
    """An overlap check that takes too many steps exits 2 instead of running on."""
    import shiftrec.certificates as certificates

    monkeypatch.setattr(certificates, "OVERLAP_STEPS", 3)
    path = tmp_path / "many.json"
    cert = {"kind": "ml-Cr", "parameters": {"k": 1, "q": "1/2^1", "r": 1},
            "cubes": ["00", "01", "10", "11"], "exact_measure": "1/2^0",
            "required_bound": "1/2^1", "stage_budget": 4, "pass": True}
    path.write_text(json.dumps({"certificates": [cert]}))
    assert main(["verify", str(path)]) == 2
    assert "takes over 3 steps" in capsys.readouterr().err


def test_kurtz_word_counts_past_2_63(tmp_path, capsys):
    """At t = 5 the survivors of ``--clopen 1 --k 2`` are 64 cubes of 487
    bits, which stand for more words than ``len()`` can return.  At t = 8
    they are 512 cubes of 13,123 bits, but their sharp visits 2,036 cubes,
    over the 2^24-bit budget."""
    argv = ("kurtz", "--clopen", "1", "--k", "2", "--t-max", "6")
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[6].split(",")[2] == str(729 * 2**475)
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == 0
    code, out = run_cli(capsys, "verify", str(path))
    assert (code, out.count(": ok\n")) == (0, 6)
    assert main([*argv[:-1], "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parity_target_over_the_budget_exits_2_quickly(capsys):
    """8-bit parity takes 128 cubes: one stage of two blocks builds, two stages
    would take over 2^24 bits of cubes and stop before sharping them all."""
    odd = ",".join(format(v, "08b") for v in range(256) if v.bit_count() % 2)
    code, out = run_cli(capsys, "kurtz", "--clopen", odd, "--k", "2", "--t-max", "1")
    assert code == 0 and json.loads(out)["all_pass"] is True
    start = time.perf_counter()
    assert main(["kurtz", "--clopen", odd, "--k", "2", "--t-max", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert time.perf_counter() - start < 20


def test_split_path_escape_sets_are_cubes(tmp_path, capsys):
    """At stage budget 32 the split path's escape sets and refined levels are
    built on the level covers, never as words: G_1 is 20 cubes for
    25,199,328 words, and the whole file verifies."""
    (tmp_path / "P.txt").write_text("stage 1: 0\nstage 3: 111\nstage 6: 110110\n")
    path = tmp_path / "p.json"
    assert main(["mltest", "--class-file", str(tmp_path / "P.txt"), "--k", "2", "--r", "3",
                 "--stage-max", "32", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["path"] == "split" and data["all_pass"] is True
    g = {c["parameters"]["m"]: c for c in data["g_certificates"]}
    assert len(g[1]["cubes"]) == 20 and "words" not in g[1]
    assert (g[1]["exact_measure"], g[2]["exact_measure"]) == ("231/2^9", "9/2^7")
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.count(": ok\n") == 12


def test_level_budget_counts_cubes(tmp_path, capsys):
    """Level 3 of this run stands for 4,110,838,094,880 words but takes a few
    hundred cubes, far below the level budget of 2^22."""
    (tmp_path / "M.txt").write_text("stage 2: 11\nstage 5: 00000\n")
    code, out = run_cli(capsys, "mltest", "--class-file", str(tmp_path / "M.txt"), "--k", "2",
                        "--r", "5", "--stage-max", "60")
    assert code == 0 and json.loads(out)["all_pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("schnorr", "--clopen", "0" * 20, "--k", "1", "--t-max", "1"),
        ("schnorr", "--clopen", "0" * 27, "--k", "1", "--t-max", "1"),
        ("mltest", "--clopen", "0" * 28, "--k", "1"),
        ("mltest", "--clopen", "0" * 20, "--k", "1", "--r", "1", "--stage-max", "20"),
    ],
    ids=["schnorr-20", "schnorr-27", "mltest-28", "mltest-20-level"],
)
def test_long_clopen_complements_are_their_gap_cubes(tmp_path, capsys, argv):
    """The complement of one long word is one cube per bit, not 2^g - 1
    words: each run ends at once, and verify accepts what it writes.  With
    the stages to reach it, level 1 is those 20 cubes."""
    path = tmp_path / "out.json"
    start = time.perf_counter()
    assert main([*argv, "--out", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and "ok" in out
    if argv[-1] == "20":
        level = json.loads(path.read_text())["certificates"][1]
        assert len(level["cubes"]) == 20 and "1" + "*" * 19 in level["cubes"]
        assert level["exact_measure"] == f"{2**20 - 1}/2^20"


def test_split_head_of_a_clopen_complement_lists_cubes(capsys):
    """The split path's head is the complement's gap cubes, written as
    ``0/1/*`` strings; they stand for the same words as before."""
    code, out = run_cli(capsys, "mltest", "--clopen", "000", "--k", "2", "--r", "2")
    assert code == 0
    split = json.loads(out)["split"]
    assert split["head"] == ["001", "01*", "1**"] and split["head_max_len"] == 3
