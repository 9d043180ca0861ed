"""CLI surface: config ingestion, subcommands, manifests, exit codes."""
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fibrelay
from fibrelay import (
    ConfigError,
    PerNodeGain,
    Rayleigh,
    lambda_deterministic_closed_form,
)
from fibrelay import cli
from fibrelay.cli import main
from fibrelay.config import KEYS, parse_config, read_config_file, resolve
from fibrelay.manifest import canonical_digest, dumps_17g

from conftest import SOURCE_HOP_ERROR, child_env


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command ran an estimate")


class TestParseConfig:
    def test_flags_only(self):
        params = parse_config("lyapunov", overrides={
            "network.model": "deterministic:c=1", "network.gain": 0.5, "run.n": 1000})
        assert params.model.c == 1.0
        assert params.gain.g == 0.5
        assert params.n == 1000
        assert params.n0 == 1.0 and params.i0 == 1.0
        assert params.replicas == 32

    def test_negative_gain_names_key(self):
        with pytest.raises(ConfigError, match="gain"):
            parse_config("lyapunov", overrides={
                "network.model": "deterministic:c=1", "network.gain": -1.0})

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("network.model = deterministic:c=1\nnetwork.n0 = 1\n")
        params = parse_config("simulate", cfg, {"network.n0": 2.0})
        assert params.n0 == 2.0

    def test_kv_file_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# relay chain setup\n"
            "network.model = rayleigh:mu=1.0  # fading\n"
            "network.gain = 0.6\n"
            "run.n = 500\n"
            "run.seed = 7\n")
        params = parse_config("simulate", cfg)
        assert params.model.mu == 1.0
        assert params.gain.g == 0.6
        assert params.seed == 7

    def test_json_nested_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "network": {"model": "deterministic:c=0.2", "gain": 2.5},
            "run": {"n": 2000}}))
        params = parse_config("verify", cfg)
        assert params.model.c == 0.2
        assert params.n == 2000

    @pytest.mark.parametrize("name,text,message", [
        ("run.cfg", "network.model = rayleigh\nrun.n = 2000\n# again\nrun.n = 3000\n",
         "run.n given twice, on lines 2 and 4"),
        ("run.json", '{"network.model": "rayleigh", "network": {"model": "uniform"}}',
         "network.model: given twice"),
        ("run.json", '{"network": {"model": "rayleigh", "model": "uniform"}}',
         "network.model: given twice"),
        ("run.json", '{"run.n": 2000, "network.model": "rayleigh", "run.n": 3000}',
         "run.n: given twice"),
        ("manifest.json", '{"config_echo": {"network.model": "rayleigh", "run.n": 2000, '
         '"run.n": 3000}}', "run.n: given twice"),
    ], ids=("kv-lines", "json-flat-and-nested", "json-nested-member", "json-flat-member",
            "manifest-member"))
    def test_key_given_twice_named(self, name, text, message, tmp_path, capsys,
                                   monkeypatch):
        """A key given twice in one config file exits 2 naming it, not
        taking either value."""
        monkeypatch.setattr(cli, "estimate_lambda", _must_not_run)
        path = tmp_path / name
        path.write_text(text)
        rc = main(["lyapunov", "--config", str(path), "--replicas", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_deeper_object_quoted_as_given(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"network": {"model": {"kind": "rayleigh"}}}')
        with pytest.raises(ConfigError, match=r"got \{'kind': 'rayleigh'\}$"):
            parse_config("lyapunov", cfg)

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("network.model = deterministic:c=1\nrun.bogus = 3\n")
        with pytest.raises(ConfigError, match="run.bogus"):
            parse_config("lyapunov", cfg)

    def test_model_required(self):
        with pytest.raises(ConfigError, match="network.model"):
            resolve("lyapunov", {}, {})

    def test_worker_count_env_default(self, monkeypatch):
        monkeypatch.setenv("FIBRELAY_WORKERS", "4")
        params = parse_config("lyapunov", overrides={
            "network.model": "deterministic:c=1"})
        assert params.workers == 4

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_env_named(self, value, monkeypatch, capsys):
        monkeypatch.setenv("FIBRELAY_WORKERS", value)
        with pytest.raises(ConfigError, match="FIBRELAY_WORKERS"):
            parse_config("lyapunov", overrides={"network.model": "deterministic:c=1"})
        rc = main(["lyapunov", "--model", "deterministic:c=1", "--n", "1000",
                   "--replicas", "1"])
        assert rc == 2
        assert "FIBRELAY_WORKERS" in capsys.readouterr().err

    def test_worker_flag_overrides_bad_env(self, monkeypatch):
        monkeypatch.setenv("FIBRELAY_WORKERS", "abc")
        params = parse_config("lyapunov", overrides={
            "network.model": "deterministic:c=1", "run.workers": 2})
        assert params.workers == 2

    @pytest.mark.parametrize("value,expected", [
        (True, True), (False, False), ("1", True), (" Yes ", True), ("ON", True),
        ("true", True), ("0", False), ("no", False), ("Off", False), ("FALSE", False),
    ])
    def test_validation_values(self, value, expected):
        params = resolve("lyapunov", {"network.model": "rayleigh:mu=1",
                                      "lyapunov.validation": value})
        assert params.validation is expected

    @pytest.mark.parametrize("model,text", [
        ("rayleigh:mu=1", "lyapunov.validation = maybe"),
        ("signed:p=0.5", "lyapunov.validation = ture"),
        ("rayleigh:mu=1", '{"lyapunov": {"validation": 2}}'),
    ], ids=("maybe", "ture-signed", "json-2"))
    def test_bad_validation_value_named(self, model, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        if text.startswith("{"):
            cfg.write_text(json.dumps({"network": {"model": model}, **json.loads(text)}))
        else:
            cfg.write_text(f"network.model = {model}\n{text}\n")
        out = tmp_path / "out"
        rc = main(["lyapunov", "--config", str(cfg), "--n", "1000", "--replicas", "1",
                   "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.startswith("error: lyapunov.validation")
        assert "requires validation" not in err

    def test_auto_seed_draws_fresh(self):
        a = parse_config("lyapunov", overrides={
            "network.model": "deterministic:c=1", "run.seed": "auto"})
        b = parse_config("lyapunov", overrides={
            "network.model": "deterministic:c=1", "run.seed": "auto"})
        assert a.seed != b.seed

    def test_built_model_and_gains_accepted(self):
        gains = PerNodeGain((1.0, 2.0, 3.0))
        params = resolve("simulate", {}, {"network.model": Rayleigh(1.0),
                                          "network.gain": gains, "run.n": 3})
        assert params.model == Rayleigh(1.0) and params.gain is gains

    # echoed by every command, and by the commands that run a chain under
    # given gains or estimate over replicas
    _ECHOED = {"command", "network.model", "run.n", "run.seed"}
    _CHAIN = {"network.gain", "network.i0"}
    _ESTIMATE = {"run.replicas", "run.burn_in"}

    @pytest.mark.parametrize("command,flags,keys,burn_in", [
        ("lyapunov", (), _CHAIN | _ESTIMATE | {"lyapunov.validation"}, 100),
        ("lyapunov", ("--burn-in", "500"), _CHAIN | _ESTIMATE | {"lyapunov.validation"},
         500),
        ("simulate", (), _CHAIN | {"network.n0", "simulate.trajectories"}, None),
        ("calibrate", (), _ESTIMATE | {"calibrate.tol"}, 100),
        ("verify", (), _CHAIN | _ESTIMATE | {"network.n0"}, 100),
        ("sweep", ("--gain-grid", "0.5,1"), _ESTIMATE | {"network.i0", "sweep.gain_grid"},
         100),
    ], ids=("lyapunov", "lyapunov-burn-in", "simulate", "calibrate", "verify", "sweep"))
    def test_manifest_round_trips_config(self, command, flags, keys, burn_in, tmp_path,
                                         capsys):
        """The echo holds the keys the command reads but run.workers, with
        the burn-in the run used, and reads back to the same parameters."""
        if "network.gain" in keys:
            flags += ("--gain", "0.5")
        if "run.replicas" in keys:
            flags += ("--replicas", "1")
        rc = main([command, "--model", "deterministic:c=1", "--n", "1000", "--seed", "11",
                   "--workers", "1", *flags, "--output-dir", str(tmp_path)])
        assert rc == 0
        echo = json.loads((tmp_path / "manifest.json").read_text())["config_echo"]
        assert set(echo) == self._ECHOED | keys
        assert echo.get("run.burn_in") == burn_in
        params = resolve(command, read_config_file(tmp_path / "manifest.json"))
        assert params.seed == 11
        assert params.gain.g == (0.5 if "network.gain" in keys else 1.0)
        assert params.echo() == echo

    def test_readme_key_table_lists_every_key(self):
        """The README's table of keys, brace groups such as
        ``run.{n,seed,workers}`` expanded, lists each key of ``KEYS`` once
        and no other."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.partition("| keys | commands |\n| --- | --- |\n")[2]
        listed = []
        for row in table.split("\n\n")[0].splitlines():
            for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
                prefix, group, rest = name.partition("{")
                listed += [prefix + item for item in rest.rstrip("}").split(",")] \
                    if group else [name]
        assert sorted(listed) == sorted(KEYS)

    def test_readme_examples_parse(self, tmp_path):
        """Every ``fibrelay <command> ...`` line of the README's code blocks
        parses with the CLI's parser, and its ini config example resolves
        for every command: a retired flag or key cannot stay in the docs."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```(\w*)\n(.*?)```", readme, re.S)
        parser = cli._build_parser()
        examples = [line.split() for kind, text in blocks if kind == "sh"
                    for line in text.replace("\\\n", " ").splitlines()
                    if line.startswith("fibrelay ")]
        assert len(examples) >= 5
        for words in examples:
            assert parser.parse_args(words[1:]).command == words[1]
        [ini] = [text for kind, text in blocks if kind == "ini"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ini)
        for command in cli._HANDLERS:
            resolve(command, read_config_file(cfg), {"sweep.gain_grid": "0.5"})


class TestJson17g:
    def test_float_formatting(self):
        text = dumps_17g({"a": 1 / 3, "b": [0.1, 2], "c": "x"})
        assert "0.33333333333333331" in text
        assert json.loads(text)["a"] == 1 / 3

    def test_sorted_keys_and_digest_stability(self):
        a = {"x": 1.5, "y": 2}
        b = {"y": 2, "x": 1.5}
        assert dumps_17g(a) == dumps_17g(b)
        assert canonical_digest(a) == canonical_digest(b)
        assert canonical_digest(a) != canonical_digest({"x": 1.5, "y": 3})


class TestCommands:
    def test_lyapunov_stdout_json(self, capsys):
        rc = main(["lyapunov", "--model", "deterministic:c=1", "--gain", "0.5",
                   "--n", "2000", "--replicas", "2", "--burn-in", "1000"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_hat"] == pytest.approx(0.0, abs=1e-9)
        assert doc["estimator_kind"] == "growth_rate"
        assert doc["model_spec"] == "deterministic:c=1"

    def test_sweep_values(self, capsys):
        rc = main(["sweep", "--model", "deterministic:c=1",
                   "--gain-grid", "0.25,0.5,1", "--n", "20000", "--replicas", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "g,lambda_hat,std_err"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        want = [lambda_deterministic_closed_form(1.0, g) for g in (0.25, 0.5, 1.0)]
        for g_est, g_ref in zip(got, want):
            assert g_est == pytest.approx(g_ref, abs=1e-3)

    def test_simulate_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--model", "rayleigh:mu=1.0", "--gain", "0.6",
                "--n", "50", "--trajectories", "2", "--seed", "5"]
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        for name in ("trajectory_000.csv", "trajectory_001.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        with open(out1 / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["output_files"] == ["trajectory_000.csv", "trajectory_001.csv"]
        assert manifest["master_seed"] == 5

    def test_simulate_requires_output_dir(self, capsys):
        rc = main(["simulate", "--model", "deterministic:c=1", "--n", "10"])
        assert rc == 2
        assert "output-dir" in capsys.readouterr().err

    def test_calibrate_json(self, tmp_path, capsys):
        rc = main(["calibrate", "--model", "deterministic:c=1", "--n", "10000",
                   "--replicas", "1", "--tol", "1e-3",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert abs(doc["g_star"] - 0.5) <= 1e-3
        assert doc["converged"] is True
        assert doc["bracket_history"]

    def test_verify_writes_reports_and_slopes(self, tmp_path, capsys):
        rc = main(["verify", "--model", "deterministic:c=1", "--gain", "0.5",
                   "--n", "5000", "--replicas", "2", "--output-dir", str(tmp_path)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "capacity" in table and "power" in table and "consistent" in table
        cap = json.loads((tmp_path / "verify_capacity.json").read_text())
        pwr = json.loads((tmp_path / "verify_power.json").read_text())
        assert cap["verdict"] == "consistent" and pwr["verdict"] == "consistent"
        slopes = (tmp_path / "slopes.csv").read_text().strip().split("\n")
        assert slopes[0] == "replica,capacity_slope,power_slope"
        assert len(slopes) == 3

    def test_sweep_and_slopes_csv_text(self, tmp_path, capsys):
        """sweep.csv and slopes.csv are the f-string rows of their doubles
        (``f"{x:.17g}"``, the text of ``"%.17g" % x``), sweep.csv also on
        stdout."""
        rc = main(["sweep", "--model", "rayleigh:mu=1", "--gain-grid", "0.25,0.5,1e-6",
                   "--n", "2000", "--replicas", "3", "--output-dir", str(tmp_path / "s")])
        assert rc == 0
        text = (tmp_path / "s" / "sweep.csv").read_text()
        assert capsys.readouterr().out == text
        rows = [[float(v) for v in line.split(",")] for line in text.split("\n")[1:-1]]
        assert [r[0] for r in rows] == [0.25, 0.5, 1e-6]
        assert text == "g,lambda_hat,std_err\n" + "".join(
            f"{g:.17g},{lam:.17g},{se:.17g}\n" for g, lam, se in rows)

        rc = main(["verify", "--model", "rayleigh:mu=1", "--gain", "0.5", "--n", "2000",
                   "--replicas", "3", "--output-dir", str(tmp_path / "v")])
        assert rc in (0, 1)
        text = (tmp_path / "v" / "slopes.csv").read_text()
        rows = [[float(v) for v in line.split(",")[1:]] for line in text.split("\n")[1:-1]]
        assert len(rows) == 3
        assert text == "replica,capacity_slope,power_slope\n" + "".join(
            f"{sid},{cs:.17g},{ps:.17g}\n" for sid, (cs, ps) in enumerate(rows))

    def test_verify_inconsistent_exit_code(self, capsys):
        # the SNR climbs from 1e-200, so the growing chain's capacity
        # slope is far from its predicted 0 and judged inconsistent
        rc = main(["verify", "--model", "deterministic:c=1", "--gain", "1",
                   "--i0", "1e-100", "--n", "2000", "--replicas", "2"])
        assert rc == 1

    def test_verify_below_minimum_steps(self, capsys):
        rc = main(["verify", "--model", "rayleigh:mu=1", "--gain", "0.6",
                   "--n", "500", "--replicas", "2"])
        assert rc == 2
        assert "1000" in capsys.readouterr().err

    def test_verify_burn_in_leaves_too_few_points(self, capsys):
        rc = main(["verify", "--model", "rayleigh:mu=1", "--gain", "0.6",
                   "--n", "2000", "--replicas", "2", "--burn-in", "1995"])
        assert rc == 2
        assert "burn_in 1995" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["lyapunov", "--model", "deterministic:c=1",
                     "--gain", "-1"]) == 2
        assert main(["lyapunov"]) == 2             # missing model
        assert main(["no-such-command"]) == 2

    def test_unbracketable_exit_code(self, capsys):
        # the start is exp(-m) = 1; the heavy tail puts the zero-growth gain
        # near 2^-70, past 60 halvings from it
        rc = main(["calibrate", "--model", "lognormal:m=0,s=70", "--n", "2000",
                   "--replicas", "1"])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: no growth-rate sign change within 60 doublings from g=1.0"]

    @pytest.mark.parametrize("model,exponent", [
        ("deterministic:c=5e-324", 1074), ("lognormal:m=800,s=1", -1154)])
    def test_start_outside_double_range_exit_code(self, model, exponent, capsys):
        """A model whose start 2**round(-E[log magnitude] / log 2) is not a
        double exits 3 with one line."""
        assert main(["calibrate", "--model", model, "--n", "2000", "--replicas", "4"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: the bracket start 2**{exponent} is outside double range"]

    def test_validation_flag_gate(self, capsys):
        rc = main(["lyapunov", "--model", "signed:p=0.5", "--n", "2000",
                   "--replicas", "1"])
        assert rc == 2
        rc = main(["lyapunov", "--model", "signed:p=0.5", "--n", "2000",
                   "--replicas", "1", "--validation"])
        assert rc == 0

    @pytest.mark.parametrize("command,flags", [
        ("lyapunov", ()), ("simulate", ()), ("calibrate", ()), ("verify", ()),
        ("sweep", ("--gain-grid", "0.5"))],
        ids=("lyapunov", "simulate", "calibrate", "verify", "sweep"))
    def test_validation_only_model_named_by_its_key(self, command, flags, tmp_path, capsys):
        """A validation-only model exits 2 naming network.model and the
        flag that admits it, before the output directory is made."""
        out = tmp_path / "out"
        rc = main([command, "--model", "signed:p=0.5", "--n", "2000", *flags,
                   "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.startswith("error: network.model: ") and "--validation" in err

    def test_bare_gain_number_is_constant(self, capsys):
        """``--gain 2`` is the constant gain ``constant:g=2``, not a
        one-node list."""
        reports = []
        for gain in ("2", "constant:g=2"):
            assert main(["lyapunov", "--model", "rayleigh", "--gain", gain, "--n", "1000",
                         "--replicas", "2"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["gain_spec"] == "constant:g=2"

    def test_gain_list_of_one_value_is_that_constant(self, capsys):
        """A list of n copies of 0.5 gives the growth rate of ``--gain 0.5``
        bit for bit."""
        reports = []
        for gain in (",".join(["0.5"] * 1000), "0.5"):
            assert main(["lyapunov", "--model", "rayleigh", "--gain", gain, "--n", "1000",
                         "--replicas", "3"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        per_node, constant = reports
        assert per_node["gain_spec"] == "pernode:g=" + ",".join(["0.5"] * 1000)
        assert per_node["lambda_hat"] == constant["lambda_hat"]
        assert per_node["std_err"] == constant["std_err"]

    def test_entry_point_subprocess(self):
        out = subprocess.run([sys.executable, "-m", "fibrelay", "--version"],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert "fibrelay" in out.stdout

    def test_exit_hook_freezes_and_leaves_outputs(self, tmp_path):
        """``main`` registers ``gc.freeze`` at exit on its first call, not
        on import: a hook registered before the import runs after it and
        sees frozen objects only once ``main`` has run.  Stdout and the data file are those of a run
        without the hook."""
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: sys.stderr.write("
                "f'frozen {gc.get_freeze_count() > 0}\\n'))\n"
                "import fibrelay.cli\n"
                "if sys.argv[1] == 'import':\n"
                "    sys.exit(0)\n"
                "rc = fibrelay.cli.main(sys.argv[2:])\n"
                "if sys.argv[1] == 'off':\n"
                "    atexit.unregister(gc.freeze)\n"
                "sys.exit(rc)\n")
        runs = {}
        for hook in ("on", "off", "import"):
            out = tmp_path / hook
            proc = subprocess.run(
                [sys.executable, "-c", code, hook, "lyapunov", "--model", "rayleigh:mu=1",
                 "--n", "1000", "--replicas", "2", "--output-dir", str(out)],
                capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == f"frozen {hook == 'on'}\n"
            if hook != "import":
                runs[hook] = (proc.stdout, (out / "lyapunov.json").read_bytes())
        assert runs["on"] == runs["off"]

    def test_rayleigh_run_leaves_scipy_unimported(self):
        """scipy serves only the lognormal model and is imported on its
        first draw; no run loads the process pool modules, and logging
        loads only where calibration doubles n_steps."""
        code = ("import sys, fibrelay.cli\n"
                "rc = fibrelay.cli.main(['lyapunov', '--model', 'rayleigh:mu=1', "
                "'--n', '1000', '--replicas', '2'])\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'multiprocessing', 'concurrent', 'logging')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("preset", [None, "2"], ids=("unset", "preset"))
    def test_blas_starts_with_one_thread(self, preset):
        """Importing the package sets OPENBLAS_NUM_THREADS to 1 before
        numpy loads, unless it is already set: the package makes no BLAS
        call, and OpenBLAS's idle pool only spins.  Left unset, the process
        then runs one OS thread."""
        env = child_env()
        # this process imported the package, which set the variable
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, fibrelay.cli\n"
                "tasks = '/proc/self/task'\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                "len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert out.returncode == 0, out.stderr
        value, threads = out.stdout.split()
        assert value == (preset or "1")
        if preset is None:
            assert threads == "1"

    def test_import_adds_no_log_handler_or_csv_writer(self):
        """Importing the package leaves logging to the importing program;
        the CSV writer loads with the first file written."""
        code = ("import logging, sys, fibrelay, fibrelay.cli\n"
                "print(logging.getLogger('fibrelay').handlers, "
                "'fibrelay._csv' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[] False\n"


class TestConfigValues:
    """Bad configuration values exit 2 naming the key, with no traceback
    and no output."""

    def _run(self, command, config, tmp_path, capsys, flags=()):
        run = {"n": 2000, "replicas": 1, **config.get("run", {})}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "run": run}))
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), *flags, "--output-dir", str(out)])
        assert not out.exists()
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("command,config,key", [
        ("simulate", {"network": {"model": "rayleigh", "gain": [1, 2, 3]}},
         "network.gain"),
        ("lyapunov", {"network": {"model": 5}}, "network.model"),
        ("sweep", {"network": {"model": "rayleigh"}, "sweep": {"gain_grid": 0.5}},
         "sweep.gain_grid"),
        ("sweep", {"network": {"model": "rayleigh"}, "sweep": {"gain_grid": [0.5, True]}},
         "sweep.gain_grid"),
        ("sweep", {"network": {"model": "rayleigh"}, "sweep": {"gain_grid": [0.5, "nan"]}},
         "sweep.gain_grid"),
        ("lyapunov", {"network": {"model": "rayleigh", "n0": True}}, "network.n0"),
        ("lyapunov", {"network": {"model": "rayleigh"}, "run": {"burn_in": True}},
         "run.burn_in"),
        ("lyapunov", {"network": {"model": "rayleigh"}, "run": {"n": None}}, "run.n"),
        ("lyapunov", {"network": {"model": "rayleigh:mu=abc"}}, "network.model"),
        ("lyapunov", {"network": {"model": "rayleigh", "gain": "constant:g=abc"}},
         "network.gain"),
        # a per-node list shorter than the chain (run.n 2000)
        ("lyapunov", {"network": {"model": "rayleigh", "gain": "1,2"}}, "network.gain"),
        # the estimator kind, the renormalization period, the second gain
        # key, the bracket cap, the verdict band and the bracket start are
        # retired: their keys are unknown
        ("lyapunov", {"network": {"model": "rayleigh"}, "lyapunov": {"kind": "tail_ratio"}},
         "lyapunov.kind"),
        ("lyapunov", {"network": {"model": "rayleigh"}, "run": {"renorm_period": 1}},
         "run.renorm_period"),
        ("lyapunov", {"network": {"model": "rayleigh", "gains": "constant:g=0.5"}},
         "unknown configuration key 'network.gains'"),
        ("calibrate", {"network": {"model": "rayleigh"}, "calibrate": {"max_doublings": 3}},
         "unknown configuration key 'calibrate.max_doublings'"),
        ("verify", {"network": {"model": "rayleigh"}, "verify": {"tolerance_sigma": 3}},
         "unknown configuration key 'verify.tolerance_sigma'"),
        ("verify", {"network": {"model": "rayleigh"}, "verify": {"slope_tol": 0.01}},
         "unknown configuration key 'verify.slope_tol'"),
        ("calibrate", {"network": {"model": "rayleigh"}, "calibrate": {"g_init": 2}},
         "unknown configuration key 'calibrate.g_init'"),
    ], ids=("gains-list", "model-number", "grid-number", "grid-bool", "grid-nan",
            "n0-bool", "burn-in-bool", "n-null", "model-spec-text", "gains-spec-text",
            "gains-too-short", "kind-key-retired", "renorm-period-key-retired",
            "gains-key-retired", "max-doublings-key-retired",
            "tolerance-sigma-key-retired", "slope-tol-key-retired", "g-init-key-retired"))
    def test_wrong_json_type(self, command, config, key, tmp_path, capsys):
        rc, err = self._run(command, config, tmp_path, capsys)
        assert rc == 2
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("gains,message", [
        ("1,-2", "gains must all be positive and finite"),
        ("1,abc", "malformed pernode gains '1,abc'"),
    ], ids=("negative", "not-a-number"))
    def test_gains_error_keeps_its_cause(self, gains, message, tmp_path, capsys):
        """A per-node gain list error names the key, says what is wrong and
        quotes the list as it was given."""
        config = {"network": {"model": "rayleigh"}}
        rc, err = self._run("lyapunov", config, tmp_path, capsys, ("--gain", gains))
        assert rc == 2
        assert err == f"error: network.gain: {message}\n"

    @pytest.mark.parametrize("command,flags,run,key", [
        ("lyapunov", ("--i0", "inf"), {}, "network.i0"),
        ("simulate", ("--n0", "inf"), {}, "network.n0"),
        ("simulate", ("--n0", "nan"), {}, "network.n0"),
        ("sweep", ("--gain-grid", "1,inf"), {}, "sweep.gain_grid"),
        ("lyapunov", (), {"n": 2000.7}, "run.n"),
        ("lyapunov", (), {"replicas": 1.5}, "run.replicas"),
        ("lyapunov", (), {"seed": 7.5}, "run.seed"),
        ("lyapunov", ("--n", "abc"), {}, "run.n"),
        ("lyapunov", ("--replicas", "1.5"), {}, "run.replicas"),
        ("lyapunov", ("--gain", "x"), {}, "network.gain"),
        ("lyapunov", ("--gain", "inf"), {}, "network.gain: gain must be positive and finite"),
        ("lyapunov", ("--gain", "nan"), {}, "network.gain: gain must be positive and finite"),
    ], ids=("i0-inf", "n0-inf", "n0-nan", "grid-inf", "n-fraction",
            "replicas-fraction", "seed-fraction", "n-flag-text",
            "replicas-flag-fraction", "gain-flag-text", "gain-inf", "gain-nan"))
    def test_non_finite_or_non_integral(self, command, flags, run, key, tmp_path,
                                        capsys):
        config = {"network": {"model": "deterministic:c=1"}, "run": run}
        rc, err = self._run(command, config, tmp_path, capsys, flags)
        assert rc == 2
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("command,flag", [
        ("calibrate", "--gain"), ("sweep", "--gains"), ("sweep", "--gain"),
        ("lyapunov", "--n0"), ("simulate", "--replicas"), ("lyapunov", "--kind"),
        ("lyapunov", "--renorm-period"), ("lyapunov", "--gains"),
        ("calibrate", "--max-doublings"), ("verify", "--tolerance-sigma"),
        ("verify", "--slope-tol"), ("calibrate", "--g-init")])
    def test_flag_of_a_key_the_command_does_not_read(self, command, flag, tmp_path,
                                                      capsys):
        """Each key is a flag of the commands that read it only: another
        command exits 2 naming the flag, not taking it for another."""
        config = {"network": {"model": "rayleigh"}, "sweep": {"gain_grid": [0.5]}}
        rc, err = self._run(command, config, tmp_path, capsys, (flag, "2"))
        assert rc == 2
        assert f"unrecognized arguments: {flag} 2" in err

    @pytest.mark.parametrize("command,flags,message", [
        *((command, ("--n", "500"), "run.n: growth_rate needs n_steps >= 1000, got 500")
          for command in ("lyapunov", "calibrate", "verify", "sweep")),
        *((command, ("--burn-in", "2000"),
           "run.burn_in: burn_in must be in [0, n_steps), got 2000")
          for command in ("lyapunov", "calibrate", "sweep")),
        ("verify", ("--burn-in", "1990"),
         "run.burn_in: series too short for a slope fit: 2000 points, burn_in 1990"),
    ], ids=("n-lyapunov", "n-calibrate", "n-verify", "n-sweep", "burn-in-lyapunov",
            "burn-in-calibrate", "burn-in-sweep", "burn-in-verify"))
    def test_run_length_named_by_its_key(self, command, flags, message, tmp_path, capsys):
        """A run too short for the estimators, or a burn-in that leaves
        too little of it, exits 2 naming its key before the output
        directory is made."""
        config = {"network": {"model": "rayleigh"}, "sweep": {"gain_grid": [0.5]}}
        rc, err = self._run(command, config, tmp_path, capsys, flags)
        assert rc == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("config,flags", [
        ({"network": {"model": "rayleigh"}}, ("--gain-grid", ",")),
        ({"network": {"model": "rayleigh"}, "sweep": {"gain_grid": []}}, ()),
    ], ids=("flag", "json"))
    def test_empty_gain_grid(self, config, flags, tmp_path, capsys, monkeypatch):
        """A grid given but empty is named as such, before any estimate."""
        monkeypatch.setattr(cli, "estimate_lambdas", _must_not_run)
        rc, err = self._run("sweep", config, tmp_path, capsys, flags)
        assert rc == 2
        assert err == "error: sweep.gain_grid: empty grid\n"

    def test_bad_output_dir_fails_before_compute(self, tmp_path, capsys, monkeypatch):
        """An --output-dir that cannot be made exits 2 naming it before the
        estimate runs."""
        monkeypatch.setattr(cli, "estimate_lambda", _must_not_run)
        path = tmp_path / "file"
        path.write_text("")
        rc = main(["lyapunov", "--model", "deterministic:c=1", "--n", "1000",
                   "--replicas", "1", "--output-dir", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("flag,text,name", [
        ("--config", None, "missing.cfg"),
        ("--config", None, "."),
        ("--config", '{"config_echo": 5}', "run.json"),
        ("--config", '{"network": {"model": "deterministic:c=1"}\n "run": {}}', "run.json"),
        ("--output-dir", "", "file"),
        ("--output-dir", "", "file/out"),
    ], ids=("config-missing", "config-directory", "config-echo-not-object",
            "config-broken-json", "output-dir-file", "output-dir-under-file"))
    def test_bad_path_named(self, flag, text, name, tmp_path, capsys):
        """A config file or output directory that cannot be used exits 2
        naming the path, with no traceback."""
        if text is not None:
            (tmp_path / name.split("/")[0]).write_text(text)
        path = tmp_path / name
        rc = main(["lyapunov", "--model", "deterministic:c=1", "--n", "1000",
                   "--replicas", "1", flag, str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and str(path) in err


# Run one command in a child forked from a small Python parent, so that
# the child's peak RSS is its own rather than the test process's, and print
# the exit status and the peak in kB.  argv: chunk steps, then the CLI's.
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    from fibrelay import cocycle
    from fibrelay.cli import main
    cocycle._CHUNK_STEPS = int(sys.argv[1])
    os._exit(main(sys.argv[2:]))
_, status, usage = os.wait4(pid, 0)
print(status, usage.ru_maxrss)
"""

# Run the engine passes of one simulate trajectory (Rayleigh, gain 0.6)
# without writing it, in a child forked like ``_PEAK_RSS``.  argv: chunk
# steps, chain length.
_ENGINE_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    import fibrelay.cli  # the modules a CLI run holds
    from fibrelay import ConstantGain, NetworkConfig, Rayleigh, cocycle
    cocycle._CHUNK_STEPS = int(sys.argv[1])
    config = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n_nodes=int(sys.argv[2]))
    for _ in cocycle._records(config, range(1)):
        pass
    os._exit(0)
_, status, usage = os.wait4(pid, 0)
print(status, usage.ru_maxrss)
"""

# Run the CLI (argv) with at most 64 open files.
_NOFILE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from fibrelay.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestStreamedOutput:
    """simulate's workers each stream the trajectories of one engine call
    to their part files, and the parent publishes the parts; every command
    publishes its files the same way."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_steps", [7, 64])
    def test_files_equal_whole_trajectory_text(self, workers, chunk_steps, tmp_path,
                                               monkeypatch, capsys):
        """Chunk edges (``chunk_steps`` nodes, node 1 leading the first
        chunk) and block edges (5 rows) fall inside the file and across
        each other."""
        from fibrelay import ConstantGain, NetworkConfig, cocycle, run_trajectory
        from fibrelay import _csv
        monkeypatch.setattr(cocycle, "_CHUNK_STEPS", chunk_steps)
        monkeypatch.setattr(_csv, "_BLOCK_ROWS", 5)
        rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--gain", "0.6", "--n", "150",
                   "--trajectories", "3", "--seed", "11", "--workers", str(workers),
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        config = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n_nodes=150, master_seed=11)
        names = [f"trajectory_{sid:03d}.csv" for sid in range(3)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", *names]
        for sid, name in enumerate(names):
            want = run_trajectory(config, sid).to_csv().encode("ascii")
            assert (tmp_path / name).read_bytes() == want

    @pytest.mark.parametrize("chunk_steps", [7, 200])
    def test_one_write_per_file_per_chunk(self, chunk_steps, tmp_path, monkeypatch, capsys):
        """Node 1 leads the first engine chunk: each file gets one
        ``write_rows`` call per chunk, numbered from the chunk's first
        node, 22 calls of a 150-node chain in 7-step chunks and one
        call in one chunk."""
        from fibrelay import _csv, cocycle
        monkeypatch.setattr(cocycle, "_CHUNK_STEPS", chunk_steps)
        write_rows = _csv.write_rows
        calls = {}

        def spy(file, columns, first=None):
            calls.setdefault(file.name, []).append((first, len(columns[0])))
            return write_rows(file, columns, first)

        monkeypatch.setattr(_csv, "write_rows", spy)
        assert cocycle._calls(150, 3) == [(range(1), range(3))]
        rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--n", "150",
                   "--trajectories", "3", "--workers", "1", "--output-dir", str(tmp_path)])
        assert rc == 0
        starts = [1, *range(2 + chunk_steps, 151, chunk_steps)]
        want = [(a, b - a) for a, b in zip(starts, [*starts[1:], 151])]
        assert len(want) == (22 if chunk_steps == 7 else 1)
        assert len(calls) == 3 and all(got == want for got in calls.values())

    def test_failed_publish_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """A write that fails (ENOSPC, say) removes the files written
        before it: the directory stays empty and nothing is printed.
        verify fails on its second file; simulate, whose workers wrote the
        trajectories, on the manifest, so it claims no written file."""
        write_bytes = cli.Path.write_bytes
        calls = []

        def failing(path, data):
            calls.append(path.name)
            if len(calls) == nth:
                raise OSError(28, "No space left on device", str(path))
            return write_bytes(path, data)

        monkeypatch.setattr(cli.Path, "write_bytes", failing)
        for args, nth in [
                (["verify", "--model", "deterministic:c=1", "--gain", "0.5",
                  "--n", "2000", "--replicas", "2"], 2),
                (["simulate", "--model", "rayleigh:mu=1.0", "--n", "150",
                  "--trajectories", "2"], 1)]:
            calls.clear()
            outdir = tmp_path / args[0]
            rc = main([*args, "--output-dir", str(outdir)])
            assert rc == 2
            assert len(calls) == nth
            out, err = capsys.readouterr()
            assert out == "" and "No space left" in err
            assert not list(outdir.iterdir())

    def test_peak_memory_flat_in_n(self, tmp_path):
        """Quadrupling the chain leaves simulate's own peak RSS where it
        was: the files are written a chunk at a time, also when one engine
        call runs three trajectories (15 fit at 2^14 chunk steps)."""
        for trajectories in (1, 3):
            peaks = []
            for n in (100_000, 400_000):
                out = subprocess.run(
                    [sys.executable, "-c", _PEAK_RSS, str(1 << 14), "simulate",
                     "--model", "rayleigh:mu=1.0", "--gain", "0.6", "--n", str(n),
                     "--trajectories", str(trajectories), "--workers", "1",
                     "--output-dir", str(tmp_path / f"{trajectories}-{n}")],
                    capture_output=True, text=True, check=True, env=child_env())
                status, peak_kb = map(int, out.stdout.splitlines()[-1].split())
                assert status == 0, out.stderr
                peaks.append(peak_kb / 1024)
            assert abs(peaks[1] - peaks[0]) < 10.0, (trajectories, peaks)

    def test_writing_holds_no_more_than_the_engine(self, tmp_path):
        """simulate derives a chunk's five columns one CSV block at a time:
        writing a 2^19-node chunk raises its own peak RSS less than 4 MB
        above that of the engine pass that made the records (it was 13 MB
        when the chunk's columns were derived at once)."""
        n, chunk = str((1 << 19) + 1), str(1 << 19)
        peaks = {}
        for name, argv in [
                ("engine", [_ENGINE_PEAK_RSS, chunk, n]),
                ("simulate", [_PEAK_RSS, chunk, "simulate", "--model", "rayleigh:mu=1.0",
                              "--gain", "0.6", "--n", n, "--trajectories", "1",
                              "--workers", "1", "--output-dir", str(tmp_path)])]:
            out = subprocess.run([sys.executable, "-c", *argv], capture_output=True,
                                 text=True, check=True, env=child_env())
            status, peak_kb = map(int, out.stdout.splitlines()[-1].split())
            assert status == 0, out.stderr
            peaks[name] = peak_kb / 1024
        assert peaks["simulate"] - peaks["engine"] < 4.0, peaks

    def test_open_files_bounded(self, tmp_path):
        """One engine call runs all 200 short trajectories, yet simulate
        holds one file open at a time: it succeeds under a limit of 64
        open files."""
        from fibrelay import ConstantGain, NetworkConfig, cocycle, run_trajectory
        assert cocycle._calls(50, 200) == [(range(1), range(200))]
        out = subprocess.run(
            [sys.executable, "-c", _NOFILE, "simulate", "--model", "rayleigh:mu=1.0",
             "--gain", "0.6", "--n", "50", "--trajectories", "200", "--seed", "11",
             "--workers", "1", "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        config = NetworkConfig(Rayleigh(1.0), ConstantGain(0.6), n_nodes=50, master_seed=11)
        for sid in range(200):
            want = run_trajectory(config, sid).to_csv().encode("ascii")
            assert (tmp_path / f"trajectory_{sid:03d}.csv").read_bytes() == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_passes_follow_the_call_plan(self, workers, tmp_path, monkeypatch,
                                                capsys):
        """Each engine pass of simulate runs one stream-id range of
        ``_calls``, in the parent or in a worker (which reports through a
        file); a lane budget of 6 replicas makes 3 calls at one worker and
        4 at two."""
        from fibrelay import cocycle
        monkeypatch.setattr(cocycle, "_BATCH_STEPS", 1000)
        log = tmp_path / "passes.txt"
        records = cocycle._records

        def spy(config, stream_ids):
            with open(log, "a") as file:
                file.write(f"{stream_ids.start} {stream_ids.stop}\n")
            return records(config, stream_ids)

        monkeypatch.setattr(cocycle, "_records", spy)
        rc = main(["simulate", "--model", "rayleigh:mu=1.0", "--n", "150",
                   "--trajectories", "13", "--workers", str(workers),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        plan = [f"{sids.start} {sids.stop}" for _, sids in cocycle._calls(150, 13, workers)]
        assert len(plan) == 2 + workers
        assert sorted(log.read_text().splitlines()) == sorted(plan)


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        for name in fibrelay.__all__:
            assert getattr(fibrelay, name) is not None, name

    def test_benchmark_hooks_resolve(self):
        """perfbench wraps these names in its preflight and traced runs, so
        renaming or deleting one breaks the benchmark rather than a test."""
        for name in ("cli.run_command", "cli._emit", "_kernels.info_steps",
                     "cocycle.run_trajectory", "cocycle.Trajectory.to_csv",
                     "coeffs.RngStream.generator", "calibrate.find_zero_lyapunov_gain",
                     "lyapunov.estimate_lambda", "laws.slope_estimate",
                     "_parallel.map_ordered", "config.parse_config"):
            module, *attrs = name.split(".")
            obj = importlib.import_module(f"fibrelay.{module}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            assert callable(obj), name

    def test_benchmark_preflight_import(self):
        """The benchmark's preflight reads ``fibrelay._kernels.info_steps``
        as an attribute after ``import fibrelay, fibrelay.cli`` in a fresh
        process, where ``import_module`` above would load the submodule
        itself; numba is never imported."""
        code = ("import sys, fibrelay, fibrelay.cli\n"
                "print(callable(fibrelay._kernels.info_steps), 'numba' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout == "True False\n"


class TestNumericalFailures:
    """Exit 0 with finite data, or exit 3 with a message, no traceback and
    no data file."""

    def _run(self, args, tmp_path, capsys):
        rc = main(args + ["--output-dir", str(tmp_path)])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("args,cause", [
        # coefficients of 5e-324 underflow the state to all zeros within a step
        (["lyapunov", "--model", "deterministic:c=5e-324", "--n", "2000",
          "--replicas", "1"], "left double range between renormalizations"),
        # a coefficient of 1e200 squares to inf in the noise cocycle, from
        # the first hop on
        (["simulate", "--model", "deterministic:c=1e200", "--n", "50"],
         "into node 2 or its square"),
        # every worker fails after opening its part file
        (["simulate", "--model", "deterministic:c=1e200", "--n", "50", "--trajectories", "3",
          "--workers", "2"], "into node 2 or its square"),
    ], ids=("lyapunov", "simulate", "simulate-workers-2"))
    def test_forced_overflow_exits_3(self, args, cause, tmp_path, capsys):
        rc, err = self._run(args, tmp_path, capsys)
        assert rc == 3
        assert err.startswith("error:") and cause in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        # the coefficient 1e300 * 1e10 is infinite before any step
        ["lyapunov", "--model", "deterministic:c=1e300", "--gain", "1e10", "--n", "2000"],
        # a magnitude below 0.5 times the gain 5e-324 rounds to 0
        ["lyapunov", "--model", "rayleigh:mu=1", "--gain", "5e-324", "--n", "2000"],
        # exp(1e300 * ndtri(u)) is 0 or inf
        ["lyapunov", "--model", "lognormal:m=0,s=1e300", "--n", "2000"],
        # the start is exp(-m) = 1, and the magnitudes are 0 or inf as above
        ["calibrate", "--model", "lognormal:m=0,s=1e300", "--n", "2000", "--replicas", "4"],
    ], ids=("infinite", "zero", "lognormal", "calibrate"))
    def test_source_hop_out_of_range_exits_3(self, args, tmp_path, capsys):
        """A source-hop coefficient outside double range is a numerical
        failure at node 1, not a configuration error or an overflow
        between renormalizations."""
        rc, err = self._run(args, tmp_path, capsys)
        assert rc == 3
        assert err.splitlines() == [SOURCE_HOP_ERROR]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,node", [
        # streams 0 and 1 of seed 6 first draw a magnitude above 1.8 (times
        # 1e308, infinite) for nodes 17 and 7
        (["lyapunov", "--model", "rayleigh:mu=1e308", "--n", "1000", "--replicas", "2"], 7),
        # the first engine call runs trajectory 0 alone
        (["simulate", "--model", "rayleigh:mu=1e308", "--n", "1000", "--trajectories", "3",
          "--workers", "2"], 17),
    ], ids=("lyapunov", "simulate-workers-2"))
    def test_infinite_hop_coefficient_names_its_node(self, args, node, tmp_path, capsys):
        """A hop coefficient infinite when drawn is named by its node, not
        as a state that left double range."""
        rc, err = self._run(args + ["--seed", "6"], tmp_path, capsys)
        assert rc == 3
        assert err.splitlines() == [
            f"error: a hop coefficient (magnitude * gain) into node {node} is not finite: "
            "the model's scale or the gain left double range; change the coefficient "
            "scale (model or gain)"]
        assert not list(tmp_path.iterdir())

    def test_overflowing_transform_warns_nothing(self, tmp_path, capsys):
        """Magnitudes that overflow in the transform are reported once, as
        the engine's non-finite state: under the tests' warnings-as-errors
        policy a numpy warning would escape ``main``."""
        rc, err = self._run(["lyapunov", "--model", "rayleigh:mu=1e308", "--n", "1000",
                             "--replicas", "2"], tmp_path, capsys)
        assert rc == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_signed_chain_through_exact_zeros_exits_0(self, capsys):
        """signed:p=0 meets an exact zero of the value every third node;
        its state norm does not, and reads rate 0 exactly."""
        rc = main(["lyapunov", "--model", "signed:p=0", "--validation", "--n", "2000",
                   "--replicas", "3"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert json.loads(out)["lambda_hat"] == 0.0
