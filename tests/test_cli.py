"""Config validation and artifacts of the command-line front end."""

import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from carnotlab import cli, preset, verify


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_group_of_other_dimension_is_rejected_before_any_output(kind, tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\ngroup = engel\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.cfg:3:" in err and "engel has dimension 4" in err
    assert not runs.exists()


def test_underdetermined_holder_fit_is_written_as_strict_json(tmp_path, monkeypatch):
    # one fp step gives one time gap, which fixes no Holder slope; `run`
    # rejects such a horizon, so the metric kind's own count reads 2 here
    cfg, _ = cli.load_config(cli.resolve_config("metric_demo"))
    cfg["dynamics"]["t_end"] = 0.0001
    monkeypatch.setattr(cli, "step_count", lambda *args: 2)
    _, run = cli.SCENARIOS["metric"](cfg, preset(cfg["scenario"]["group"]))
    outcome = run(str(tmp_path))
    cli._write_manifest(str(tmp_path), checks=outcome.checks)
    assert outcome.exit_code == cli.EXIT_INVARIANT

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
            for p in tmp_path.glob("*.json")}
    assert {"manifest.json", "metric_report.json"} <= set(docs)
    holder = docs["metric_report.json"]["holder"]
    assert holder["verdict"] == "underdetermined"
    assert holder["exponent"] is None
    (check,) = [c for c in docs["manifest.json"]["checks"]
                if c["name"] == "time_regularity_exponent"]
    assert check["value"] is None and not check["ok"]


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
@pytest.mark.parametrize("shape,message", [
    ("bump", "bump has no mass on this grid"),
    ("indicator", "indicator datum has no mass inside the box"),
])
def test_datum_without_mass_is_a_config_error_before_any_output(kind, shape, message,
                                                                  tmp_path, capsys):
    # a datum centred outside the box has no mass on the grid
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\n[data]\npreset = {shape}\n"
                   "center = 9.0 9.0 9.0\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"far.cfg: cannot build the scenario data: {message}" in err
    assert not runs.exists()


@pytest.mark.parametrize("old,new", [
    ("drift = 0.3 0.1", "drift = nan 0.1"),
    ("drift = 0.3 0.1", "drift = inf 0.1"),
    ("t_end = 0.1", "t_end = inf"),
    ("sigma = 0.25", "sigma = inf"),
], ids=["drift-nan", "drift-inf", "t_end-inf", "sigma-inf"])
def test_non_finite_number_is_rejected_before_any_output(old, new, tmp_path, capsys):
    with open(cli.resolve_config("fp_baseline"), encoding="utf-8") as fh:
        text = fh.read()
    assert old + "\n" in text
    cfg = tmp_path / "non_finite.cfg"
    cfg.write_text(text.replace(old + "\n", new + "\n"))
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "non_finite.cfg:" in err and "expected a finite number" in err
    assert not runs.exists()


@pytest.mark.parametrize("old,new", [
    ("nodes = 41", "nodes = 5"),
    ("sigma = 0.25", "sigma = 1e-9"),
], ids=["nodes-5", "sigma-1e-9"])
def test_heat_horizon_of_too_few_steps_is_rejected_before_any_output(old, new, tmp_path, capsys):
    # the decay ladder samples at least 4 stable steps in, before t_end
    with open(cli.resolve_config("heat_decay"), encoding="utf-8") as fh:
        text = fh.read()
    assert old + "\n" in text
    cfg = tmp_path / "short_ladder.cfg"
    cfg.write_text(text.replace(old + "\n", new + "\n"))
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "short_ladder.cfg:" in err and "t_end = 0.2 spans" in err and "sample ladder" in err
    assert not runs.exists()


def test_metric_horizon_of_one_step_is_rejected_before_any_output(tmp_path, capsys):
    # one density step gives the time-regularity fit one gap: no exponent
    cfg = tmp_path / "one_step.cfg"
    cfg.write_text("[scenario]\nkind = metric\n\n[grid]\nnodes = 5\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "one_step.cfg:" in err and "spans 1 stable step" in err and "fit needs 2" in err
    assert not runs.exists()


@pytest.mark.parametrize("kind, extent", [("hj", "1e-170"), ("heat", "1e-170"), ("heat", "1e-160"),
                                          ("heat", "1e200")])
def test_box_whose_spacing_squares_outside_the_floats_is_rejected_before_any_output(kind, extent,
                                                                                    tmp_path, capsys):
    # every stencil divides by h^2: h^2 underflows to 0 at 1e-170, 1/h^2
    # overflows at 1e-160 (h^2 is subnormal) and h^2 overflows at 1e200
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\n\n[grid]\nextent = {extent}\nnodes = 5\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "box.cfg: cannot build the scenario data" in err and "outside the float range" in err
    assert "Traceback" not in err and not runs.exists()


@pytest.mark.parametrize("text", [
    "[scenario]\nkind = fp\n\n[grid]\nnodes = 9\n\n[dynamics]\ndrift = 1e6 0\n",
    "[scenario]\nkind = heat\n\n[grid]\nnodes = 5\nextent = 1e-140\n",
    "[scenario]\nkind = hj\n\n[grid]\nnodes = 9\n\n[data]\namplitude = 1e6\nradius = 1.2\n\n"
    "[dynamics]\nt_end = 0.05\n",
], ids=["fp-drift-1e6", "heat-extent-1e-140", "hj-amplitude-1e6"])
def test_horizon_past_the_step_cap_is_rejected_before_any_output(text, tmp_path):
    # the drift asks for 500 001 stable steps, the tiny box for about
    # 2.5e279 and the steep value datum's feedback drift for 349 334:
    # none of the runs would end, so all stop at the step cap
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text)
    effective, errors = cli.load_config(str(cfg))
    assert not errors
    with pytest.raises(ValueError, match=f"stable steps on this grid; at most {cli.MAX_STEPS} run"):
        cli._scenario(effective)
    runs = tmp_path / "runs"
    code, outdir, summary = cli.execute_run(str(cfg), str(runs), None)
    assert (code, outdir) == (cli.EXIT_CONFIG, "")
    assert "long.cfg: cannot build the scenario data" in summary
    assert not runs.exists()


@pytest.mark.parametrize("text, where", [
    ("[scenario]\nkind = hj\n\n[grid]\nnodes = 9\n\n[data]\namplitude = 1e308\n", "steep.cfg:8:"),
    ("[scenario]\nkind = heat\n\n[grid]\nnodes = 21\n\n[dynamics]\nt_end = 0.2\n\n"
     "[data]\namplitude = 1e308\n", "steep.cfg:11:"),
    ("[scenario]\nkind = hj\n\n[grid]\nnodes = 9\n\n[dynamics]\ngamma = 7\n\n"
     "[data]\namplitude = 1e60\n", "steep.cfg:"),
], ids=["hj-amplitude-1e308", "heat-amplitude-1e308", "hj-gamma-7-nan-bound"])
def test_overflowing_datum_is_rejected_before_any_output(text, where, tmp_path, capfd):
    # the first two data overflow their mass, reported at the amplitude
    # line; the third's feedback drift overflows, so its step bound is NaN
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(text)
    runs = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, outdir, summary = cli.execute_run(str(cfg), str(runs), None)
    assert (code, outdir) == (cli.EXIT_CONFIG, "")
    assert f"{where} cannot build the scenario data" in summary
    assert capfd.readouterr().err == ""
    assert not runs.exists()


def test_energy_bounds_of_a_datum_near_the_float_limit_are_decided_on_finite_sums(tmp_path, capfd):
    # the mass is finite, so the run starts; the squares of the density
    # would overflow, so the energy report scales the trajectory first
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("[scenario]\nkind = fp\n\n[grid]\nnodes = 9\n\n[data]\namplitude = 1e306\n"
                   "normalize = false\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, outdir, summary = cli.execute_run(str(cfg), str(tmp_path / "runs"), None)
    assert code == cli.EXIT_INVARIANT
    assert capfd.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads((Path(outdir) / "manifest.json").read_text())["checks"]}
    assert not checks["negativity_floor"]["ok"]
    assert all(c["value"] is not None for c in checks.values())
    assert checks["energy_bounds_hold"]["value"] == 1.0


def test_negative_seed_is_a_usage_error_before_any_output(tmp_path, capsys):
    runs = tmp_path / "runs"
    with pytest.raises(SystemExit) as stop:
        cli.main(["run", "metric_demo", "--seed", "-1", "--output-dir", str(runs)])
    assert stop.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "argument --seed" in err and "'-1'" in err and "Traceback" not in err
    assert not runs.exists()


def test_verify_output_of_numpy_scalars_is_strict_json(tmp_path, monkeypatch, capsys):
    # suites measure with numpy: their values and verdicts arrive as
    # numpy scalars, an infinite value among them
    def fake_suite():
        peak = np.float64(0.5)
        return (
            verify.Check("peak", peak, "<= 1", peak <= 1.0),
            verify.Check("unbounded", np.float64(np.inf), "reported", np.bool_(True)),
        ), ()

    monkeypatch.setitem(verify.SUITES, "fake", fake_suite)
    runs = tmp_path / "runs"
    assert cli.main(["verify", "fake", "--output-dir", str(runs)]) == cli.EXIT_OK
    (outdir,) = runs.iterdir()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
            for p in outdir.glob("*.json")}
    assert set(docs) == {"manifest.json", "suite_fake.json"}
    assert docs["manifest.json"]["passed"] is True
    checks = docs["suite_fake.json"]["checks"]
    assert [(c["value"], c["ok"]) for c in checks] == [(0.5, True), (None, True)]


def test_mfg_solver_stop_ends_in_exit_2_and_a_failed_audit(tmp_path, capsys):
    # the coupling overwhelms the Picard step: a sweep's backward solve stops
    # on the step bound, so no backward solve pairs with the final density
    text = open(cli.resolve_config("mfg_small_T")).read()
    for old, new in (("nodes = 21", "nodes = 11"), ("gain = 1.0", "gain = 1e5"),
                     ("eps = 0.8", "eps = 1.3")):
        assert old + "\n" in text
        text = text.replace(old + "\n", new + "\n")
    cfg = tmp_path / "mfg_stiff.cfg"
    cfg.write_text(text)
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "Traceback" not in out + err
    (outdir,) = runs.iterdir()
    manifest = json.loads((outdir / "manifest.json").read_text())
    (audit,) = [c for c in manifest["checks"] if c["name"] == "audit_ok"]
    assert not audit["ok"]
    assert sorted(manifest["artifacts"]) == sorted(
        p.name for p in outdir.iterdir() if p.name != "manifest.json")
    # every check reports a number, and the run says why the solver stopped
    assert all(c["value"] is not None for c in manifest["checks"])
    assert any(n.startswith("solver stopped:") for n in manifest["notes"])
    assert "note: solver stopped:" in (outdir / "summary.txt").read_text()


def test_stepping_solver_stop_ends_in_exit_2_with_a_complete_manifest(tmp_path, capsys):
    # the heat step on a 0.01 box overflows: the run must end as a solver
    # stop that warns nothing and says where it stopped
    cfg = tmp_path / "heat_tiny.cfg"
    cfg.write_text("[scenario]\nkind = heat\n\n[grid]\nnodes = 9\nextent = 0.01\n")
    runs = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "Traceback" not in out and err == ""
    (outdir,) = runs.iterdir()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["exit_code"] == cli.EXIT_NO_CONVERGENCE
    assert sorted(manifest["artifacts"]) == sorted(
        p.name for p in outdir.iterdir() if p.name != "manifest.json")
    assert all(c["value"] is not None for c in manifest["checks"])
    (note,) = [n for n in manifest["notes"] if n.startswith("solver stopped:")]
    assert re.search(r"non-finite values \(step \d+ of \d+, from t = [0-9.e-]+\)$", note)
    assert f"note: {note}" in (outdir / "summary.txt").read_text()


def test_heat_datum_near_the_float_limit_passes_without_a_warning(tmp_path, capsys):
    # |grad u|^2 of a 1e300 datum overflows though grad u does not: the
    # decay fit must see a finite sup, with no warning on stderr
    cfg = tmp_path / "heat_huge.cfg"
    cfg.write_text("[scenario]\nkind = heat\n\n[grid]\nnodes = 21\n\n"
                   "[dynamics]\nt_end = 0.2\n\n[data]\namplitude = 1e300\n")
    runs = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK, out
    assert err == ""
    (outdir,) = runs.iterdir()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert all(c["ok"] and c["value"] is not None for c in manifest["checks"])


def test_run_starts_no_more_workers_than_configs(tmp_path, monkeypatch, serial_pool, capsys):
    # a process pool starts all max_workers processes at its first submit
    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    runs = tmp_path / "runs"
    code = cli.main(["run", "heat_decay", "fp_baseline", "--jobs", "8", "--output-dir", str(runs)])
    assert code == cli.EXIT_OK
    assert serial_pool.sizes == [2]
    assert sorted(p.name.split("-")[0] for p in runs.iterdir()) == ["fp_baseline", "heat_decay"]


def test_schema_lists_every_section_and_default(capsys):
    assert cli.main(["schema"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for section, keys in cli.SCHEMA.items():
        assert f"[{section}]" in lines
        for key, (default, *_) in keys.items():
            assert f"{key} = {default}" in lines


def test_key_its_kind_does_not_read_is_rejected_before_any_output(tmp_path, capsys):
    # none of the four keys has any effect on a heat run
    cfg = tmp_path / "unread.cfg"
    cfg.write_text("[scenario]\nkind = heat\n\n[grid]\nnodes = 21\n\n"
                   "[dynamics]\nt_end = 0.2\ngamma = 7\neps = 0.01\ndrift = 5 5\n\n"
                   "[tolerances]\ntol_u = 1e-30\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    for line, section, key in ((9, "dynamics", "gamma"), (10, "dynamics", "eps"),
                               (11, "dynamics", "drift"), (14, "tolerances", "tol_u")):
        assert f"unread.cfg:{line}: [{section}] {key}: kind heat does not read it" in err
    assert not runs.exists()


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_every_key_written_at_its_default_validates(kind, tmp_path):
    # a config written out in full, as perfbench's worker writes one, is accepted
    lines = []
    for section, keys in cli.SCHEMA.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {kind if key == 'kind' else default}"
                     for key, (default, *_) in keys.items())
    cfg = tmp_path / "full.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    effective, errors = cli.load_config(str(cfg))
    assert errors == []
    assert effective["scenario"]["kind"] == kind


@pytest.mark.parametrize("command", [["run", "heat_decay", "fp_baseline"], ["verify", "all"]])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error_before_any_process(command, jobs, tmp_path, monkeypatch,
                                                            serial_pool, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    runs = tmp_path / "runs"
    with pytest.raises(SystemExit) as stop:
        cli.main(command + ["--jobs", jobs, "--output-dir", str(runs)])
    assert stop.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "argument --jobs" in err and f"'{jobs}'" in err and "Traceback" not in err
    assert serial_pool.sizes == [] and not runs.exists()


def test_verify_spreads_the_suites_over_one_pool_in_registry_order(tmp_path, monkeypatch,
                                                                  serial_pool, capsys):
    def fake(value):
        return lambda: ((verify.Check("value", value, "<= 3", value <= 3),), ())

    monkeypatch.setattr(verify, "SUITES", {"c": fake(1.0), "a": fake(2.0), "b": fake(3.0)})
    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    runs = tmp_path / "runs"
    assert cli.main(["verify", "all", "--jobs", "8", "--output-dir", str(runs)]) == cli.EXIT_OK
    assert serial_pool.sizes == [3]
    heads = [line for line in capsys.readouterr().out.splitlines() if ": PASS (" in line]
    assert [head.split(":")[0] for head in heads] == ["c", "a", "b"]
    (outdir,) = runs.iterdir()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["suites"] == ["c", "a", "b"]
    assert sorted(manifest["artifacts"]) == ["suite_a.json", "suite_b.json", "suite_c.json"]
    for name, value in zip("cab", (1.0, 2.0, 3.0)):
        doc = json.loads((outdir / f"suite_{name}.json").read_text())
        assert doc["suite"] == name and doc["checks"][0]["value"] == value

    assert cli.main(["verify", "nosuch", "--jobs", "2"]) == cli.EXIT_CONFIG
    assert "unknown suite 'nosuch'" in capsys.readouterr().err
    assert serial_pool.sizes == [3]


class _ReadRecorder(dict):
    """A config section that records the (section, key) of every key read from it."""

    def __init__(self, section, keys, reads):
        super().__init__(keys)
        self.section, self.reads = section, reads

    def __getitem__(self, key):
        self.reads.add((self.section, key))
        return super().__getitem__(key)


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_each_kind_reads_exactly_the_keys_its_schema_rows_name(kind, tmp_path):
    # building and running a bundled config of the kind reads each key whose
    # SCHEMA row names the kind, and no other ([scenario] aside)
    configs = [cli.load_config(cli.resolve_config(name))[0] for name in cli.bundled_configs()]
    (cfg,) = [c for c in configs if c["scenario"]["kind"] == kind]
    reads = set()
    recorded = {section: _ReadRecorder(section, keys, reads) for section, keys in cfg.items()}
    _, run = cli.SCENARIOS[kind](recorded, preset(cfg["scenario"]["group"]))
    run(str(tmp_path))
    declared = {(section, key) for section, keys in cli.SCHEMA.items() if section != "scenario"
                for key, (*_, used) in keys.items() if kind in used}
    assert {(s, k) for s, k in reads if s != "scenario"} == declared


def test_seed_option_leaves_a_kind_that_reads_no_seed_as_written(tmp_path):
    plain, seeded = tmp_path / "plain", tmp_path / "seeded"
    for extra, runs in (([], plain), (["--seed", "5"], seeded)):
        assert cli.main(["run", "heat_decay", *extra, "--output-dir", str(runs)]) == cli.EXIT_OK
    (a,), (b,) = plain.iterdir(), seeded.iterdir()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_seed_option_runs_the_metric_kind_as_a_config_that_sets_it(tmp_path):
    text = Path(cli.resolve_config("metric_demo")).read_text()
    assert "seed = 0\n" in text
    copy = tmp_path / "metric_demo.cfg"
    copy.write_text(text.replace("seed = 0\n", "seed = 5\n"))
    by_option, by_config = tmp_path / "by_option", tmp_path / "by_config"
    for argv, runs in ((["metric_demo", "--seed", "5"], by_option), ([str(copy)], by_config)):
        assert cli.main(["run", *argv, "--output-dir", str(runs)]) == cli.EXIT_OK
    (a,), (b,) = by_option.iterdir(), by_config.iterdir()
    assert json.loads((b / "manifest.json").read_text())["seed"] == 5
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_verify_lets_a_suite_error_propagate(monkeypatch):
    # a name check failing is a usage error; a suite failing is not
    def failing_suite():
        raise ValueError("a solver found a negative density")

    monkeypatch.setitem(verify.SUITES, "failing", failing_suite)
    with pytest.raises(ValueError, match="a solver found a negative density"):
        cli.main(["verify", "failing"])


def _with_stdout_closed(args, cwd):
    """Run the command line in a fresh interpreter whose stdout pipe is closed
    before it writes; returns (exit status, stderr)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(cwd / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "carnotlab.cli", *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        proc.stdout.close()
        status = proc.wait(timeout=120)
        err.seek(0)
        return status, err.read().decode()


@pytest.mark.parametrize("args, written", [
    (["schema"], []),
    (["run", "heat_decay", "--output-dir", "D"], ["manifest.json", "summary.txt"]),
    (["verify", "group_algebra", "--output-dir", "D"], ["manifest.json", "suite_group_algebra.json"]),
], ids=["schema", "run", "verify"])
def test_a_closed_stdout_ends_quietly_with_every_artifact_written(args, written, tmp_path):
    status, err = _with_stdout_closed(args, tmp_path)
    assert status == -signal.SIGPIPE
    assert err == ""
    if written:
        (outdir,) = (tmp_path / "D").iterdir()
        assert set(written) <= {p.name for p in outdir.iterdir()}
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted(
            p.name for p in outdir.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("below", ["", "runs"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_into_an_unusable_output_dir_stops_before_any_solve(jobs, below, tmp_path, monkeypatch,
                                                                 serial_pool, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    runs = blocker / below if below else blocker
    built = []
    monkeypatch.setitem(cli.SCENARIOS, "heat", lambda cfg, group: built.append(cfg))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    code = cli.main(["run", "heat_decay", "--jobs", jobs, "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert str(runs) in line and "not a directory" in line
    assert built == [] and serial_pool.sizes == []
    assert blocker.is_file()


def test_verify_into_an_unusable_output_dir_stops_before_any_suite(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    called = []

    def fake_suite():
        called.append(True)
        return (verify.Check("value", 1.0, "<= 1", True),), ()

    monkeypatch.setattr(verify, "SUITES", {"fake": fake_suite})
    assert cli.main(["verify", "fake", "--output-dir", str(blocker)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert str(blocker) in line and "not a directory" in line
    assert out == "" and called == [] and blocker.is_file()
