import contextlib
import csv
import dataclasses
import json
import os
import time
import warnings

import pytest

from quditfft import cli
from quditfft.cli import MODES, RunConfig, build_parser, main, render_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_mode_passes_and_reports_schema(capsys):
    code, out, err = run_cli(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 2
    assert report["mode"] == "verify-qft"
    assert report["passed"] is True
    assert report["config"]["d"] == 3
    assert report["results"]["max_entry_err"] < 1e-10


def test_mode_flag_selects_runner(capsys):
    code, out, _ = run_cli(capsys, "--mode", "wavepacket", "--d", "5")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["unitarity_err"] < 1e-12
    assert report["results"]["cycling_err"] < 1e-12


def test_pulse_mode_reports_monotone_sweep(capsys):
    code, out, _ = run_cli(capsys, "--mode", "pulse", "--d", "3")
    assert code == 0
    report = json.loads(out)
    sweep = report["results"]["leakage_sweep"]
    assert sweep["monotone_decreasing"] is True
    assert len(sweep["leakage"]) == 8
    assert report["results"]["two_level_pi_error"] < 1e-8


def test_iontrap_mode_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "iontrap", "d": 2, "n_bar": 2.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["fidelity"] > 1.0 - 1e-9
    assert report["results"]["trap_residual_max"] < 1e-10


def test_full_mode_aggregates_sections(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"mode": "full", "d": 2, "n_bar": 2.0, "t_rev_ratio": 100.0})
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    for section in ("verify_qft", "wavepacket", "pulse", "iontrap"):
        assert report["results"][section]["passed"] is True
    # the revival ratio also turns on the dispersion sweep
    assert "dispersion_fidelity_vs_t_rev" in report["results"]["wavepacket"]["results"]


def test_full_mode_runs_the_layer_table_in_order(tmp_path, capsys):
    # one section per layer mode, named by the mode with "-" as "_", in results and in CSV rows alike
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "--mode", "full", "--d", "2", "--csv", str(csv_path))
    assert code == 0
    sections = [mode.replace("-", "_") for mode in MODES if mode != "full"]
    assert sorted(json.loads(out)["results"]) == sorted(sections)
    with open(csv_path, newline="") as fh:
        assert list(dict.fromkeys(row["section"] for row in csv.DictReader(fh))) == sections


def test_failing_check_exits_one(tmp_path, capsys):
    # strong quadratic dispersion ruins the composed-gate fidelity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "iontrap",
                "d": 2,
                "n_bar": 2.0,
                "truncation": "revival",
                "t_rev_ratio": 20.0,
            }
        )
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["results"]["fidelity"] < 0.9


def test_nonphysical_fidelity_above_one_fails(tmp_path, capsys, monkeypatch):
    # the fidelity check is two-sided: F = 1.5 is as wrong as F = 0.5
    real = cli.verify_hybrid_gate

    def inflated(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), fidelity=1.5)

    monkeypatch.setattr(cli, "verify_hybrid_gate", inflated)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "full", "d": 2, "n_bar": 2.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 1
    report = json.loads(out)
    assert report["results"]["iontrap"]["results"]["fidelity"] == 1.5
    assert report["results"]["iontrap"]["passed"] is False
    for section in ("verify_qft", "wavepacket", "pulse"):
        assert report["results"][section]["passed"] is True
    assert report["passed"] is False


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # eta, nu_x and omega_e were trap knobs that changed nothing; they are gone
    for key in ("bogus_knob", "eta", "nu_x", "omega_e"):
        cfg.write_text(json.dumps({"mode": "verify-qft", key: 0.1}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"unknown config keys: {key}" in err


def test_bad_config_values_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "warp"}))
    assert run_cli(capsys, "--config", str(cfg))[0] == 2
    cfg.write_text("not json {")
    assert run_cli(capsys, "--config", str(cfg))[0] == 2
    cfg.write_text(json.dumps([1, 2]))
    assert run_cli(capsys, "--config", str(cfg))[0] == 2
    assert run_cli(capsys, "--config", str(tmp_path / "missing.json"))[0] == 2
    cfg.write_text(json.dumps({"d": 1}))
    assert run_cli(capsys, "--config", str(cfg))[0] == 2


@pytest.mark.parametrize("key", ["pulse_area", "tolerance", "omega_ge", "n_bar", "t_rev_ratio", "d"])
# a JSON integer beyond the float range is no finite number either
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="1e400")])
def test_non_finite_config_values_exit_two_naming_the_field(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"mode": "full", "{key}": {value}}}')
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{key} must be finite" in err


@pytest.mark.parametrize(
    "key,value",
    [("d", 2.5), ("q", "3"), ("n_samples", 2.5), ("seed", 1.5), ("d", True), ("multiplicity", None),
     ("tolerance", "1e-10"), ("n_samples", 0), ("n_samples", -3), ("tolerance", -1.0), ("tolerance", 0),
     # read only by the trap gate or the pulse runner, yet rejected in every mode
     ("multiplicity", 0), ("kepler_periods", 0.5), ("omega_ge", 0.0), ("omega_ge", 1e155), ("pulse_shape", "triangle"),
     ("n_bar", -1), ("n_bar", 0), ("n_bar", 1e200), ("seed", -1),
     ("pulse_duration_ratio", 0), ("pulse_duration_ratio", -1), ("kepler_periods", 1e299)],
)
def test_bad_config_types_and_ranges_exit_two_naming_the_field(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    for mode in (None, "iontrap"):
        cfg.write_text(json.dumps({key: value} if mode is None else {"mode": mode, key: value}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must be")


@pytest.mark.parametrize(
    "bad,field",
    [({"truncation": "revival"}, "t_rev"), ({"t_rev_ratio": -1}, "t_rev"), ({"t_sr_ratio": 0}, "t_sr"),
     ({"truncation": "super-revival", "t_rev_ratio": 1}, "t_sr")],
)
def test_bad_spectrum_terms_exit_two_in_every_mode(tmp_path, capsys, bad, field):
    # the spectrum is built by the wave-packet layer's rules even where no mode reads it
    cfg = tmp_path / "cfg.json"
    for mode in MODES:
        cfg.write_text(json.dumps({"mode": mode, **bad}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("pair", [{"control_index": 5}, {"target_index": 0}, {"control_index": -1}])
def test_bad_gate_qudits_exit_two_in_every_mode(tmp_path, capsys, pair):
    # only the iontrap runner reads the indices, yet every mode rejects them
    cfg = tmp_path / "cfg.json"
    for mode in MODES:
        cfg.write_text(json.dumps({"mode": mode, **pair}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: need 0 <= control_index l < target_index m")


def test_target_index_widens_the_trap_register():
    cfg = RunConfig(q=2, control_index=1, target_index=3)
    cfg.validate()
    assert cfg.trap_q == 4


def test_fractional_kepler_periods_warns_and_fails_the_gate(tmp_path, capsys):
    # a count >= 1 passes validation, but the closing swap misses the turning point
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "iontrap", "d": 2, "kepler_periods": 1.5}))
    with pytest.warns(UserWarning, match="kepler_periods=1.5 is not an integer"):
        code, out, _ = run_cli(capsys, "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_gate_times_beyond_exact_frame_phases_exit_two(tmp_path, capsys):
    # the gate's pulse times stay below d^2 (kepler_periods + 1) T_K, which at d = 3 must stay below the
    # 1.339e300 from which they cannot be split for exact frame phases: n_bar is named when even one-period
    # runs pass it (n_bar >= 2.28e99), kepler_periods when fewer periods would not (2e99 at two periods)
    cfg = tmp_path / "cfg.json"
    for mode in MODES:
        for n_bar, field in ((1e100, "n_bar"), (5e99, "n_bar"), (2e99, "kepler_periods")):
            cfg.write_text(json.dumps({"mode": mode, "n_bar": n_bar}))
            code, out, err = run_cli(capsys, "--config", str(cfg))
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {field} must be")
    for config in ({"n_bar": 1e99}, {"n_bar": 2e99, "kepler_periods": 1}):
        cfg.write_text(json.dumps({"mode": "iontrap", **config}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, "--config", str(cfg))[0] == 0


@pytest.mark.parametrize("config", [{"n_bar": 1e-110}, {"mode": "iontrap", "n_bar": 1e-102}])
def test_n_bar_too_small_for_finite_frequencies_exits_two_naming_it(tmp_path, capsys, config):
    # 2π n̄³ underflows below the smallest normal float at 1e-110; at 1e-102 it does not, but the level
    # frequencies j / n̄³ pass the 1.339e300 from which the trap's frame phases cannot be split
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for mode in ("verify-qft", "wavepacket", "pulse", "iontrap"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--mode", mode, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_bar must be")


@pytest.mark.parametrize("config, field", [
    ({"truncation": "revival", "t_rev_ratio": 5e-324}, "t_rev_ratio"),
    ({"truncation": "super-revival", "t_rev_ratio": 20, "t_sr_ratio": 5e-324}, "t_sr_ratio"),
])
def test_revival_term_overflowing_the_frequencies_exits_two_naming_its_ratio(tmp_path, capsys, config, field):
    # at n_bar = 5 the Kepler term j / T_K is small; the curvature j² / (2 T_rev) or the super-revival
    # term j³ / (6 T_sr) overflows, so its ratio is named and not n_bar
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for mode in ("wavepacket", "pulse", "iontrap"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--mode", mode, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be large enough")
        assert f"{field} = 5e-324" in err


def test_huge_multiplicity_runs_to_a_failed_gate(tmp_path, capsys):
    # a 2^62-cycle drive would run to a gate failed on rounding alone: past 2^32 the dialed phase carries
    # more rounding than the gate's tolerance allows, so the config is refused before any schedule is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "iontrap", "multiplicity": 2**62}))
    code, out, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: multiplicity must be")


def test_first_refused_multiplicity_exits_two_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for p, code in ((2**32, 0), (2**32 + 1, 2)):
        cfg.write_text(json.dumps({"mode": "iontrap", "multiplicity": p}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a drive that long outlasts the sideband window
            got, out, err = run_cli(capsys, "--config", str(cfg))
        assert got == code
        assert err.startswith("error: multiplicity must be") == (code == 2)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_pulse_duration_flag_exits_two(capsys, value):
    code, out, err = run_cli(capsys, "--mode", "pulse", "--pulse-duration", value)
    assert code == 2
    assert out == ""
    assert "pulse_duration_ratio must be finite" in err


def test_register_cap_env_var_guards_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUDITFFT_MAX_AMPS", "16")
    code, _, err = run_cli(capsys, "--d", "2", "--q", "5")
    assert code == 2
    assert "QUDITFFT_MAX_AMPS" in err
    code, out, _ = run_cli(capsys, "--d", "2", "--q", "4")
    assert code == 0
    # a huge q hits the cap message, not Python's int-to-string limit
    monkeypatch.delenv("QUDITFFT_MAX_AMPS")
    code, _, err = run_cli(capsys, "--q", "100000000")
    assert code == 2
    assert "QUDITFFT_MAX_AMPS" in err


@pytest.mark.parametrize("extra", [{"q": 100000000}, {"target_index": 1000000}])
def test_register_cap_exits_two_in_every_mode(tmp_path, capsys, extra):
    # the gate register d**q and the trap register d**trap_q are capped even where no mode builds them
    cfg = tmp_path / "cfg.json"
    for mode in MODES:
        cfg.write_text(json.dumps({"mode": mode, **extra}))
        code, out, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "QUDITFFT_MAX_AMPS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "wavepacket", "--d", "20000"),
        ("--mode", "pulse", "--d", "20000"),
        ("--mode", "verify-qft", "--d", "1000000", "--q", "1"),
        ("--mode", "iontrap", "--d", "100"),
    ],
)
def test_large_d_exits_two_before_allocating(capsys, argv):
    # each would ask for gigabytes: a d x d kernel, or the trap's d**2 stack
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "QUDITFFT_MAX_AMPS" in err


def test_out_file_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "points.csv"
    code, out, _ = run_cli(
        capsys, "--mode", "pulse", "--out", str(out_path), "--csv", str(csv_path)
    )
    assert code == 0
    assert out == ""  # report went to the file instead
    report = json.loads(out_path.read_text())
    assert report["schema"] == 2
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert "leakage" in rows[0]
    # each file is a plain new file at its path with the mode open() gives it, and nothing is left beside it
    umask = os.umask(0)
    os.umask(umask)
    assert {path.stat().st_mode & 0o777 for path in (out_path, csv_path)} == {0o666 & ~umask}
    assert sorted(tmp_path.iterdir()) == [csv_path, out_path]


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_exits_two_naming_it(tmp_path, capsys, flag):
    path = tmp_path / "no such dir" / "report"
    code, _, err = run_cli(capsys, "--mode", "pulse", flag, str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("bad", ["--out", "--csv"])
def test_unwritable_output_path_fails_before_the_run_and_writes_neither(tmp_path, capsys, monkeypatch, bad):
    def ran(cfg):
        raise AssertionError("the mode ran")

    monkeypatch.setitem(cli._LAYERS, "pulse", ran)
    paths = {"--out": tmp_path / "ok.json", "--csv": tmp_path / "ok.csv", bad: tmp_path / "no such dir" / "x"}
    code, out, err = run_cli(capsys, "--mode", "pulse", *(str(arg) for pair in paths.items() for arg in pair))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {paths[bad]}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_existing_outputs_as_they_were(tmp_path, capsys, monkeypatch):
    def fails(cfg):
        raise ValueError("no such physics")

    monkeypatch.setitem(cli._LAYERS, "pulse", fails)
    out_path, csv_path = tmp_path / "report.json", tmp_path / "points.csv"
    out_path.write_text("old report")
    csv_path.write_text("old rows")
    code, out, err = run_cli(capsys, "--mode", "pulse", "--out", str(out_path), "--csv", str(csv_path))
    assert code == 2
    assert err == "error: no such physics\n"
    assert out_path.read_text() == "old report"
    assert csv_path.read_text() == "old rows"
    assert sorted(tmp_path.iterdir()) == [csv_path, out_path]


def test_existing_outputs_are_rewritten_in_place(tmp_path, capsys):
    # a symlink keeps its link and its target takes the report; an existing file keeps its mode, loses its content
    target, link, csv_path = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "points.csv"
    target.write_text("old report")
    link.symlink_to(target)
    csv_path.write_text("old rows " * 1000)
    csv_path.chmod(0o600)
    code, _, _ = run_cli(capsys, "--mode", "pulse", "--out", str(link), "--csv", str(csv_path))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["mode"] == "pulse"
    assert csv_path.stat().st_mode & 0o777 == 0o600
    assert csv_path.read_text().startswith("duration_over_t_kepler,leakage")
    assert "old rows" not in csv_path.read_text()
    assert sorted(tmp_path.iterdir()) == [link, csv_path, target]


def test_pipe_output_is_written_through(capsys):
    # a path that names an open pipe, as a shell's process substitution gives, is written, not replaced
    r, w = os.pipe()
    try:
        code, out, _ = run_cli(capsys, "--mode", "pulse", "--out", f"/dev/fd/{w}")
        os.close(w)
        with os.fdopen(r) as fh:
            report = json.loads(fh.read())
    finally:
        for fd in (r, w):
            with contextlib.suppress(OSError):
                os.close(fd)
    assert code == 0
    assert out == ""
    assert report["mode"] == "pulse"


def test_reports_are_byte_identical_across_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "--mode", "full", "--d", "2", "--seed", "7",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_overridden_by_flags(tmp_path, capsys):
    # every flag that names a RunConfig field overrides the config file's value, and only that one
    cfg = tmp_path / "cfg.json"
    base = {"mode": "verify-qft", "d": 2, "q": 3, "seed": 5, "truncation": "kepler", "t_rev_ratio": 100.0,
            "pulse_duration_ratio": 0.05}
    for flag, key, value in [("--mode", "mode", "wavepacket"), ("--d", "d", 4), ("--q", "q", 2), ("--seed", "seed", 7),
                             ("--spectrum-truncation", "truncation", "revival"),
                             ("--pulse-duration", "pulse_duration_ratio", 0.02)]:
        cfg.write_text(json.dumps(base))
        code, out, _ = run_cli(capsys, "--config", str(cfg), flag, str(value))
        assert code == 0
        got = json.loads(out)["config"]
        assert got == {**got, **base, key: value}


def test_pulse_duration_flag_feeds_chosen_leakage(capsys):
    code, out, _ = run_cli(capsys, "--mode", "pulse", "--pulse-duration", "0.02")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["pulse_duration_ratio"] == 0.02
    assert report["results"]["chosen_leakage"] < 0.01


def test_long_pulse_exits_at_once(tmp_path, capsys):
    # a square pulse is exact at any length; a gaussian one needs RK4 steps
    # beyond MAX_RK4_STEPS and is refused instead of running for hours
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--mode", "pulse", "--pulse-duration", "1e6")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["config"]["pulse_duration_ratio"] == 1e6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pulse_shape": "gaussian"}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--mode", "pulse", "--pulse-duration", "1e6", "--config", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "MAX_RK4_STEPS" in err


def test_render_report_is_sorted_and_newline_terminated():
    cfg = RunConfig()
    text = render_report(cfg, {"b": 1, "a": 2}, True)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["results"] == {"a": 2, "b": 1}
    keys = list(json.loads(text, object_pairs_hook=lambda p: [k for k, _ in p]))
    assert keys == sorted(keys)


def test_parser_exposes_documented_flags():
    parser = build_parser()
    text = parser.format_help()
    for flag in ("--mode", "--config", "--d", "--q", "--seed", "--out",
                 "--spectrum-truncation", "--pulse-duration", "--csv"):
        assert flag in text
    assert set(MODES) == {"verify-qft", "wavepacket", "pulse", "iontrap", "full"}
