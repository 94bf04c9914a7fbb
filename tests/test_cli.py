"""Command-line interface: simulate/check round trips, exit codes, frame IO,
tamper detection, the certificate registry and standalone distances."""

import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from varimcf import cli, config, flow
from varimcf.barriers import BarrierFunction
from varimcf.cli import (Settings, _frame_header, _load_table,
                         _measure_header, _save_table, _write_trace,
                         load_manifest, load_trace, main)
from varimcf.config import DEFECT_SAMPLES, TECHNICAL_SAMPLES
from varimcf.errors import ConfigError, VarimcfError
from varimcf.flow import (FlowConfig, FlowTrace, Snapshot, brakke_residual,
                          run, sample)
from varimcf.geometry import (SurfaceMesh, mesh_to_varifold,
                              volume_change_constant)
from varimcf.metrics import _SEED_NEIGHBOURS, _seed_pairs
from varimcf.mollifier import (Mollifier, QuadratureGrid, _Lattice,
                               curvature_with_jacobian)
from varimcf.presets import make_preset
from varimcf.varifold import DiscreteVarifold, projections_from_bases


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One recorded circle run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("cli") / "circle-run"
    rc = main(["simulate", "--preset", "circle", "--out", str(out),
               "--eps", "0.1", "--dt", "0.002", "--end-time", "0.02",
               "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def still_dir(tmp_path_factory):
    """A zero-step run: initial snapshot only."""
    out = tmp_path_factory.mktemp("cli-still") / "still"
    rc = main(["simulate", "--preset", "circle", "--out", str(out),
               "--end-time", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    """A short recorded two-flow run (inner and outer circle)."""
    out = tmp_path_factory.mktemp("cli-pair") / "pair"
    rc = main(["simulate", "--preset", "two-concentric-circles",
               "--out", str(out), "--end-time", "0.008"])
    assert rc == 0
    return out


def manifest_of(path: Path) -> dict:
    return json.loads((path / "manifest.json").read_text())


def save_measure(path: Path, points, weights) -> None:
    points = np.asarray(points, dtype=float)
    _save_table(path, _measure_header(points.shape[1] + 1),
                np.column_stack([points, weights]))


def frame_masses(run_dir: Path, record: dict) -> list[float]:
    """Total mass of each frame a trace record lists, read from its m column."""
    n = record["ambient_dimension"]
    return [float(_load_table(run_dir / f, _frame_header(n))[:, n + n * n].sum())
            for f in record["frames"]]


def window_ini(directory: Path, radius, center="0,0") -> Path:
    """An INI file that sets the window `volume-change` grades in."""
    ini = directory / "window.ini"
    ini.write_text(f"[certificates]\nball_center = {center}\n"
                   f"ball_radius = {radius}\n")
    return ini


def rewrite_rows(path: Path, edit) -> None:
    """Apply edit(rows) to a recorded table's rows of strings, header first."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_manifest_and_frames(run_dir):
    man = manifest_of(run_dir)
    assert man["tool"] == "varimcf"
    assert man["preset"] == "circle"
    assert man["seed"] == 3
    assert sorted(man["config"]) == ["dt", "end_time", "eps"]
    assert man["config"]["eps"] == 0.1
    assert man["config"]["dt"] == 0.002
    rec = man["traces"][0]
    assert rec["name"] == "main"
    assert len(rec["frames"]) == 11 == len(rec["times"])
    assert "masses" not in rec
    assert rec["frames"][0] == "frame_main_0000.csv"
    for fname in rec["frames"]:
        assert (run_dir / fname).exists()
    for fname in rec["mesh_frames"]:
        assert (run_dir / fname).exists()
    assert (run_dir / rec["simplices"]).exists()
    assert np.allclose(np.diff(rec["times"]), 0.002)
    masses = np.array(frame_masses(run_dir, rec))
    assert np.all(np.diff(masses) < 0.0)        # the circle loses length
    assert masses[0] == pytest.approx(2 * np.pi, rel=1e-3)


def test_frames_round_trip_through_the_loader(run_dir):
    _, man, traces = load_manifest(str(run_dir))
    tr = traces["main"]
    assert len(tr.snapshots) == 11
    first = tr.snapshots[0].varifold
    assert first.n == 2 and first.d == 1 and len(first) == 200
    # a frame holds no field: check recomputes whatever it needs
    assert all(s.curvature is None for s in tr.snapshots)
    assert [s.mass for s in tr.snapshots] == pytest.approx(
        frame_masses(run_dir, man["traces"][0]))
    # accepting the manifest.json path itself is equivalent
    _, man2, _ = load_manifest(str(run_dir / "manifest.json"))
    assert man2["traces"][0]["frames"] == man["traces"][0]["frames"]


def test_loaded_trace_refuses_what_needs_the_curvature_jacobian(run_dir):
    # frames store neither h nor Dh: the readings that need them stop with a
    # named error on a written-then-loaded trace
    _, _, traces = load_manifest(str(run_dir))
    tr = traces["main"]
    assert tr.snapshots[0].curvature_jacobian is None
    phi = BarrierFunction(np.zeros(2), 2.0, 3.0, 0)
    with pytest.raises(ConfigError):
        brakke_residual(tr, phi, 0.0, 0.01)
    with pytest.raises(ConfigError):
        sample(tr, 0.005, "interpolated")


def test_zero_step_run_has_one_snapshot(still_dir):
    rec = manifest_of(still_dir)["traces"][0]
    assert rec["times"] == [0.0]
    assert len(rec["frames"]) == 1


def test_simulate_runs_on_a_libc_without_mallopt(tmp_path, monkeypatch):
    # main raises the heap thresholds through mallopt when libc has it, and
    # goes on without when it does not; the frames are the same either way
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))

    def run(tag):
        out = tmp_path / tag
        assert main(["simulate", "--preset", "circle", "--end-time", "0.006",
                     "--seed", "7", "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    frames = run("with")
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert run("without") == frames and len(frames) > 1


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--preset", "klein-bottle",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "klein-bottle" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--dt", "nan"), ("--end-time", "nan"),
    ("--eps", "inf"), ("--dt", "inf"), ("--end-time", "inf")])
def test_nonfinite_scales_are_usage_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "nonfinite"
    assert main(["simulate", "--preset", "circle", flag, value,
                 "--out", str(out)]) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, eps, dim", [
    ("circle", "1e200", 2), ("circle", "4e153", 2),
    ("sphere", "1e120", 3), ("sphere", "1e103", 3)])
def test_an_eps_that_overflows_its_dimension_is_a_usage_error(
        tmp_path, capsys, preset, eps, dim):
    # the kernel profile divides by R^2 and by eps^dim: past about 3.4e153
    # in 2-D and 5.6e102 in 3-D a power overflows
    out = tmp_path / "huge"
    assert main(["simulate", "--preset", preset, "--eps", eps,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: kernel scale eps = "
                            f"{float(eps):g} overflows in dimension {dim}\n")
    assert not out.exists()


def test_an_aborted_run_is_a_run_error(tmp_path, capsys):
    # a step of 0.3 gains more mass than the step allows
    out = tmp_path / "aborted"
    assert main(["simulate", "--preset", "circle", "--dt", "0.3",
                 "--end-time", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "run error: per-step mass growth exceeded dt\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_run_aborted_on_its_second_flow_writes_nothing(tmp_path, capsys,
                                                         monkeypatch):
    # the first flow's frames are not written without the manifest
    calls = []

    def aborting(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise VarimcfError("second flow aborted")
        return run(*args, **kwargs)

    monkeypatch.setattr(flow, "run", aborting)
    out = tmp_path / "half"
    assert main(["simulate", "--preset", "two-concentric-circles",
                 "--end-time", "0.002", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "run error: second flow aborted\n"
    assert len(calls) == 2 and not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_output_path_on_a_file_is_a_usage_error(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "run" if under else taken
    assert main(["simulate", "--preset", "circle", "--end-time", "0",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"--out {out}" in captured.err and captured.out == ""
    assert taken.read_text() == "not a directory\n"


def test_bad_thread_count_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("VARIMCF_THREADS", "many")
    assert main(["simulate", "--preset", "circle"]) == 2
    assert "VARIMCF_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# INI settings


def test_config_file_drives_the_run(tmp_path):
    out = tmp_path / "from-ini"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\npreset = circle\nend_time = 0\nout = {out}\n")
    assert main(["simulate", "--config", str(ini)]) == 0
    assert manifest_of(out)["preset"] == "circle"
    # command-line flags beat the file
    out2 = tmp_path / "flag-wins"
    assert main(["simulate", "--config", str(ini), "--out", str(out2)]) == 0
    assert (out2 / "manifest.json").exists()


@pytest.mark.parametrize("body,fragment", [
    ("[run]\nflavor = mint\n", "flavor"),
    ("[desserts]\ncake = yes\n", "desserts"),
    ("[run]\nseed = soon\n", "seed"),
    ("[constants]\ntechnical_samples = 0\n", "technical_samples"),
    ("[run]\nseed = -1\n", "seed"),
    ("[certificates]\nmc_samples = 5000\n", "mc_samples"),
    ("[certificates]\nball_center = a,b\n", "ball_center"),
    # constants whose sign decides a bound, and NaN, which compares false;
    # the retired certificate knobs among them (and technical_samples above)
    # are refused as unknown keys, which the error names
    ("[constants]\nisoperimetric_constant = -1\n", "isoperimetric_constant"),
    ("[constants]\ncertificate_step_constant = 0\n",
     "certificate_step_constant"),
    ("[constants]\nscale_ceiling = -1\n", "scale_ceiling"),
    ("[constants]\nbudget_rtol = 0\n", "budget_rtol"),
    ("[constants]\nslack_factor = nan\n", "slack_factor"),
    # the keys of the deleted step gate are refused as unknown keys, whatever
    # their value
    ("[constants]\nenforce_gate = ture\n", "enforce_gate"),
    ("[constants]\ngate_constant = 0\nenforce_gate = yes\n", "gate_constant"),
    ("[constants]\ngate_constant = inf\n", "gate_constant"),
    # numbers that are not finite, and the retired support cap, refused as
    # an unknown key
    ("[constants]\ncertificate_step_constant = inf\n",
     "certificate_step_constant"),
    ("[certificates]\nball_radius = inf\n", "ball_radius"),
    ("[certificates]\nweight_width = inf\n", "weight_width"),
    ("[certificates]\nbarrier_center = 0,inf\n", "barrier_center"),
    ("[certificates]\nweight_center = nan,0\n", "weight_center"),
    ("[constants]\nlp_support_cap = 0\n", "lp_support_cap"),
])
def test_bad_config_files_are_usage_errors(tmp_path, capsys, body, fragment):
    ini = tmp_path / "bad.ini"
    ini.write_text(body)
    assert main(["simulate", "--config", str(ini)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("key, value, certificates", [
    ("ball_center", "nan,0", "external-sphere"),
    ("enclosing_radius", "inf", "internal-sphere"),
    ("barrier_radius", "inf", "barrier-defect"),
], ids=["nan-ball-center", "infinite-enclosing-radius",
        "infinite-barrier-radius"])
def test_nonfinite_certificate_settings_are_usage_errors(
        run_dir, tmp_path, capsys, key, value, certificates):
    ini = tmp_path / "nonfinite.ini"
    ini.write_text(f"[certificates]\n{key} = {value}\n")
    assert main(["check", str(run_dir), "--config", str(ini),
                 "--certificates", certificates]) == 2
    captured = capsys.readouterr()
    assert f"{key} must be finite" in captured.err
    assert captured.out == ""


def readme_ini() -> str:
    """The ```ini block under README's "Configuration file" heading."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Configuration file", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_example_config_loads(tmp_path):
    ini = tmp_path / "readme.ini"
    ini.write_text(readme_ini())
    st = cli.load_settings(str(ini), cli._build_parser().parse_args(
        ["check", "unused"]))
    assert st.preset == "circle" and st.barrier_radius == 0.3
    assert st.certificates == ("mass-decay", "eps-sphere-barrier",
                               "volume-change")


@pytest.mark.parametrize("key, value, certificates", [
    ("ball_radius", "0", "external-sphere"),
    ("enclosing_radius", "0", "internal-sphere"),
    ("weight_width", "0", "lsc"),
    ("ball_radius", "-0.5", "nontriviality,external-sphere,volume-change"),
    ("weight_width", "-2", "lsc"),
    ("ball_radius", "0", "volume-change"),
    ("barrier_radius", "-0.3", "barrier-defect"),
    ("barrier_exponent", "0", "barrier-defect"),
    # NaN compares false, so it is not positive either
    ("barrier_radius", "nan", "barrier-defect"),
    ("barrier_exponent", "nan", "barrier-defect"),
], ids=["ball-zero", "enclosing-zero", "weight-zero", "ball-negative",
        "weight-negative", "volume-radius", "barrier-negative",
        "exponent-zero", "barrier-nan", "exponent-nan"])
def test_nonpositive_radii_are_usage_errors(run_dir, tmp_path, capsys, key,
                                            value, certificates):
    ini = tmp_path / "radii.ini"
    ini.write_text(f"[certificates]\n{key} = {value}\n")
    assert main(["check", str(run_dir), "--config", str(ini),
                 "--certificates", certificates]) == 2
    captured = capsys.readouterr()
    assert f"{key} must be positive" in captured.err
    assert captured.out == ""


def test_negative_seeds_are_usage_errors(run_dir, tmp_path, capsys):
    out = tmp_path / "negative"
    assert main(["simulate", "--seed", "-1", "--end-time", "0",
                 "--out", str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    # a recorded negative seed is refused before a random sweep draws from it
    broken = tmp_path / "recorded-negative"
    shutil.copytree(run_dir, broken)
    (broken / "manifest.json").write_text(
        json.dumps({**manifest_of(broken), "seed": -1}))
    assert main(["check", str(broken), "--certificates", "technical-lemma"]) == 2
    assert "'seed' must be a nonnegative integer" in capsys.readouterr().err


def test_retired_volume_sample_count_is_ignored(pair_dir, tmp_path, capsys):
    grade = ("[constants]\ncertificate_step_constant = 1e-10\n{}"
             "[certificates]\nball_radius = 0.3\n")
    outputs = []
    for extra in ("", "mc_samples = 5000\n"):
        ini = tmp_path / "grade.ini"
        ini.write_text(grade.format(extra))
        main(["check", str(pair_dir), "--certificates", "all",
              "--config", str(ini)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["all_passed"] is True


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_records_verdicts(run_dir, tmp_path, capsys):
    report = tmp_path / "verdicts.json"
    before = (run_dir / "manifest.json").read_bytes()
    rc = main(["check", str(run_dir), "--json", str(report),
               "--certificates",
               "mass-decay,dissipation-budget,technical-lemma,"
               "eps-sphere-barrier,external-sphere,internal-sphere,"
               "convex-hull,lsc"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["all_passed"] is True
    names = {v["name"] for v in payload["verdicts"]}
    assert "mass-decay" in names and "lsc" in names
    for v in payload["verdicts"]:
        assert v["passed"] is True
        assert v["relation"] in ("<=", ">=")
        assert v["statement"]
    # the same verdicts went to --json; the run directory is left untouched
    assert json.loads(report.read_text()) == payload
    assert (run_dir / "manifest.json").read_bytes() == before
    stored = {f"{v['name']}[{v['trace']}]": v
              for v in json.loads(report.read_text())["verdicts"]}
    assert stored["mass-decay[main]"]["passed"] is True


def test_unwritable_json_report_is_a_usage_error(run_dir, tmp_path, capsys):
    # the report is written before the verdicts are printed, so a path that
    # cannot be written leaves stdout empty
    report = tmp_path / "no-such-dir" / "verdicts.json"
    assert main(["check", str(run_dir), "--json", str(report),
                 "--certificates", "mass-decay"]) == 2
    captured = capsys.readouterr()
    assert f"--json {report}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not report.parent.exists()


def test_check_detects_a_teleported_atom(run_dir, tmp_path, capsys):
    broken = tmp_path / "tampered"
    shutil.copytree(run_dir, broken)

    def shove(rows):   # one atom sideways
        rows[1][0] = repr(float(rows[1][0]) + 1.0)
    rewrite_rows(broken / "frame_main_0005.csv", shove)
    rc = main(["check", str(broken), "--certificates", "eps-sphere-barrier"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["all_passed"] is False
    (verdict,) = payload["verdicts"]
    assert verdict["passed"] is False
    assert "displacement" in verdict["details"]["error"]


def test_eps_barrier_bound_takes_m_from_frame_0(run_dir, tmp_path, capsys):
    # a mass bound written into the trace records is not read: the bound
    # uses M = max(1, frame-0 mass), as for the untouched recording
    edited = tmp_path / "large-mass-bound"
    shutil.copytree(run_dir, edited)
    manifest = manifest_of(edited)
    for record in manifest["traces"]:
        record["mass_bound"] = 1e12
    (edited / "manifest.json").write_text(json.dumps(manifest))
    verdicts = []
    for path in (run_dir, edited):
        assert main(["check", str(path), "--certificates",
                     "eps-sphere-barrier"]) == 0
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        verdicts.append(verdict)
    plain, inflated = verdicts
    assert inflated == plain
    mass0 = frame_masses(run_dir, manifest["traces"][0])[0]
    assert mass0 > 1.0
    assert plain["bound"] == (plain["details"]["norm_constant"]
                              * (10.0 * max(1.0, mass0) + 9.0)
                              * manifest["config"]["eps"] ** (1.0 / 6.0))


def test_check_grades_the_masses_the_frames_hold(run_dir, tmp_path, capsys):
    broken = tmp_path / "heavier"
    shutil.copytree(run_dir, broken)

    def inflate(rows):
        m = rows[0].index("m")
        for row in rows[1:]:
            row[m] = repr(1.5 * float(row[m]))
    rewrite_rows(broken / "frame_main_0005.csv", inflate)
    rc = main(["check", str(broken), "--certificates", "mass-decay"])
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert rc == 1
    assert verdict["passed"] is False
    assert verdict["details"]["worst_step"] == 4


def test_check_on_single_snapshot_is_trivially_green(still_dir, capsys):
    rc = main(["check", str(still_dir), "--certificates",
               "mass-decay,dissipation-budget,volume-change"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(payload["verdicts"]) == 3
    assert all(v["details"] == {"steps": 0} for v in payload["verdicts"])


def test_check_usage_errors(run_dir, tmp_path, capsys):
    assert main(["check", str(tmp_path / "nowhere")]) == 2      # no manifest
    bad = tmp_path / "broken"
    bad.mkdir()
    (bad / "manifest.json").write_text("{this is not json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(run_dir), "--certificates", "bogus"]) == 2
    # the pair-gap certificate needs two recorded flows
    assert main(["check", str(run_dir), "--certificates", "avoidance"]) == 2
    capsys.readouterr()


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_failed_precondition_reports_null_not_nan(tmp_path, capsys):
    out = tmp_path / "two-steps"
    assert main(["simulate", "--preset", "circle", "--out", str(out),
                 "--end-time", "0.004"]) == 0
    ini = tmp_path / "wide.ini"
    ini.write_text("[certificates]\nball_radius = 2.0\n")
    report = tmp_path / "verdicts.json"
    before = (out / "manifest.json").read_bytes()
    capsys.readouterr()
    rc = main(["check", str(out), "--certificates", "nontriviality",
               "--config", str(ini), "--json", str(report)])
    payload = strict_json(capsys.readouterr().out)
    assert rc == 1
    (verdict,) = payload["verdicts"]
    assert verdict["passed"] is False
    assert verdict["measured"] is None and verdict["bound"] is None
    assert verdict["details"]["error"].startswith(
        "PreconditionViolated: ball of radius 2.0 pokes through the boundary")
    assert (out / "manifest.json").read_bytes() == before
    stored = {f"{v['name']}[{v['trace']}]": v
              for v in strict_json(report.read_text())["verdicts"]}
    assert stored["nontriviality[main]"]["bound"] is None


def test_avoidance_on_mismatched_grids_is_a_usage_error(pair_dir, tmp_path,
                                                        capsys):
    # a recorded time off its config's subdivision is refused at load, so
    # two loaded traces always share one grid; the library check of
    # avoidance_distance is a PreconditionViolated (test_barriers)
    out = tmp_path / "pair"
    shutil.copytree(pair_dir, out)
    man = manifest_of(out)
    man["traces"][1]["times"][3] += 1e-4
    (out / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    rc = main(["check", str(out), "--certificates", "avoidance,mass-decay"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "trace 'second': 'times'" in captured.err


def test_barrier_defect_precondition_is_a_failed_verdict(run_dir, tmp_path,
                                                        capsys):
    # so small a barrier that the sampled weights fall below the barrier floor
    ini = tmp_path / "tiny.ini"
    ini.write_text("[certificates]\nbarrier_radius = 0.01\n")
    rc = main(["check", str(run_dir), "--certificates",
               "barrier-defect,mass-decay", "--config", str(ini)])
    payload = strict_json(capsys.readouterr().out)
    assert rc == 1
    defect, decay = payload["verdicts"]
    assert defect["name"] == "barrier-defect" and defect["passed"] is False
    assert defect["measured"] is None and defect["bound"] is None
    assert defect["details"]["error"].startswith("PreconditionViolated: psi = ")
    assert "at row 0" in defect["details"]["error"]
    assert (decay["name"], decay["passed"]) == ("mass-decay", True)


def test_low_barrier_exponent_fails_only_its_certificate(run_dir, tmp_path,
                                                        capsys):
    # beta = 3 leaves psi without a third derivative at its sphere, which
    # eps-sphere-barrier needs and barrier-defect does not
    ini = tmp_path / "beta3.ini"
    ini.write_text("[certificates]\nbarrier_exponent = 3\n")
    rc = main(["check", str(run_dir), "--certificates",
               "mass-decay,barrier-defect,eps-sphere-barrier",
               "--config", str(ini)])
    payload = strict_json(capsys.readouterr().out)
    assert rc == 1
    decay, defect, barrier = payload["verdicts"]
    assert (decay["name"], decay["passed"]) == ("mass-decay", True)
    assert (defect["name"], defect["passed"]) == ("barrier-defect", True)
    assert barrier["name"] == "eps-sphere-barrier"
    assert barrier["passed"] is False
    assert barrier["measured"] is None and barrier["bound"] is None
    assert "PreconditionViolated: profile exponent 3" in \
        barrier["details"]["error"]


@pytest.mark.parametrize("key, value, stopped", [
    ("ball_radius", "1e200", ["external-sphere", "volume-change"]),
    ("enclosing_radius", "1e200", ["internal-sphere"]),
    # the norms of eps-sphere-barrier overflow to inf, barrier-defect to NaN
    ("barrier_radius", "1e40", ["barrier-defect", "eps-sphere-barrier"]),
    # the weight (w^2 - |x - c|^2)^3 overflows once w is above about 2e51
    ("weight_width", "1e60", ["lsc"]),
    # a radius whose square underflows to 0 leaves the sphere no window
    ("ball_radius", "1e-200", ["external-sphere"]),
    # and leaves a weight zero everywhere, so it grades nothing
    ("weight_width", "1e-200", ["lsc"]),
    ("barrier_radius", "1e-200", ["barrier-defect", "eps-sphere-barrier"]),
], ids=["ball_radius", "enclosing_radius", "barrier_radius", "weight_width",
        "ball_radius-underflow", "weight_width-underflow",
        "barrier_radius-underflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_an_extreme_setting_fails_its_verdicts_in_strict_json(
        run_dir, tmp_path, capsys, key, value, stopped):
    ini = tmp_path / "extreme.ini"
    ini.write_text(f"[certificates]\n{key} = {value}\n")
    capsys.readouterr()
    rc = main(["check", str(run_dir), "--certificates",
               ",".join([*stopped, "mass-decay"]), "--config", str(ini)])
    payload = strict_json(capsys.readouterr().out)
    assert rc == 1
    *failed, decay = payload["verdicts"]
    assert [v["name"] for v in failed] == stopped
    for v in failed:
        assert v["passed"] is False
        assert v["measured"] is None and v["bound"] is None
        assert v["details"]["error"]
    assert (decay["name"], decay["passed"]) == ("mass-decay", True)


@pytest.mark.parametrize("body, scale", [
    # every one of the 21 verdicts is evaluated, and passes
    ("[constants]\ncertificate_step_constant = 1e-10\n"
     "[certificates]\nball_radius = 0.3\n", 1.0),
    # the outer flow leaves this enclosing ball, and twice the recorded
    # dissipation overshoots the mass drop
    ("[constants]\ncertificate_step_constant = 1e-10\n"
     "[certificates]\nball_radius = 0.3\nenclosing_radius = 0.8\n", 2.0),
], ids=["passing", "failing"])
def test_every_verdict_passes_by_its_stated_relation(pair_dir, tmp_path,
                                                     capsys, body, scale):
    ini = tmp_path / "grade.ini"
    ini.write_text(body)
    graded = tmp_path / "graded"
    shutil.copytree(pair_dir, graded)
    man = manifest_of(graded)
    for rec in man["traces"]:
        rec["dissipation"] = [None if x is None else scale * x
                              for x in rec["dissipation"]]
    (graded / "manifest.json").write_text(json.dumps(man))
    rc = main(["check", str(graded), "--certificates", "all",
               "--config", str(ini)])
    payload = strict_json(capsys.readouterr().out)
    verdicts = payload["verdicts"]
    assert len(verdicts) == 21
    budget = [v["passed"] for v in verdicts if v["name"] == "dissipation-budget"]
    assert budget == [scale == 1.0] * 2
    for v in verdicts:
        assert v["measured"] is not None and v["bound"] is not None
        holds = (v["measured"] <= v["bound"] if v["relation"] == "<="
                 else v["measured"] >= v["bound"])
        assert v["passed"] is holds, v
    assert payload["all_passed"] is all(v["passed"] for v in verdicts)
    assert rc == (0 if payload["all_passed"] else 1)


def test_nontriviality_fails_one_trace_and_grades_the_other(pair_dir,
                                                           tmp_path, capsys):
    # the ball fits inside the outer circle but not the inner one
    ini = tmp_path / "ball.ini"
    ini.write_text("[certificates]\nball_radius = 0.7\n")
    rc = main(["check", str(pair_dir), "--certificates", "nontriviality",
               "--config", str(ini)])
    inner, outer = strict_json(capsys.readouterr().out)["verdicts"]
    assert rc == 1
    assert inner["trace"] == "first" and inner["passed"] is False
    assert inner["details"]["error"].startswith(
        "PreconditionViolated: ball of radius 0.7 pokes through the boundary")
    assert outer["trace"] == "second" and outer["passed"] is True
    assert outer["relation"] == ">=" and outer["measured"] >= outer["bound"]


def test_a_stopped_verdict_keeps_its_certificates_relation(pair_dir,
                                                           tmp_path, capsys):
    # the ball pokes out of the inner trace's region, which stops its
    # verdict; the outer is graded
    ini = tmp_path / "ball.ini"
    ini.write_text("[certificates]\nball_radius = 0.7\n")
    main(["check", str(pair_dir), "--certificates", "nontriviality,convex-hull",
          "--config", str(ini)])
    verdicts = strict_json(capsys.readouterr().out)["verdicts"]
    relations = {(v["name"], v["trace"]): v["relation"] for v in verdicts}
    assert relations == {("nontriviality", "first"): ">=",
                         ("nontriviality", "second"): ">=",
                         ("convex-hull", "first"): "<=",
                         ("convex-hull", "second"): "<="}
    assert verdicts[0]["measured"] is None


def test_each_certificate_entry_runs_once_per_command(run_dir, tmp_path,
                                                      monkeypatch, capsys):
    # the benchmark times each certificate by wrapping its entry
    calls = {"mass-decay": 0, "volume-change": 0}

    def counting(name):
        inner = cli.CERTIFICATES[name]

        def entry(*args):
            calls[name] += 1
            return inner(*args)
        return entry

    for name in calls:
        monkeypatch.setitem(cli.CERTIFICATES, name, counting(name))
    assert main(["check", str(run_dir), "--certificates",
                 "mass-decay,convex-hull,volume-change"]) == 0
    assert calls == {"mass-decay": 1, "volume-change": 1}
    assert main(["check", str(run_dir), "--certificates", "volume-change",
                 "--config", str(window_ini(tmp_path, radius=0.6))]) == 0
    assert calls == {"mass-decay": 1, "volume-change": 2}
    capsys.readouterr()


def test_empty_certificate_list_is_a_usage_error(still_dir, tmp_path, capsys):
    assert main(["check", str(still_dir), "--certificates", ""]) == 2
    assert "empty certificate list" in capsys.readouterr().err
    ini = tmp_path / "none.ini"
    ini.write_text("[certificates]\nlist =\n")
    assert main(["check", str(still_dir), "--config", str(ini)]) == 2
    assert "empty certificate list" in capsys.readouterr().err


@pytest.mark.parametrize("edit, key", [
    (lambda rec: rec["times"].pop(), "times"),
    (lambda rec: rec.pop("step_delta"), "step_delta"),
], ids=["short-times", "missing-step_delta"])
def test_per_frame_lists_must_match_the_frames(run_dir, tmp_path, capsys,
                                               edit, key):
    broken = tmp_path / "inconsistent"
    shutil.copytree(run_dir, broken)
    man = manifest_of(broken)
    edit(man["traces"][0])
    (broken / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_manifest(str(broken))
    assert main(["check", str(broken)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def line_projection(b):
    """Projection onto the line through the origin along b."""
    return np.outer(b, b) / float(b @ b)


def test_technical_lemma_matches_the_scalar_formula_on_its_own_stream(run_dir):
    _, manifest, traces = load_manifest(str(run_dir))
    (verdict,) = cli.CERTIFICATES["technical-lemma"](traces, Settings(),
                                                      manifest)
    # reference: the sweep's draws from its own stream, then the scalar
    # formula one sample at a time
    rng = np.random.default_rng([manifest["seed"], *b"technical-lemma"])
    m, n = TECHNICAL_SAMPLES, 2
    h, grad = rng.normal(size=(2, m, n))
    phi = rng.uniform(0.05, 3.0, m)
    assert np.all(rng.integers(1, n, size=m) == 1)    # planes in R^2 are lines
    bases = rng.normal(size=(m, 1, n))
    worst = np.inf
    for k in range(m):
        Sg = line_projection(bases[k, 0]) @ grad[k]
        gap = (0.25 * float(Sg @ Sg) / phi[k] + float(grad[k] @ h[k])
               + float(h[k] @ h[k]) * phi[k] - float((grad[k] - Sg) @ h[k]))
        worst = min(worst, gap)
    assert verdict.measured == pytest.approx(worst, rel=1e-12)
    assert verdict.passed


def test_barrier_defect_matches_the_defect_formula_on_its_own_stream(run_dir):
    _, manifest, traces = load_manifest(str(run_dir))
    st = Settings()
    (verdict,) = cli.CERTIFICATES["barrier-defect"](traces, st, manifest)
    # reference: the sweep's draws from its own stream, then the defect
    # formula one sample at a time
    rng = np.random.default_rng([manifest["seed"], *b"barrier-defect"])
    d, n = 1, 2
    c = np.asarray(st.barrier_center, dtype=float)
    R2, beta = st.barrier_radius**2, st.barrier_exponent
    times = np.repeat(np.linspace(0.0, 0.8 * R2 / (2.0 * d), 5),
                      DEFECT_SAMPLES // 5)
    direction = rng.normal(size=(len(times), n))
    r2 = rng.uniform(0.0, (R2 - 2.0 * d * times) * 0.95)
    assert np.all(rng.integers(1, n, size=len(times)) == 1)
    bases = rng.normal(size=(len(times), 1, n))
    worst = -np.inf
    for k, t in enumerate(times):
        x = c + np.sqrt(r2[k]) * direction[k] / np.linalg.norm(direction[k])
        # psi = u^beta with u = R^2 - |x - c|^2 - 2 d t
        w = x - c
        u = R2 - float(w @ w) - 2.0 * d * t
        psi = u**beta
        grad = -2.0 * beta * u ** (beta - 1.0) * w
        hess = (4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * np.outer(w, w)
                - 2.0 * beta * u ** (beta - 1.0) * np.eye(n))
        dpsi_dt = -2.0 * d * beta * u ** (beta - 1.0)
        P = line_projection(bases[k, 0])
        Sg = P @ grad
        defect = 0.25 * float(Sg @ Sg) / psi - float(np.sum(P * hess)) + dpsi_dt
        worst = max(worst, defect)
    assert verdict.measured == pytest.approx(worst, rel=1e-12)
    assert verdict.passed


def test_random_sweeps_do_not_depend_on_the_other_certificates(pair_dir):
    _, manifest, traces = load_manifest(str(pair_dir))
    sweeps = ("technical-lemma", "barrier-defect")

    def measured(names):
        graded = cli._grade(names, traces, Settings(), manifest)["verdicts"]
        return {v["name"]: v["measured"] for v in graded if v["name"] in sweeps}

    alone = {name: measured((name,))[name] for name in sweeps}
    assert measured(sweeps[::-1]) == alone
    assert measured(tuple(cli.CERTIFICATES)) == alone


def without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def with_first_step(man: dict, key: str, value) -> dict:
    """The manifest with step 0's recorded `key` of its trace set to
    `value`."""
    trace = man["traces"][0]
    return {**man, "traces": [{**trace, key: [value, *trace[key][1:]]}]}


@pytest.mark.parametrize("edit, fragment", [
    (lambda man: without(man, "traces"), "'traces'"),
    (lambda man: {**man, "traces": 5}, "'traces'"),
    (lambda man: {**man, "traces": []}, "'traces'"),
    (lambda man: without(man, "config"), "'config'"),
    (lambda man: {**man, "config": {**man["config"], "bogus": 1}}, "'bogus'"),
    (lambda man: {**man, "config": {**man["config"], "eps": "x"}}, "'eps'"),
    (lambda man: {**man, "config": without(man["config"], "dt")}, "'dt'"),
    (lambda man: {**man, "traces": [without(man["traces"][0],
                                            "ambient_dimension")]},
     "'ambient_dimension'"),
    (lambda man: {**man, "seed": "x"}, "'seed'"),
    (lambda man: {**man, "seed": -1}, "'seed'"),
    (lambda man: [man], "JSON object"),
    (lambda man: {**man, "traces": 2 * man["traces"]}, "'main' is repeated"),
    # keys of FlowConfig fields that no longer exist
    (lambda man: {**man, "config": {**man["config"], "mode": "piecewise"}},
     "'mode'"),
    (lambda man: {**man, "config": {**man["config"],
                                    "record_dissipation": True}},
     "'record_dissipation'"),
    (lambda man: {**man, "config": {**man["config"], "enforce_gate": False}},
     "'enforce_gate'"),
    (lambda man: {**man, "config": {**man["config"], "gate_constant": 1.0}},
     "'gate_constant'"),
    (lambda man: {**man, "config": {**man["config"], "mass_bound": None}},
     "'mass_bound'"),
    (lambda man: {**man, "config": {**man["config"], "cutoff": 4.0}},
     "'cutoff'"),
    (lambda man: {**man, "config": {**man["config"], "refinement": 2}},
     "'refinement'"),
    # dimensions no certificate can grade
    (lambda man: {**man, "traces": [{**man["traces"][0],
                                     "surface_dimension": 0}]},
     "surface_dimension 0 in ambient_dimension 2"),
    (lambda man: {**man, "traces": [{**man["traces"][0],
                                     "ambient_dimension": 4}]},
     "surface_dimension 1 in ambient_dimension 4"),
    # a trace with no frames has nothing to grade
    (lambda man: {**man, "traces": [{
        **man["traces"][0], "frames": [], "mesh_frames": [], "times": [],
        "curvature_max": [], "dissipation": [], "step_delta": []}]},
     "trace 'main'"),
    # recorded times that are not the subdivision of the config
    (lambda man: {**man, "traces": [{
        **man["traces"][0],
        "times": [t + 5.0 for t in man["traces"][0]["times"]]}]},
     "trace 'main': 'times'"),
    (lambda man: {**man, "config": {**man["config"],
                                    "dt": 2.0 * man["config"]["dt"]}},
     "trace 'main': 'times'"),
    # a step's recorded number that is not one
    (lambda man: with_first_step(man, "curvature_max", "x"),
     "the curvature_max of step 0"),
    (lambda man: with_first_step(man, "curvature_max", True),
     "the curvature_max of step 0"),
    (lambda man: with_first_step(man, "dissipation", "x"),
     "the dissipation of step 0"),
    (lambda man: with_first_step(man, "step_delta", "x"),
     "the step_delta of step 0"),
    (lambda man: with_first_step(man, "step_delta", 10**400),
     "the step_delta of step 0"),
    # file entries that are not names of files
    (lambda man: with_first_step(man, "frames", 5),
     "trace 'main': each 'frames' entry"),
    (lambda man: with_first_step(man, "mesh_frames", 5),
     "trace 'main': each 'mesh_frames' entry"),
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": 5}]},
     "trace 'main': each 'simplices' entry"),
    # a falsy entry is no file name either; only null means no mesh
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": 0}]},
     "trace 'main': each 'simplices' entry"),
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": False}]},
     "trace 'main': each 'simplices' entry"),
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": ""}]},
     "trace 'main': each 'simplices' entry"),
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": []}]},
     "trace 'main': each 'simplices' entry"),
    (lambda man: with_first_step(man, "frames", "."), "no file at "),
    (lambda man: {**man, "traces": [{**man["traces"][0], "simplices": "."}]},
     "no file at "),
], ids=["missing-traces", "traces-not-a-list", "no-traces", "missing-config",
        "unknown-config-key", "eps-not-a-number", "missing-dt",
        "missing-ambient_dimension", "seed-not-an-integer", "negative-seed",
        "top-level-list", "repeated-trace-name", "retired-mode",
        "retired-record_dissipation", "retired-enforce_gate",
        "retired-gate_constant", "retired-mass_bound", "retired-cutoff",
        "retired-refinement", "surface-dimension-0", "ambient-dimension-4",
        "empty-trace", "shifted-times", "doubled-config-dt",
        "string-curvature-max", "bool-curvature-max", "string-dissipation",
        "string-step-delta", "huge-step-delta", "number-frame",
        "number-mesh-frame", "number-simplices", "zero-simplices",
        "false-simplices", "empty-string-simplices", "empty-list-simplices",
        "directory-frame",
        "directory-simplices"])
def test_malformed_manifests_are_usage_errors(run_dir, tmp_path, capsys, edit,
                                              fragment):
    broken = tmp_path / "malformed"
    shutil.copytree(run_dir, broken)
    (broken / "manifest.json").write_text(json.dumps(edit(manifest_of(broken))))
    with pytest.raises(ConfigError, match=fragment):
        load_manifest(str(broken))
    assert main(["check", str(broken)]) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit", [
    lambda man: man["config"].update(eps=float("nan")),
    lambda man: man["traces"][0]["curvature_max"].__setitem__(0, float("inf")),
], ids=["nan-eps", "infinite-curvature-max"])
def test_nonfinite_manifest_constants_are_usage_errors(run_dir, tmp_path,
                                                       capsys, edit):
    broken = tmp_path / "nonfinite"
    shutil.copytree(run_dir, broken)
    manifest = manifest_of(broken)
    edit(manifest)
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["check", str(broken), "--certificates",
                 "internal-sphere"]) == 2
    captured = capsys.readouterr()
    assert "is not a number a run records" in captured.err
    assert captured.out == ""


def test_overflowing_step_value_is_a_usage_error(run_dir, tmp_path, capsys):
    # JSON reads the literal 1e400 as inf, which would allow any displacement
    broken = tmp_path / "overflow"
    shutil.copytree(run_dir, broken)
    text = json.dumps(with_first_step(manifest_of(broken), "curvature_max",
                                      0.5))
    (broken / "manifest.json").write_text(
        text.replace('"curvature_max": [0.5,', '"curvature_max": [1e400,'))
    assert main(["check", str(broken), "--certificates",
                 "eps-sphere-barrier"]) == 2
    captured = capsys.readouterr()
    assert "the curvature_max of step 0 is not a finite number" in captured.err
    assert captured.out == ""


def test_missing_step_dissipation_is_a_usage_error(run_dir, tmp_path, capsys):
    broken = tmp_path / "no-dissipation"
    shutil.copytree(run_dir, broken)
    manifest = manifest_of(broken)
    manifest["traces"][0]["dissipation"][0] = None
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["check", str(broken), "--certificates",
                 "dissipation-budget"]) == 2
    assert "dissipation of step 0" in capsys.readouterr().err


def test_missing_frame_file_is_reported(run_dir, tmp_path):
    broken = tmp_path / "gappy"
    shutil.copytree(run_dir, broken)
    (broken / "frame_main_0003.csv").unlink()
    assert main(["check", str(broken)]) == 2


# ---------------------------------------------------------------------------
# the table format of frames and measure files


def test_frame_text_is_fixed(tmp_path):
    # two atoms of a 2-D curve over one step: %.17g fields, no column for the
    # curvature the first snapshot carries, integer simplices
    horizontal = np.array([[1.0, 0.0], [0.0, 0.0]])
    pos = np.array([[0.1, 0.0], [-1.0 / 3.0, 2.0]])
    V0 = DiscreteVarifold.from_arrays(pos, np.stack([horizontal] * 2),
                                      [0.5, 0.25], d=1)
    V1 = DiscreteVarifold.from_arrays(pos, np.stack([horizontal] * 2),
                                      [0.5, 0.2], d=1)
    cfg = FlowConfig(eps=0.1, dt=0.1, end_time=0.1)
    trace = FlowTrace(cfg, (
        Snapshot(0.0, V0, curvature=np.array([[-2.0, 0.1], [0.0, 3.0]]),
                 mesh_vertices=np.array([[0.0, 1.0], [0.5, -0.0]])),
        Snapshot(0.1, V1, mesh_vertices=np.array([[0.0, 1.0], [0.75, 0.0]])),
    ), np.array([[0, 1], [1, 0]]))
    record = _write_trace(tmp_path, "main", trace)
    header = "x1,x2,p11,p12,p21,p22,m\n"
    expected = {
        "frame_main_0000.csv": header
        + "0.10000000000000001,0,1,0,0,0,0.5\n"
        + "-0.33333333333333331,2,1,0,0,0,0.25\n",
        "frame_main_0001.csv": header
        + "0.10000000000000001,0,1,0,0,0,0.5\n"
        + "-0.33333333333333331,2,1,0,0,0,0.20000000000000001\n",
        "mesh_main_0000.csv": "v1,v2\n0,1\n0.5,-0\n",
        "mesh_main_0001.csv": "v1,v2\n0,1\n0.75,0\n",
        "simplices_main.csv": "s1,s2\n0,1\n1,0\n",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    assert "masses" not in record
    assert frame_masses(tmp_path, record) == [0.75, 0.7]


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0].__setitem__(slice(0, 2), ["x2", "x1"]),
    lambda rows: rows[3].pop(),
    # an atom's mass must be positive; NaN is refused as non-finite
    lambda rows: rows[1].__setitem__(rows[0].index("m"), "0"),
    lambda rows: rows[2].__setitem__(rows[0].index("m"), "-0.01"),
], ids=["swapped-header", "ragged-row", "zero-mass", "negative-mass"])
def test_malformed_frames_are_usage_errors(run_dir, tmp_path, capsys, edit):
    broken = tmp_path / "malformed"
    shutil.copytree(run_dir, broken)
    rewrite_rows(broken / "frame_main_0003.csv", edit)
    with pytest.raises(ConfigError):
        load_manifest(str(broken))
    assert main(["check", str(broken)]) == 2
    captured = capsys.readouterr()
    assert "frame_main_0003.csv" in captured.err
    assert captured.out == ""


def test_a_frame_without_atoms_is_a_usage_error(pair_dir, tmp_path, capsys):
    # simulate never writes one (atom counts are constant, masses positive);
    # unrefused, the pair and hull certificates crashed on the empty frame
    broken = tmp_path / "no-atoms"
    shutil.copytree(pair_dir, broken)
    for frame in sorted(broken.glob("frame_first_*.csv")):
        rewrite_rows(frame, lambda rows: rows.__delitem__(slice(1, None)))
    ini = tmp_path / "grade.ini"
    ini.write_text("[constants]\ncertificate_step_constant = 1e-10\n"
                   "[certificates]\nball_radius = 0.3\n")
    with pytest.raises(ConfigError, match="frame_first_0000.csv: holds no atoms"):
        load_manifest(str(broken))
    for certificates in ("all", "convex-hull", "mass-decay"):
        assert main(["check", str(broken), "--certificates", certificates,
                     "--config", str(ini)]) == 2
        captured = capsys.readouterr()
        assert "frame_first_0000.csv: holds no atoms" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("edit, fragment", [
    (lambda rows: rows.pop(), "tail of exactly one segment"),
    (lambda rows: rows[5].__setitem__(0, "1000000"), "out of range"),
], ids=["open-mesh", "index-past-the-vertices"])
def test_a_broken_recorded_mesh_is_a_usage_error(run_dir, tmp_path, capsys,
                                                 edit, fragment):
    # refused at load, whichever certificates are graded, mesh-free or not
    broken = tmp_path / "broken-mesh"
    shutil.copytree(run_dir, broken)
    rewrite_rows(broken / "simplices_main.csv", edit)
    with pytest.raises(ConfigError, match=fragment):
        load_manifest(str(broken))
    for certificates in ("mass-decay", "volume-change", "nontriviality"):
        assert main(["check", str(broken), "--certificates",
                     certificates]) == 2
        captured = capsys.readouterr()
        assert "simplices_main.csv: " in captured.err
        assert fragment in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("fname, column, row, value", [
    ("frame_main_0003.csv", "m", 1, "nan"),
    ("frame_main_0003.csv", "x1", 2, "nan"),
    ("frame_main_0003.csv", "p11", 1, "inf"),
    ("frame_main_0010.csv", "m", 1, "-inf"),     # the frame that starts no step
    ("mesh_main_0003.csv", "v1", 1, "nan"),
], ids=["nan-mass", "nan-position", "infinite-plane", "last-frame-mass",
        "nan-mesh-vertex"])
def test_nonfinite_frame_values_are_usage_errors(run_dir, tmp_path, capsys,
                                                 fname, column, row, value):
    broken = tmp_path / "nonfinite"
    shutil.copytree(run_dir, broken)

    def edit(rows):
        rows[row][rows[0].index(column)] = value
    rewrite_rows(broken / fname, edit)
    with pytest.raises(ConfigError, match=fname):
        load_manifest(str(broken))
    assert main(["check", str(broken), "--certificates", "mass-decay"]) == 2
    captured = capsys.readouterr()
    assert f"{fname}: holds a non-finite value" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fname, edit, count", [
    ("mesh_main_0010.csv", lambda rows: rows.append(rows[-1]), 201),
    ("mesh_main_0003.csv", lambda rows: rows.pop(), 199),
], ids=["vertex-appended", "vertex-dropped"])
def test_a_mesh_frame_with_another_vertex_count_is_a_usage_error(
        run_dir, tmp_path, capsys, fname, edit, count):
    broken = tmp_path / "recounted"
    shutil.copytree(run_dir, broken)
    rewrite_rows(broken / fname, edit)
    # the simplices index the first frame's vertices
    assert main(["check", str(broken), "--certificates", "mass-decay"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: {broken / fname}: holds "
                            f"{count} vertices, the first mesh frame 200\n")
    assert captured.out == ""


def test_a_frame_with_curvature_columns_is_refused(run_dir, tmp_path, capsys):
    # frames once carried h after the mass; such a recording is refused by
    # name, with the header found and the header wanted
    old = tmp_path / "old-format"
    shutil.copytree(run_dir, old)

    def add_h(rows):
        rows[0] += ["h1", "h2"]
        for row in rows[1:]:
            row += ["0.5", "-0.25"]
    rewrite_rows(old / "frame_main_0003.csv", add_h)
    assert main(["check", str(old)]) == 2
    captured = capsys.readouterr()
    assert ("frame_main_0003.csv: header x1,x2,p11,p12,p21,p22,m,h1,h2, "
            "want x1,x2,p11,p12,p21,p22,m") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("preset, end_time", [("circle", 0.006),
                                              ("sphere", 0.0025)])
def test_a_loaded_frame_gives_back_the_recorded_curvature(tmp_path, preset,
                                                          end_time):
    # the curvature a frame once stored is a function of the frame: rebuilt
    # from the loaded atoms it equals, bit for bit, the field the run used
    scenario = make_preset(preset, end_time=end_time)
    mesh = scenario.mesh
    trace = run(scenario.varifold, scenario.config,
                mesh_vertices=None if mesh is None else mesh.vertices,
                mesh_simplices=None if mesh is None else mesh.simplices)
    record = _write_trace(tmp_path, "main", trace)
    manifest = {"config": dataclasses.asdict(scenario.config)}
    loaded = load_trace(manifest, tmp_path, record)
    kernel = Mollifier(scenario.config.eps, scenario.varifold.n,
                       scenario.config.cutoff)
    grid = QuadratureGrid.for_kernel(kernel, scenario.config.refinement)
    assert len(loaded.snapshots) == len(trace.snapshots) >= 2
    for before, after in zip(trace.snapshots[:-1], loaded.snapshots):
        V = after.varifold
        pts = (V.positions if after.mesh_vertices is None
               else np.vstack([V.positions, after.mesh_vertices]))
        h, _ = curvature_with_jacobian(_Lattice(V, kernel, grid), pts)
        assert np.array_equal(h[:len(V)], before.curvature)


# ---------------------------------------------------------------------------
# distance


def test_distance_subcommand_reports_the_metric(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_measure(a, [[0.0], [1.0]], [1.0, 1.0])
    save_measure(b, [[0.5], [1.0]], [1.0, 1.0])
    rc = main(["distance", str(a), str(b)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["distance"] == pytest.approx(0.5, abs=1e-9)
    assert payload["support_first"] == 2 == payload["support_second"]
    assert payload["status"] == "optimal"


def test_measure_file_needs_a_trailing_weight_column(tmp_path, capsys):
    a = tmp_path / "a.csv"
    save_measure(a, [[0.0, 0.0]], [1.0])
    b = tmp_path / "b.csv"
    b.write_text("x1,x2\n0,0\n")
    assert main(["distance", str(a), str(b)]) == 2
    assert "b.csv" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["0,1\n1,nan\n", "nan,1\n1,1\n",
                                  "0,1\ninf,1\n"],
                         ids=["nan-weight", "nan-coordinate", "inf-coordinate"])
def test_nonfinite_measure_file_is_a_usage_error(tmp_path, capsys, rows):
    a = tmp_path / "a.csv"
    save_measure(a, [[0.0], [1.0]], [1.0, 1.0])
    b = tmp_path / "b.csv"
    b.write_text("x1,w\n" + rows)
    assert main(["distance", str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


def test_measure_file_without_rows_is_an_empty_measure(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,w\n")
    assert _load_table(empty, _measure_header).shape == (0, 3)
    one = tmp_path / "one.csv"
    save_measure(one, [[0.0, 0.0]], [0.5])
    rc = main(["distance", str(empty), str(one)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["support_first"] == 0 and payload["support_second"] == 1
    assert payload["distance"] == 0.5


def test_distance_reads_measures_copied_out_of_frames(run_dir, tmp_path,
                                                      capsys):
    # the benchmark writes its measure files this way: the position and
    # mass strings of a frame, copied out with csv.writer
    paths = []
    for tag, frame in (("first", "frame_main_0000.csv"),
                       ("final", "frame_main_0010.csv")):
        with (run_dir / frame).open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row][1:]
        path = tmp_path / f"main_{tag}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x1", "x2", "w"])
            w.writerows(row[:2] + [row[6]] for row in rows)
        paths.append(path)
    rc = main(["distance", *map(str, paths)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["status"] == "optimal"
    assert payload["support_first"] == 200 == payload["support_second"]


def test_distance_reports_the_size_of_the_final_program(pair_dir, tmp_path,
                                                       capsys):
    # the outer flow's first and final frames: 400 distinct support points
    record = manifest_of(pair_dir)["traces"][1]
    paths = []
    frames = []
    for i in (0, -1):
        frames.append(_load_table(pair_dir / record["frames"][i],
                                  _frame_header(2)))
        paths.append(tmp_path / f"outer_{i}.csv")
        save_measure(paths[-1], frames[-1][:, :2], frames[-1][:, 6])
    rc = main(["distance", *map(str, paths)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["status"] == "optimal"
    assert payload["support_first"] == 200 == payload["support_second"]
    assert payload["rounds"] >= 1
    # each round after the first adds at most one pair per support point
    support = np.unique(np.vstack([f[:, :2] for f in frames]), axis=0)
    assert len(support) == 400
    seed = len(_seed_pairs(support, _SEED_NEIGHBOURS))
    assert 0 < payload["rows"] <= seed + 400 * (payload["rounds"] - 1)


def test_distance_respects_the_support_cap(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    pts = np.linspace(0.0, 1.0, 12)[:, None]
    save_measure(a, pts, np.ones(12))
    save_measure(b, pts + 0.001, np.ones(12))
    monkeypatch.setattr(config, "DEFAULT_SUPPORT_CAP", 10)
    assert main(["distance", str(a), str(b)]) == 1
    assert "support" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the volume-change window


def test_volume_change_on_an_interior_window(run_dir, tmp_path, capsys):
    rc = main(["check", str(run_dir), "--certificates", "volume-change",
               "--config", str(window_ini(tmp_path, radius=0.6))])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["all_passed"] is True
    assert payload["verdicts"]
    for v in payload["verdicts"]:
        assert v["measured"] <= v["bound"]
        assert sorted(v["details"]) == ["steps", "worst_step"]


def test_volume_verdict_in_space_is_exact():
    # the unit cube moves by 0.1 along x away from the ball B(0, 1/2) at its
    # corner: the clipped volume goes from an eighth of the ball, pi r^3 / 6,
    # to a quarter of the cap {x >= 0.1} of height h = 0.4,
    # pi h^2 (3 r - h) / 12
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                 dtype=float)
    quads = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6],
             [0, 2, 6, 4], [1, 5, 7, 3]]
    cube = SurfaceMesh(v, [[a, b, c] for a, b, c, _ in quads]
                       + [[a, c, d] for a, _, c, d in quads])
    V = mesh_to_varifold(cube)
    cfg = FlowConfig(eps=0.1, dt=0.01, end_time=0.01)
    trace = FlowTrace(cfg, (
        Snapshot(0.0, V, mesh_vertices=cube.vertices, step_delta=0.1),
        Snapshot(0.01, V, mesh_vertices=cube.vertices + [0.1, 0.0, 0.0]),
    ), cube.simplices)
    st = dataclasses.replace(Settings(), ball_center=(0.0, 0.0, 0.0),
                             ball_radius=0.5)
    (verdict,) = cli.CERTIFICATES["volume-change"]({"main": trace}, st,
                                                    {"seed": 1})
    assert verdict.passed
    assert verdict.measured == pytest.approx(
        np.pi * 0.5**3 / 6.0 - np.pi * 0.4**2 * (1.5 - 0.4) / 12.0, abs=1e-12)
    assert verdict.bound == volume_change_constant(3, 0.5) * 0.1
    assert verdict.details == {"steps": 1, "worst_step": 0}


def test_convex_hull_grades_flat_initial_supports(tmp_path, capsys):
    # each linked ring lies in a plane, so its initial hull is flat in R^3
    out = tmp_path / "enlaced"
    assert main(["simulate", "--preset", "enlaced-circles", "--out", str(out),
                 "--end-time", "0.012"]) == 0
    capsys.readouterr()
    assert main(["check", str(out), "--certificates", "convex-hull"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["trace"] for v in verdicts] == ["first", "second"]
    assert all(v["details"]["snapshots"] == 3 for v in verdicts)


def test_malformed_volume_center_is_a_usage_error(run_dir, tmp_path, capsys):
    ini = window_ini(tmp_path, radius=0.6, center="a,b")
    assert main(["check", str(run_dir), "--certificates", "volume-change",
                 "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert "[certificates] ball_center: bad value 'a,b'" in captured.err
    assert "_parse_vector" not in captured.err
    assert captured.out == ""


def test_volume_needs_recorded_meshes(run_dir, tmp_path, capsys):
    bare = tmp_path / "meshless"
    shutil.copytree(run_dir, bare)
    man = manifest_of(bare)
    man["traces"][0]["mesh_frames"] = None
    man["traces"][0]["simplices"] = None
    (bare / "manifest.json").write_text(json.dumps(man))
    assert main(["check", str(bare), "--certificates", "volume-change",
                 "--config", str(window_ini(tmp_path, radius=0.6))]) == 2
    assert "mesh" in capsys.readouterr().err.lower()
