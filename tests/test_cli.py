"""Command-line interface: simulate/check round trips, exit codes, frame IO,
tamper detection, standalone distance and volume reports."""

import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from varimcf.cli import load_manifest, main
from varimcf.errors import ConfigError
from varimcf.flow import brakke_residual, sample
from varimcf.metrics import DiscreteMeasure, save_measure_csv
from varimcf.varifold import ScalarField


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


def manifest_of(path: Path) -> dict:
    return json.loads((path / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_manifest_and_frames(run_dir):
    man = manifest_of(run_dir)
    assert man["tool"] == "varimcf"
    assert man["preset"] == "circle"
    assert man["seed"] == 3
    assert man["config"]["eps"] == 0.1
    assert man["config"]["dt"] == 0.002
    rec = man["traces"][0]
    assert rec["name"] == "main"
    assert len(rec["frames"]) == 11 == len(rec["times"]) == len(rec["masses"])
    assert rec["frames"][0] == "frame_main_0000.csv"
    for fname in rec["frames"]:
        assert (run_dir / fname).exists()
    for fname in rec["mesh_frames"]:
        assert (run_dir / fname).exists()
    assert (run_dir / rec["simplices"]).exists()
    assert np.allclose(np.diff(rec["times"]), 0.002)
    masses = np.array(rec["masses"])
    assert np.all(np.diff(masses) < 0.0)        # the circle loses length
    assert masses[0] == pytest.approx(2 * np.pi, rel=1e-3)


def test_frames_round_trip_through_the_loader(run_dir):
    _, man, traces = load_manifest(str(run_dir))
    tr = traces["main"]
    assert len(tr.snapshots) == 11
    first = tr.snapshots[0].varifold
    assert first.n == 2 and first.d == 1 and len(first) == 200
    assert tr.snapshots[0].curvature is not None     # recorded along the run
    assert tr.snapshots[-1].curvature is None        # nothing after the end
    assert [s.mass for s in tr.snapshots] == pytest.approx(man["traces"][0]["masses"])
    # accepting the manifest.json path itself is equivalent
    _, man2, _ = load_manifest(str(run_dir / "manifest.json"))
    assert man2["traces"][0]["frames"] == man["traces"][0]["frames"]


def test_loaded_trace_refuses_what_needs_the_curvature_jacobian(run_dir):
    # frames store h but not Dh: the readings that need Dh stop with a named
    # error on a written-then-loaded trace
    _, _, traces = load_manifest(str(run_dir))
    tr = traces["main"]
    assert tr.snapshots[0].curvature_jacobian is None
    phi = ScalarField.bump(np.zeros(2), 2.0, 1.0)
    with pytest.raises(ConfigError):
        brakke_residual(tr, phi, 0.0, 0.01)
    with pytest.raises(ConfigError):
        sample(tr, 0.005, "interpolated")


def test_zero_step_run_has_one_snapshot(still_dir):
    rec = manifest_of(still_dir)["traces"][0]
    assert rec["times"] == [0.0]
    assert len(rec["frames"]) == 1


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--preset", "klein-bottle",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "klein-bottle" in capsys.readouterr().err


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
])
def test_bad_config_files_are_usage_errors(tmp_path, capsys, body, fragment):
    ini = tmp_path / "bad.ini"
    ini.write_text(body)
    assert main(["simulate", "--config", str(ini)]) == 2
    assert fragment in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_records_verdicts(run_dir, tmp_path, capsys):
    report = tmp_path / "verdicts.json"
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
    # the same verdicts were written back into the manifest and to --json
    assert json.loads(report.read_text()) == payload
    stored = manifest_of(run_dir)["certificates"]
    assert stored["mass-decay[main]"]["passed"] is True


def test_check_detects_a_teleported_atom(run_dir, tmp_path, capsys):
    broken = tmp_path / "tampered"
    shutil.copytree(run_dir, broken)
    fpath = broken / "frame_main_0005.csv"
    with fpath.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][0] = repr(float(rows[1][0]) + 1.0)   # shove one atom sideways
    with fpath.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main(["check", str(broken), "--certificates", "eps-sphere-barrier"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["all_passed"] is False
    (verdict,) = payload["verdicts"]
    assert verdict["passed"] is False
    assert "displacement" in verdict["details"]["error"]


def test_check_on_single_snapshot_is_trivially_green(still_dir, capsys):
    rc = main(["check", str(still_dir), "--certificates",
               "mass-decay,dissipation-budget"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
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
    capsys.readouterr()
    rc = main(["check", str(out), "--certificates", "nontriviality",
               "--config", str(ini)])
    payload = strict_json(capsys.readouterr().out)
    assert rc == 1
    (verdict,) = payload["verdicts"]
    assert verdict["passed"] is False
    assert verdict["measured"] is None and verdict["bound"] is None
    assert "BallNotInterior" in verdict["details"]["error"]
    stored = strict_json((out / "manifest.json").read_text())["certificates"]
    assert stored["nontriviality[main]"]["bound"] is None


def test_empty_certificate_list_is_a_usage_error(still_dir, tmp_path, capsys):
    assert main(["check", str(still_dir), "--certificates", ""]) == 2
    assert "empty certificate list" in capsys.readouterr().err
    ini = tmp_path / "none.ini"
    ini.write_text("[certificates]\nlist =\n")
    assert main(["check", str(still_dir), "--config", str(ini)]) == 2
    assert "empty certificate list" in capsys.readouterr().err


def test_missing_frame_file_is_reported(run_dir, tmp_path):
    broken = tmp_path / "gappy"
    shutil.copytree(run_dir, broken)
    (broken / "frame_main_0003.csv").unlink()
    assert main(["check", str(broken)]) == 2


# ---------------------------------------------------------------------------
# distance


def test_distance_subcommand_reports_the_metric(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_measure_csv(a, DiscreteMeasure(np.array([[0.0], [1.0]]),
                                        np.array([1.0, 1.0])))
    save_measure_csv(b, DiscreteMeasure(np.array([[0.5], [1.0]]),
                                        np.array([1.0, 1.0])))
    rc = main(["distance", str(a), str(b)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["distance"] == pytest.approx(0.5, abs=1e-9)
    assert payload["support_first"] == 2 == payload["support_second"]
    assert payload["status"] == "optimal"


def test_distance_respects_the_support_cap(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    pts = np.linspace(0.0, 1.0, 12)[:, None]
    save_measure_csv(a, DiscreteMeasure(pts, np.ones(12)))
    save_measure_csv(b, DiscreteMeasure(pts + 0.001, np.ones(12)))
    assert main(["distance", str(a), str(b), "--support-cap", "10"]) == 1
    assert "support" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# volume


def test_volume_subcommand_on_an_interior_window(run_dir, capsys):
    rc = main(["volume", str(run_dir), "--center", "0,0", "--radius", "0.6",
               "--samples", "20000", "--seed", "11"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["all_passed"] is True
    assert payload["verdicts"]
    for v in payload["verdicts"]:
        assert v["measured"] <= v["bound"]


def test_volume_needs_recorded_meshes(run_dir, tmp_path, capsys):
    bare = tmp_path / "meshless"
    shutil.copytree(run_dir, bare)
    man = manifest_of(bare)
    man["traces"][0]["mesh_frames"] = None
    man["traces"][0]["simplices"] = None
    (bare / "manifest.json").write_text(json.dumps(man))
    assert main(["volume", str(bare), "--radius", "0.6"]) == 2
    assert "mesh" in capsys.readouterr().err.lower()
