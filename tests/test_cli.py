"""Command line verbs, exit codes, and output formats."""

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpfield import frame_io
from gpfield import scene as scene_mod
from gpfield.cli import main
from gpfield.grid import KEY_RANGE_ERROR
from gpfield.pipeline import Pipeline
from gpfield.ply import read_ply, write_mesh

SPHERE_SCENE = "sphere 0 0 0 1\n"

# pytest puts src/ on sys.path (pyproject's pythonpath); a child
# interpreter needs it on PYTHONPATH to import this checkout
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

RUN_ARGS = ["--frames", "4", "--orbit-radius", "2.5",
            "--sensor", "pinhole", "--width", "24", "--height", "18",
            "--focal", "25", "--max-range", "8", "--quiet"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One integrated sphere map shared by the read-only verbs."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "sphere.scene"
    scene.write_text(SPHERE_SCENE)
    snap = root / "map.snap"
    code = main(["run", "--scene", str(scene), "--snapshot", str(snap),
                 *RUN_ARGS])
    assert code == 0
    return root


def test_run_writes_all_outputs(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    snap, mesh, stats = (tmp_path / n for n in ("m.snap", "m.ply", "m.csv"))
    code = main(["run", "--scene", str(scene), "--snapshot", str(snap),
                 "--mesh", str(mesh), "--stats", str(stats),
                 *RUN_ARGS[:-1]])
    out = capsys.readouterr().out
    assert code == 0
    assert "frame 0:" in out and "done frames=4" in out
    assert snap.exists() and mesh.exists()
    assert stats.read_text().splitlines()[0] == "frame,stage,ms,points,voxels,leaves"
    pipe = Pipeline.load_snapshot(snap)
    assert pipe.frame_index == 4
    assert read_ply(mesh)["vertices"].shape[0] > 0


def test_run_without_outputs_fails(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    code = main(["run", "--scene", str(scene), *RUN_ARGS])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_run_missing_scene_file_fails(tmp_path, capsys):
    code = main(["run", "--scene", str(tmp_path / "nope.scene"),
                 "--snapshot", str(tmp_path / "m.snap"), *RUN_ARGS])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_set_overrides_config(tmp_path):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    snap = tmp_path / "m.snap"
    code = main(["run", "--scene", str(scene), "--snapshot", str(snap),
                 "--set", "voxel_size=0.08", "--set", "band_width=2",
                 *RUN_ARGS])
    assert code == 0
    cfg = Pipeline.load_snapshot(snap).config
    assert cfg.voxel_size == 0.08
    assert cfg.band_width == 2


def test_run_config_file_plus_set_precedence(tmp_path):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    cfgfile = tmp_path / "map.cfg"
    cfgfile.write_text("voxel_size = 0.1\nband_width = 2\n")
    snap = tmp_path / "m.snap"
    code = main(["run", "--scene", str(scene), "--snapshot", str(snap),
                 "--config", str(cfgfile), "--set", "voxel_size=0.08",
                 *RUN_ARGS])
    assert code == 0
    cfg = Pipeline.load_snapshot(snap).config
    assert cfg.voxel_size == 0.08      # --set wins over the file
    assert cfg.band_width == 2         # file key survives


def test_bad_set_values_fail(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    base = ["run", "--scene", str(scene),
            "--snapshot", str(tmp_path / "m.snap"), *RUN_ARGS]
    assert main(base + ["--set", "voxel_size"]) == 1
    assert main(base + ["--set", "no_such_key=1"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_bad_config_value_is_one_error_line_naming_the_key(tmp_path):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    run = subprocess.run(
        [sys.executable, "-m", "gpfield.cli", "run", "--scene", str(scene),
         "--snapshot", str(tmp_path / "m.snap"), "--set", "voxel_size=nan",
         *RUN_ARGS],
        capture_output=True, text=True, env=CHILD_ENV)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.splitlines() == ["error: voxel_size must be finite, "
                                       "got nan"]


def error_lines(capsys, argv):
    """Exit status and stderr lines of main(argv), warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a library warning fails the test
        code = main(argv)
    return code, capsys.readouterr().err.splitlines()


ONE_SOURCE = ("error: pass one frame source: --scene, or --frames-dir with "
              "--trajectory")


@pytest.mark.parametrize("verb", ["run", "bench"])
@pytest.mark.parametrize("source", [
    [], ["--frames-dir", "{dir}"], ["--trajectory", "{traj}"],
    ["--scene", "{scene}", "--frames-dir", "{dir}"],
    ["--scene", "{scene}", "--trajectory", "{traj}"],
    ["--scene", "{scene}", "--frames-dir", "{dir}", "--trajectory", "{traj}"]])
def test_frame_source_must_be_exactly_one(tmp_path, capsys, verb, source):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    paths = {"scene": scene, "dir": tmp_path, "traj": tmp_path / "poses.txt"}
    argv = [verb, *(a.format(**paths) for a in source), *RUN_ARGS[:-1]]
    if verb == "run":
        argv += ["--snapshot", str(tmp_path / "m.snap")]
    assert error_lines(capsys, argv) == (1, [ONE_SOURCE])
    assert not (tmp_path / "m.snap").exists()


def test_run_from_recorded_frames(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    u, v = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(-0.5, 0.5, 21))
    plane = np.stack([u.ravel(), v.ravel(), np.full(u.size, 1.0)], axis=1)
    for i in range(2):
        np.savetxt(frames / f"{i:03d}.xyz", plane)
    traj = tmp_path / "poses.txt"
    traj.write_text("0 0 0 0 0 0 0 1\n1 0.05 0 0 0 0 0 1\n")
    snap = tmp_path / "m.snap"
    code = main(["run", "--frames-dir", str(frames), "--trajectory",
                 str(traj), "--snapshot", str(snap), "--quiet"])
    assert code == 0, capsys.readouterr().err
    assert Pipeline.load_snapshot(snap).frame_index == 2


PLANE = "".join(f"{x:g} {y:g} 1\n" for x in np.linspace(-0.5, 0.5, 21)
                for y in np.linspace(-0.5, 0.5, 21))


def run_frames(capsys, root, frames):
    """(exit status, stdout lines, stderr lines, snapshot bytes) of `gpfield
    run` with warnings as errors, over frames {t: text}: a text frame at
    timestamp t posed at x = 0.05 t, alternately .xyz and .txt."""
    (root / "frames").mkdir(parents=True)
    for i, (t, text) in enumerate(sorted(frames.items())):
        (root / "frames" / f"{t:03d}.{'txt' if i % 2 else 'xyz'}"
         ).write_text(text)
    traj = root / "poses.txt"
    traj.write_text("".join(f"{t} {0.05 * t} 0 0 0 0 0 1\n"
                            for t in sorted(frames)))
    snap = root / "m.snap"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--frames-dir", str(root / "frames"),
                     "--trajectory", str(traj), "--snapshot", str(snap)])
    out, err = capsys.readouterr()
    return (code, out.splitlines(), err.splitlines(),
            snap.read_bytes() if code == 0 else None)


@pytest.mark.parametrize("skipped", ["", "\n  \n# no returns\n",
                                     "nan nan nan\nnan nan nan\n"],
                         ids=["empty", "blank", "all_nan"])
def test_frame_without_a_finite_point_is_skipped(tmp_path, capsys, skipped):
    """An empty text frame loads as zero points without numpy's warning,
    and a frame whose points are all NaN (a scan with no returns) is
    skipped like it: the run counts it and writes the snapshot of the run
    without it."""
    code, out, err, snap = run_frames(capsys, tmp_path / "a",
                                      {0: PLANE, 1: skipped, 2: PLANE})
    assert (code, err) == (0, [])
    assert "skipped 1 frame(s) without a finite point" in out
    assert snap == run_frames(capsys, tmp_path / "b",
                              {0: PLANE, 2: PLANE})[3]


def test_run_of_only_empty_frames_is_one_error_line(tmp_path, capsys):
    code, _, err, _ = run_frames(capsys, tmp_path, {0: "", 1: "nan 0 0\n"})
    assert (code, err) == (1, ["error: no non-empty frames to integrate"])


def recorded(root, frames, poses):
    """(frames dir, trajectory path) holding text frames {name: text}
    and the trajectory text poses."""
    (root / "frames").mkdir()
    for name, text in frames.items():
        (root / "frames" / name).write_text(text)
    (root / "poses.txt").write_text(poses)
    return root / "frames", root / "poses.txt"


@pytest.mark.parametrize("pose, message", [
    ("0 0 0 0 0 0 x 1", "could not convert string to float: 'x'"),
    ("0 0 0 0 0 0 0 0", "zero-norm quaternion"),
    ("0 0 0 0 0 0 1", "expected 8 values, got 7"),
    ("0 0 0 0 nan 0 0 1", "expected finite values, got '0 0 0 0 nan 0 0 1'"),
    ("0 inf 0 0 0 0 0 1", "expected finite values, got '0 inf 0 0 0 0 0 1'")],
    ids=["not_a_number", "zero_norm_quaternion", "seven_values",
         "nan_quaternion", "inf_translation"])
def test_bad_trajectory_row_is_one_error_line_naming_file_and_line(
        tmp_path, capsys, pose, message):
    frames, traj = recorded(tmp_path, {"000.xyz": PLANE},
                            f"# t tx ty tz qx qy qz qw\n{pose}\n")
    assert error_lines(capsys, [
        "run", "--frames-dir", str(frames), "--trajectory", str(traj),
        "--snapshot", str(tmp_path / "m.snap")]) == (
        1, [f"error: {traj}:2: {message}"])


def test_bad_text_frame_value_is_one_error_line_naming_the_file(tmp_path,
                                                                capsys):
    frames, traj = recorded(tmp_path, {"000.xyz": "0 0 1\n0 abc 1\n"},
                            "0 0 0 0 0 0 0 1\n")
    code, err = error_lines(capsys, [
        "run", "--frames-dir", str(frames), "--trajectory", str(traj),
        "--snapshot", str(tmp_path / "m.snap")])
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith(f"error: {frames / '000.xyz'}: ")
    assert "'abc'" in err[0]


def test_load_frames_reads_each_file_when_its_frame_is_asked_for(tmp_path):
    frames, traj = recorded(tmp_path, {"000.xyz": PLANE, "001.xyz": "0 x 1\n"},
                            "0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 1\n")
    loaded = frame_io.recorded_frames(frames, traj)
    assert len(next(loaded)[1].points) == 21 * 21
    with pytest.raises(ValueError) as info:
        next(loaded)
    assert str(info.value).startswith(f"{frames / '001.xyz'}: ")
    traj.write_text("0 0 0 0 0 0 0 1\n")
    with pytest.raises(ValueError, match="2 frame files but only 1"):
        next(frame_io.recorded_frames(frames, traj))


@pytest.mark.parametrize("pose", ["0 0 1e300 0 0 0 0 1",
                                  "0 1e6 0 0 0 0 0 1"], ids=["1e300", "1e6"])
def test_frame_past_the_key_range_is_one_error_line_naming_its_source(
        tmp_path, capsys, pose):
    """A finite pose that puts a frame outside the voxel key range names
    the frame file and its trajectory line."""
    frames, traj = recorded(tmp_path, {"000.xyz": PLANE,
                                       "001.xyz": "0 0 1\n0.1 0 1\n"},
                            f"0 0 0 0 0 0 0 1\n# far\n{pose}\n")
    assert error_lines(capsys, [
        "run", "--frames-dir", str(frames), "--trajectory", str(traj),
        "--stats", str(tmp_path / "s.csv")]) == (
        1, [f"error: {frames / '001.xyz'} ({traj}:3): {KEY_RANGE_ERROR}"])


def test_scene_frame_past_the_key_range_is_one_error_line_naming_it(
        tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text("sphere 1e6 0 0 1\n")
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), *RUN_ARGS, "--orbit-center", "1e6,0,0"]
    assert error_lines(capsys, argv) == (
        1, [f"error: frame 0: {KEY_RANGE_ERROR}"])


def test_two_column_text_frame_is_one_error_line_naming_the_file(tmp_path,
                                                                 capsys):
    frames, traj = recorded(tmp_path, {"000.xyz": "0 1\n0.1 1\n"},
                            "0 0 0 0 0 0 0 1\n")
    assert error_lines(capsys, [
        "run", "--frames-dir", str(frames), "--trajectory", str(traj),
        "--snapshot", str(tmp_path / "m.snap")]) == (
        1, [f"error: {frames / '000.xyz'}: expected at least 3 columns"])


@pytest.mark.parametrize("item, message", [
    ("voxel_size=none", "voxel_size must be a number, got None"),
    ("sigma2=null", "sigma2 must be a number, got None"),
    ("normal_k=none", "normal_k must be an integer, got None")])
def test_none_for_a_required_key_is_one_error_line(tmp_path, capsys, item,
                                                   message):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), "--set", item, *RUN_ARGS]
    assert error_lines(capsys, argv) == (1, [f"error: {message}"])


def test_non_positive_weight_cap_is_one_error_line(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), "--set", "weight_cap=-1", *RUN_ARGS]
    assert error_lines(capsys, argv) == (
        1, ["error: weight_cap must be positive, got -1.0"])


@pytest.mark.parametrize("key", ["v_max", "surface_band"])
def test_negative_v_max_or_surface_band_is_one_error_line(tmp_path, capsys,
                                                          key):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), "--set", f"{key}=-1", *RUN_ARGS]
    need = {"v_max": "be at least 0", "surface_band": "be positive"}[key]
    assert error_lines(capsys, argv) == (
        1, [f"error: {key} must {need}, got -1.0"])


def test_zero_surface_band_is_one_error_line(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), "--set", "surface_band=0", *RUN_ARGS]
    assert error_lines(capsys, argv) == (
        1, ["error: surface_band must be positive, got 0.0"])


def with_config(snap, path, config):
    """Copy of snapshot snap at path with its config JSON replaced: by
    config if bytes, else by the old keys updated from config."""
    data = snap.read_bytes()
    n = len(Pipeline._MAGIC)
    version, length = struct.unpack_from("<II", data, n)
    if isinstance(config, dict):
        config = json.dumps({**json.loads(data[n + 8:n + 8 + length]),
                             **config}).encode()
    path.write_bytes(data[:n] + struct.pack("<II", version, len(config))
                     + config + data[n + 8 + length:])
    return path


@pytest.mark.parametrize("config, reason", [
    (b"[]", "config must be a mapping, got []"),
    (b"3", "config must be a mapping, got 3"),
    ({"voxel_size": [0.05]}, "voxel_size must be a number, got [0.05]"),
    ({"voxel_size": None}, "voxel_size must be a number, got None"),
    ({"voxel_size": True}, "voxel_size must be a number, got True"),
    ({"normal_k": 10.0}, "normal_k must be an integer, got 10.0"),
    ({"prop_kind": 3}, "prop_kind must be a string, got 3"),
    (b"{", None)])
def test_bad_snapshot_config_is_one_error_line_naming_the_file(
        workdir, tmp_path, capsys, config, reason):
    bad = with_config(workdir / "map.snap", tmp_path / "bad.snap", config)
    code, lines = error_lines(capsys, ["query", str(bad), "1.5,0,0"])
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith(f"error: {bad}: bad snapshot config: ")
    if reason is not None:
        assert lines[0].endswith(reason)


@pytest.mark.parametrize("flags, message", [
    (["--focal", "0"], "sensor focal must be finite and positive, got 0.0"),
    (["--noise", "-1"],
     "sensor noise_sigma must be finite and not negative, got -1.0"),
    (["--width", "-3"], "sensor width must be at least 1, got -3"),
    (["--max-range", "nan"],
     "sensor max_range must be finite and positive, got nan")])
def test_bad_sensor_is_one_error_line(tmp_path, capsys, flags, message):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), *RUN_ARGS, *flags]
    assert error_lines(capsys, argv) == (1, [f"error: {message}"])


def test_mesh_verb_exports_ply(workdir, capsys):
    out = workdir / "sphere.ply"
    code = main(["mesh", str(workdir / "map.snap"), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("vertices=")
    data = read_ply(out)
    radii = np.linalg.norm(data["vertices"], axis=1)
    assert np.median(np.abs(radii - 1.0)) < 0.1


def test_slice_verb_writes_csv(workdir, capsys):
    out = workdir / "slice.csv"
    code = main(["slice", str(workdir / "map.snap"),
                 "--bounds=-1.2,1.2,-1.2,1.2", "--resolution", "0.4",
                 "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,distance,gradient_x,gradient_y"
    assert stdout.strip() == f"rows={len(lines) - 1}"
    assert len(lines) == 1 + 7 * 7


def test_slice_verb_error_column_with_scene(workdir):
    out = workdir / "slice_err.csv"
    code = main(["slice", str(workdir / "map.snap"),
                 "--bounds=-1,1,-1,1", "--resolution", "0.5",
                 "--out", str(out), "--scene", str(workdir / "sphere.scene")])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",error")
    errs = [abs(float(ln.split(",")[5])) for ln in lines[1:]]
    assert np.median(errs) < 0.2


def test_query_verb_prints_rows(workdir, capsys):
    code = main(["query", str(workdir / "map.snap"), "1.5,0,0", "0,0,2.0"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == ("x,y,z,distance,variance,gradient_x,gradient_y,"
                      "gradient_z,free_space")
    assert len(out) == 3
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["distance"]) == pytest.approx(0.5, abs=0.1)
    assert row["free_space"] in ("0", "1")


def test_query_verb_reads_points_file(workdir, capsys):
    pts = workdir / "pts.txt"
    pts.write_text("1.5 0 0\n0 1.5 0\n")
    code = main(["query", str(workdir / "map.snap"),
                 "--points-file", str(pts)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 3


def test_query_verb_two_column_points_file_is_one_error_line(workdir,
                                                              tmp_path,
                                                              capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1.5 0\n0 1.5\n")
    assert error_lines(capsys, ["query", str(workdir / "map.snap"),
                                "--points-file", str(pts)]) == (
        1, [f"error: {pts}: expected 3 columns"])


def test_query_verb_prints_property_columns_of_an_rgb_map(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text("sphere 0 0 0 1 prop 0.2 0.5 0.9\n")
    snap = tmp_path / "m.snap"
    assert main(["run", "--scene", str(scene), "--snapshot", str(snap),
                 "--set", "prop_kind=rgb", *RUN_ARGS]) == 0
    capsys.readouterr()
    assert main(["query", str(snap), "1.0,0,0", "0,0,2.0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == ("x,y,z,distance,variance,gradient_x,gradient_y,"
                      "gradient_z,free_space,prop_0,prop_1,prop_2")
    assert [len(row.split(",")) for row in out[1:]] == [12, 12]
    props = [float(v) for v in out[1].split(",")[9:]]
    np.testing.assert_allclose(props, [0.2, 0.5, 0.9], atol=0.1)


def test_query_verb_input_errors(workdir, capsys):
    assert main(["query", str(workdir / "map.snap")]) == 1
    assert main(["query", str(workdir / "map.snap"), "1,2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2


@pytest.mark.parametrize("text", ["", "\n# none\n"], ids=["empty", "blank"])
def test_query_verb_empty_points_file_is_one_error_line(workdir, tmp_path,
                                                        capsys, text):
    pts = tmp_path / "pts.txt"
    pts.write_text(text)
    assert error_lines(capsys, ["query", str(workdir / "map.snap"),
                                "--points-file", str(pts)]) == (
        1, ["error: no query points given"])


@pytest.mark.parametrize("point", ["nan,0,0", "0,inf,0", "1e300,0,0"])
def test_query_verb_bad_point_is_one_error_line(workdir, capsys, point):
    assert main(["query", str(workdir / "map.snap"), "1.5,0,0", point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: query row 1 (")


def test_query_verb_truncated_snapshot_is_one_error_line(workdir, tmp_path,
                                                        capsys):
    cut = tmp_path / "cut.snap"
    cut.write_bytes((workdir / "map.snap").read_bytes()[:12])
    assert main(["query", str(cut), "1.5,0,0"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {cut}: ")


def test_eval_verb_reports_metrics(workdir, capsys):
    code = main(["eval", str(workdir / "map.snap"),
                 "--scene", str(workdir / "sphere.scene"),
                 "--bounds=-1.3,1.3,-1.3,1.3,-1.3,1.3",
                 "--resolution", "0.25", "--band", "0.05,0.4",
                 "--chamfer", "--surface-resolution", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    metrics = dict(ln.split("=", 1) for ln in out.strip().splitlines())
    assert set(metrics) == {"rmse", "rmse_points", "chamfer", "completeness"}
    assert 0.0 < float(metrics["rmse"]) < 0.2
    assert int(metrics["rmse_points"]) > 100
    # Four coarse frames leave gaps, so only sanity-bound the mesh metrics.
    assert 0.0 < float(metrics["chamfer"]) < 0.5
    assert 0.2 < float(metrics["completeness"]) <= 1.0


@pytest.mark.parametrize("value", ["0", "-0.1", "nan"])
@pytest.mark.parametrize("verb, flag", [("slice", "--resolution"),
                                        ("eval", "--resolution"),
                                        ("eval", "--surface-resolution")])
def test_bad_resolution_is_one_error_line(workdir, capsys, verb, flag, value):
    argv = [verb, str(workdir / "map.snap")]
    if verb == "slice":
        argv += ["--bounds=-1,1,-1,1", "--out", os.devnull]
    else:
        argv += ["--scene", str(workdir / "sphere.scene"),
                 "--bounds=-1,1,-1,1,-1,1", "--resolution=0.5", "--chamfer"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a library warning fails the test
        assert main(argv + [f"{flag}={value}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: resolution must be finite and positive, got {float(value)!r}"]


def test_bad_resolution_leaves_nothing_else_on_stderr(workdir):
    run = subprocess.run(
        [sys.executable, "-m", "gpfield.cli", "slice", str(workdir / "map.snap"),
         "--bounds=-1,1,-1,1", "--resolution", "0", "--out", os.devnull],
        capture_output=True, text=True, env=CHILD_ENV)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.splitlines() == [
        "error: resolution must be finite and positive, got 0.0"]


def test_memory_error_is_one_error_line(workdir, capsys, monkeypatch):
    def too_big(bounds, resolution):
        raise MemoryError("Unable to allocate 7.3 TiB for an array")

    monkeypatch.setattr(scene_mod, "_lattice_axes", too_big)
    assert main(["eval", str(workdir / "map.snap"),
                 "--scene", str(workdir / "sphere.scene"),
                 "--bounds=-1,1,-1,1,-1,1", "--resolution", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 7.3 TiB for an array"]


def test_bench_verb_emits_timings(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    code = main(["bench", "--scene", str(scene), *RUN_ARGS[:-1],
                 "--stats", str(tmp_path / "bench.csv")])
    captured = capsys.readouterr()
    assert code == 0
    summary = dict(kv.split("=") for kv in captured.err.split())
    assert {"nodes", "invalidated", "trained", "field_bytes",
            "mesh_bytes", "ray_steps", "skipped"} <= set(summary)
    # every node still held was added by some frame's update
    assert int(summary["invalidated"]) >= int(summary["nodes"]) > 0
    assert int(summary["field_bytes"]) > 0 and int(summary["mesh_bytes"]) > 0
    # the sphere sits well inside the sensor range, so every ray starts
    # past the empty space in front of it
    assert int(summary["skipped"]) > 0 and int(summary["ray_steps"]) > 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "frame,stage,ms,points,voxels,leaves"
    stages = {ln.split(",")[1] for ln in rows[1:]}
    assert "global_train" in stages and "total" in stages


def test_bench_verb_defaults_to_stdout(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    code = main(["bench", "--scene", str(scene), *RUN_ARGS[:-1]])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("frame,stage,ms,points,voxels,leaves")


def test_usage_errors_exit_two(workdir):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["slice", str(workdir / "map.snap")])    # --bounds missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_roundtrip(tmp_path):
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    snap = tmp_path / "m.snap"
    run = subprocess.run(
        [sys.executable, "-m", "gpfield.cli", "run", "--scene", str(scene),
         "--snapshot", str(snap), *RUN_ARGS],
        capture_output=True, text=True, env=CHILD_ENV)
    assert run.returncode == 0, run.stderr
    query = subprocess.run(
        [sys.executable, "-m", "gpfield.cli", "query", str(snap), "1.5,0,0"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert query.returncode == 0, query.stderr
    assert query.stdout.splitlines()[0].startswith("x,y,z,distance")
    bad = subprocess.run(
        [sys.executable, "-m", "gpfield.cli", "mesh", str(tmp_path / "no.snap"),
         "--out", str(tmp_path / "no.ply")],
        capture_output=True, text=True, env=CHILD_ENV)
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")


@pytest.mark.parametrize("text, message", [
    ("sphere 0 0 0\n", "line 1: sphere takes 4 numbers, got '0 0 0'"),
    ("sphere 0 0 0 1 active 1\n", "line 1: active takes 2 numbers, got '1'"),
    ("plane 0 0 1 -1\nbox 0 0 0 1 1\n",
     "line 2: box takes 6 numbers, got '0 0 0 1 1'"),
    ("plane 0 0 0 1\n", "line 1: plane normal must not be zero"),
    ("sphere 0 0 0 nan\n", "line 1: sphere numbers must be finite"),
    ("plane 0 0 1 -1\nsphere 0 0 0 1 prop inf\n",
     "line 2: sphere numbers must be finite"),
    ("sphere 1e300 0 0 1\n",
     "line 1: sphere numbers must not exceed 1e+150 in magnitude"),
    ("box 0 0 0 1 1 1\nplane 0 0 -1e200 1\n",
     "line 2: plane numbers must not exceed 1e+150 in magnitude")])
def test_malformed_scene_line_is_one_error_line(tmp_path, capsys, text,
                                                message):
    scene = tmp_path / "s.scene"
    scene.write_text(text)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), *RUN_ARGS]
    assert error_lines(capsys, argv) == (1, [f"error: {message}"])


@pytest.mark.parametrize("orbit, message", [
    (["--orbit-radius", "0"], "radius must be finite and nonzero, got 0.0"),
    (["--orbit-radius", "nan"], "radius must be finite and nonzero, got nan"),
    (["--orbit-radius", "1e200"],
     "radius must not exceed 1e+150 in magnitude, got 1e+200"),
    (["--orbit-center", "1e200,0,0"],
     "center must not exceed 1e+150 in magnitude, got [1e+200, 0.0, 0.0]"),
    (["--orbit-center", "1e150,0,0", "--orbit-radius", "1e150"],
     "center [1e+150, 0.0, 0.0] and radius 1e+150 put an eye past 1e+150 "
     "in magnitude"),
    (["--orbit-center", "0,0,1e150", "--orbit-radius", "1e150",
      "--elevation", "90"],
     "center [0.0, 0.0, 1e+150] and radius 1e+150 put an eye past 1e+150 "
     "in magnitude")],
    ids=["0", "nan", "1e200", "center_1e200", "far_eye", "far_eye_above"])
def test_degenerate_orbit_is_one_error_line(tmp_path, capsys, orbit,
                                            message):
    """Without a numpy warning: tier-1 fails on any RuntimeWarning."""
    scene = tmp_path / "s.scene"
    scene.write_text(SPHERE_SCENE)
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), *RUN_ARGS, *orbit]
    assert error_lines(capsys, argv) == (1, [f"error: orbit {message}"])


def test_scene_prop_of_another_width_is_one_error_line(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text("sphere 0 0 0 1 prop 0.3 0.4\n")
    argv = ["run", "--scene", str(scene), "--snapshot",
            str(tmp_path / "m.snap"), "--set", "prop_kind=rgb", *RUN_ARGS]
    assert error_lines(capsys, argv) == (
        1, ["error: line 1: prop takes 3 numbers, got '0.3 0.4'"])


# valid inputs of each kind that `gpfield run` reads, for the damage test
FUZZ_SCENE = b"sphere 0 0 0 1 active 0 9\nbox 0 0 -1.2 2 2 0.1 prop 0.5\n"
FUZZ_POINTS = np.stack(np.meshgrid(np.linspace(-0.4, 0.4, 6),
                                   np.linspace(-0.4, 0.4, 6), [1.0],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
FUZZ_RGB = np.linspace(0.0, 1.0, FUZZ_POINTS.size).reshape(-1, 3)


def fuzz_ascii_ply() -> bytes:
    header = ["ply", "format ascii 1.0", f"element vertex {len(FUZZ_POINTS)}",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green",
              "property uchar blue", "end_header"]
    rows = [" ".join(["%g" % x for x in p] + [str(int(c * 255)) for c in q])
            for p, q in zip(FUZZ_POINTS, FUZZ_RGB)]
    return "\n".join(header + rows + [""]).encode("ascii")


def fuzz_binary_ply() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "frame.ply"
        write_mesh(path, FUZZ_POINTS, np.zeros((0, 3), dtype=np.int64),
                   FUZZ_RGB, "rgb")
        return path.read_bytes()


def fuzz_xyz() -> bytes:
    """A text frame: x y z r g b per line."""
    return "".join(" ".join("%g" % x for x in row) + "\n"
                   for row in np.hstack([FUZZ_POINTS, FUZZ_RGB])).encode()


FUZZ_INPUTS = {"scene": FUZZ_SCENE, "ascii_ply": fuzz_ascii_ply(),
               "binary_ply": fuzz_binary_ply(), "xyz": fuzz_xyz()}


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """data cut short, or with one byte replaced."""
    i = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:i]
    return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]


def run_on(kind: str, data: bytes):
    """Exit status and stderr lines of `gpfield run` on data as a scene
    file or as the one PLY or text frame of a recorded sequence."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        if kind == "scene":
            (d / "s.scene").write_bytes(data)
            source = ["--scene", str(d / "s.scene"), "--frames", "2",
                      "--sensor", "pinhole", "--width", "16",
                      "--height", "12", "--focal", "15"]
        else:
            (d / "frames").mkdir()
            suffix = "xyz" if kind == "xyz" else "ply"
            (d / "frames" / f"0.{suffix}").write_bytes(data)
            (d / "poses.txt").write_text("0 0 0 0 0 0 0 1\n")
            source = ["--frames-dir", str(d / "frames"), "--trajectory",
                      str(d / "poses.txt"), "--set", "prop_kind=rgb"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", *source, "--snapshot", str(d / "m.snap"),
                         "--quiet"])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("kind", sorted(FUZZ_INPUTS))
def test_valid_fuzz_inputs_run(kind):
    assert run_on(kind, FUZZ_INPUTS[kind]) == (0, [])


@pytest.mark.parametrize("kind", sorted(FUZZ_INPUTS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_input_runs_or_is_one_error_line(kind, data):
    """A cut or corrupted input file never escapes the CLI as a
    traceback: the run succeeds or exits 1 with one error line."""
    code, lines = run_on(kind, data.draw(damaged(FUZZ_INPUTS[kind])))
    errors = [ln for ln in lines if ln.startswith("error:")]
    assert code == 0 and errors == [] or code == 1 and len(errors) == 1


def test_signalling_nan_coordinate_is_dropped_without_a_warning(tmp_path):
    """A float32 signalling NaN reads as a quiet NaN, which voxelize drops
    as a non-finite point, and no cast on the way warns."""
    data = bytearray(FUZZ_INPUTS["binary_ply"])
    at = data.index(b"end_header\n") + len(b"end_header\n")
    data[at:at + 4] = bytes.fromhex("0ad7a37f")
    path = tmp_path / "snan.ply"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vertices = read_ply(path)["vertices"]
        assert run_on("binary_ply", bytes(data)) == (0, [])
    assert np.isnan(vertices[0, 0]) and np.isfinite(vertices[1:]).all()
