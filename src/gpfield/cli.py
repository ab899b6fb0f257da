"""Command line front end.

Verbs:
    run     integrate a frame sequence into a map snapshot / mesh / stats
    mesh    export a PLY surface mesh from a snapshot
    slice   sample a planar slice of the distance field as CSV
    query   evaluate the field at explicit points
    eval    compare a snapshot against an analytic scene
    bench   run with per-stage timing, including eager GP training

Errors exit nonzero with a single "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import frame_io
from . import scene as scene_mod
from .local_field import EmptyFrame
from .pipeline import (EmptyInput, Pipeline, PipelineConfig, eval_chamfer,
                       eval_distance_rmse, export_slice, write_stats_csv)


def _vec(text: str, n: int, name: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{name} needs {n} comma-separated values, "
                         f"got {text!r}")
    return np.array([float(p) for p in parts])


def _config_from_args(args) -> PipelineConfig:
    mapping = {}
    if getattr(args, "config", None):
        mapping.update(PipelineConfig.parse_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        mapping[key.strip()] = val.strip()
    return PipelineConfig.from_mapping(mapping)


def _build_sensor(args) -> scene_mod.SensorModel:
    fov = _vec(args.fov, 2, "--fov") * np.pi / 180.0
    return scene_mod.SensorModel(
        kind=args.sensor, width=args.width, height=args.height,
        focal=args.focal, azimuth_steps=args.azimuth_steps,
        elevation_steps=args.elevation_steps,
        elevation_range=(float(fov[0]), float(fov[1])),
        max_range=args.max_range, noise_sigma=args.noise, seed=args.seed)


def _iter_frames(args, config: PipelineConfig):
    """Yield (source, Frame) pairs from either a synthetic scene or
    recorded files; the source names the frame in an error."""
    if args.scene and not (args.frames_dir or args.trajectory):
        scn = scene_mod.load_scene(args.scene,
                                   prop_channels=config.prop_channels)
        sensor = _build_sensor(args)
        center = _vec(args.orbit_center, 3, "--orbit-center")
        poses = scene_mod.orbit_trajectory(
            center, args.orbit_radius, args.frames,
            elevation=args.elevation * np.pi / 180.0,
            start_azimuth=args.start_azimuth * np.pi / 180.0)
        for i, pose in enumerate(poses):
            t = i * args.time_step
            yield f"frame {i}", scene_mod.render_frame(scn, sensor, pose, t)
    elif args.frames_dir and args.trajectory and not args.scene:
        yield from frame_io.recorded_frames(args.frames_dir, args.trajectory)
    else:
        raise ValueError("pass one frame source: --scene, or --frames-dir "
                         "with --trajectory")


def _integrate(args, quiet: bool) -> Pipeline:
    config = _config_from_args(args)
    pipe = Pipeline(config)
    n_skipped = 0
    for source, frame in _iter_frames(args, config):
        try:
            st = pipe.integrate_frame(frame)
        except EmptyFrame:      # no finite point; the map is untouched
            n_skipped += 1
            continue
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        if not quiet:
            print(f"frame {st.frame}: points={st.n_points} "
                  f"test_points={st.n_test_points} "
                  f"voxels={st.n_voxels_fused} "
                  f"leaves={st.n_leaves_active} ms={st.total_ms:.1f}")
    if pipe.frame_index == 0:
        raise EmptyInput("no non-empty frames to integrate")
    if n_skipped and not quiet:
        print(f"skipped {n_skipped} frame(s) without a finite point")
    return pipe


def _cmd_run(args) -> int:
    if not (args.snapshot or args.mesh or args.stats):
        raise ValueError("run produced no outputs; "
                         "pass --snapshot, --mesh, or --stats")
    pipe = _integrate(args, args.quiet)
    if args.snapshot:
        pipe.save_snapshot(args.snapshot)
    if args.mesh:
        mesh = pipe.write_mesh(args.mesh)
        if not args.quiet:
            print(f"mesh: vertices={mesh.n_vertices} "
                  f"triangles={mesh.n_triangles}")
    if args.stats:
        write_stats_csv(pipe.stats, args.stats)
    if not args.quiet:
        print(f"done frames={pipe.frame_index} leaves={pipe.grid.n_leaves} "
              f"nodes={pipe.field.n_nodes}")
    return 0


def _cmd_mesh(args) -> int:
    pipe = Pipeline.load_snapshot(args.snapshot)
    mesh = pipe.write_mesh(args.out)
    print(f"vertices={mesh.n_vertices} triangles={mesh.n_triangles}")
    return 0


def _cmd_slice(args) -> int:
    pipe = Pipeline.load_snapshot(args.snapshot)
    b = _vec(args.bounds, 4, "--bounds")
    oracle = None
    if args.scene:
        scn = scene_mod.load_scene(args.scene)
        oracle = lambda p: scn.sdf(p, args.time)
    rows = export_slice(pipe.field, args.axis, args.offset,
                        ((b[0], b[1]), (b[2], b[3])), args.resolution,
                        args.out, oracle)
    print(f"rows={rows}")
    return 0


def _cmd_query(args) -> int:
    pipe = Pipeline.load_snapshot(args.snapshot)
    pts = [_vec(p, 3, "point") for p in args.points]
    if args.points_file:
        rows = frame_io.load_rows(args.points_file)
        if rows.shape[1] < 3:
            raise ValueError(f"{args.points_file}: expected 3 columns")
        pts.extend(rows[:, :3])
    if not pts:
        raise ValueError("no query points given")
    res = pipe.field.query_batch(np.asarray(pts))
    header = "x,y,z,distance,variance,gradient_x,gradient_y,gradient_z,free_space"
    nprop = 0 if res.properties is None else res.properties.shape[1]
    header += "".join(f",prop_{i}" for i in range(nprop))
    print(header)
    for i, p in enumerate(pts):
        cols = [p[0], p[1], p[2], res.distances[i], res.variances[i],
                *res.gradients[i], int(res.free_space[i])]
        if nprop:
            cols.extend(res.properties[i])
        print(",".join("%.9g" % v for v in cols))
    return 0


def _cmd_eval(args) -> int:
    pipe = Pipeline.load_snapshot(args.snapshot)
    scn = scene_mod.load_scene(args.scene)
    b = _vec(args.bounds, 6, "--bounds")
    bounds = ((b[0], b[2], b[4]), (b[1], b[3], b[5]))
    band = _vec(args.band, 2, "--band")
    rmse, n = eval_distance_rmse(pipe.field, lambda p: scn.sdf(p, args.time),
                                 bounds, args.resolution,
                                 band=(float(band[0]), float(band[1])))
    print(f"rmse={rmse:.6g}")
    print(f"rmse_points={n}")
    if args.chamfer:
        mesh = pipe.export_mesh()
        ref = scene_mod.surface_samples(scn, bounds, args.surface_resolution,
                                        t=args.time)
        thr = args.completeness_threshold
        if thr is None:
            thr = pipe.config.voxel_size
        chamfer, comp = eval_chamfer(mesh.vertices, ref, thr)
        print(f"chamfer={chamfer:.6g}")
        print(f"completeness={comp:.6g}")
    return 0


def _cmd_bench(args) -> int:
    pipe = _integrate(args, quiet=True)
    t0 = time.perf_counter()
    n_trained = pipe.field.train_pending()
    train_ms = (time.perf_counter() - t0) * 1e3
    if pipe.stats:
        pipe.stats[-1].stage_ms["global_train"] = train_ms
    write_stats_csv(pipe.stats, args.stats if args.stats else sys.stdout)
    invalidated = sum(st.n_nodes_invalidated for st in pipe.stats)
    ray_steps = sum(st.n_ray_steps for st in pipe.stats)
    skipped = sum(st.n_ray_steps_skipped for st in pipe.stats)
    print(f"frames={pipe.frame_index} leaves={pipe.grid.n_leaves} "
          f"nodes={pipe.field.n_nodes} invalidated={invalidated} "
          f"trained={n_trained} train_ms={train_ms:.1f} "
          f"field_bytes={pipe.field.nbytes} mesh_bytes={pipe.surface.nbytes} "
          f"ray_steps={ray_steps} skipped={skipped}", file=sys.stderr)
    return 0


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("input")
    src.add_argument("--scene", help="scene description file")
    src.add_argument("--frames-dir", help="directory of PLY/XYZ frames")
    src.add_argument("--trajectory", help="pose file for --frames-dir")
    src.add_argument("--frames", type=int, default=36,
                     help="synthetic frame count (default 36)")
    src.add_argument("--time-step", type=float, default=1.0,
                     help="scene seconds per synthetic frame")
    orb = p.add_argument_group("synthetic trajectory")
    orb.add_argument("--orbit-center", default="0,0,0")
    orb.add_argument("--orbit-radius", type=float, default=2.0)
    orb.add_argument("--elevation", type=float, default=0.0,
                     help="orbit elevation, degrees")
    orb.add_argument("--start-azimuth", type=float, default=0.0,
                     help="first frame azimuth, degrees")
    sen = p.add_argument_group("sensor")
    sen.add_argument("--sensor", choices=("lidar", "pinhole"),
                     default="lidar")
    sen.add_argument("--width", type=int, default=64)
    sen.add_argument("--height", type=int, default=48)
    sen.add_argument("--focal", type=float, default=60.0)
    sen.add_argument("--azimuth-steps", type=int, default=64)
    sen.add_argument("--elevation-steps", type=int, default=16)
    sen.add_argument("--fov", default="-23,23",
                     help="lidar elevation range, degrees (default -23,23)")
    sen.add_argument("--max-range", type=float, default=10.0)
    sen.add_argument("--noise", type=float, default=0.0,
                     help="range noise sigma, metres")
    sen.add_argument("--seed", type=int, default=0)
    cfg = p.add_argument_group("config")
    cfg.add_argument("--config", help="key=value config file")
    cfg.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpfield",
        description="Incremental Gaussian process distance field mapping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate frames into a map")
    _add_source_args(p)
    p.add_argument("--snapshot", help="write map snapshot here")
    p.add_argument("--mesh", help="write surface mesh PLY here")
    p.add_argument("--stats", help="write per-stage timing CSV here")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("mesh", help="export mesh from a snapshot")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("slice", help="CSV slice of the distance field")
    p.add_argument("snapshot")
    p.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--bounds", required=True, metavar="A0,A1,B0,B1",
                   help="in-plane bounds")
    p.add_argument("--resolution", type=float, default=0.02)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--scene", help="scene file for an error column")
    p.add_argument("--time", type=float, default=0.0)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("query", help="evaluate the field at points")
    p.add_argument("snapshot")
    p.add_argument("points", nargs="*", metavar="X,Y,Z")
    p.add_argument("--points-file", help="text file, one x y z per line")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="compare a snapshot against a scene")
    p.add_argument("snapshot")
    p.add_argument("--scene", required=True)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--bounds", required=True,
                   metavar="X0,X1,Y0,Y1,Z0,Z1")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--band", default="0,inf",
                   help="oracle |distance| band to evaluate (default 0,inf)")
    p.add_argument("--chamfer", action="store_true",
                   help="also report mesh chamfer / completeness")
    p.add_argument("--surface-resolution", type=float, default=0.02)
    p.add_argument("--completeness-threshold", type=float, default=None,
                   help="default: one voxel")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run and report per-stage timings")
    _add_source_args(p)
    p.add_argument("--stats", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
