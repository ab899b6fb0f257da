"""Loading of recorded frames and trajectories.

Frames are PLY point clouds or whitespace text with one point per
line: x y z followed by optional property columns (three for RGB, one
for intensity). Trajectories are text files with one pose per line,
"timestamp tx ty tz qx qy qz qw", quaternion scalar-last, mapping the
sensor frame into the world. Frame files pair with trajectory rows in
order.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator

import numpy as np

from . import ply
from .local_field import Frame


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a scalar-last quaternion (qx, qy, qz, qw)."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("zero-norm quaternion")
    x, y, z, w = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def load_trajectory(path) -> list[tuple[float, np.ndarray, np.ndarray, int]]:
    """Parse (timestamp, rotation, translation, line number) pose rows."""
    poses = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                vals = [float(v) for v in line.split()]
                if len(vals) != 8:
                    raise ValueError(f"expected 8 values, got {len(vals)}")
                if not np.isfinite(vals).all():
                    raise ValueError(f"expected finite values, got {line!r}")
                rot = quat_to_rotation(vals[4:8])
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            poses.append((vals[0], rot, np.array(vals[1:4]), ln))
    return poses


def load_rows(path) -> np.ndarray:
    """(n, c) float64 rows of a whitespace text file, one row per line;
    (0, 3) for a file without rows (empty, blank or comments only)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            rows = np.loadtxt(path, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return rows if rows.size else np.zeros((0, 3))


def load_points(path):
    """Read a point cloud file; returns (points, properties_or_None)."""
    if str(path).lower().endswith(".ply"):
        data = ply.read_ply(path)
        return data["vertices"].astype(np.float64), data["properties"]
    rows = load_rows(path)
    if rows.shape[1] < 3:
        raise ValueError(f"{path}: expected at least 3 columns")
    props = rows[:, 3:] if rows.shape[1] > 3 else None
    return rows[:, :3], props


def recorded_frames(frames_dir,
                    trajectory_path) -> Iterator[tuple[str, Frame]]:
    """(source, Frame) of sorted frame files paired with trajectory rows,
    in order, each file loaded only when its frame is asked for; the
    source, "file (trajectory:line)", names the frame in an error."""
    names = sorted(n for n in os.listdir(frames_dir)
                   if n.lower().endswith((".ply", ".xyz", ".txt")))
    poses = load_trajectory(trajectory_path)
    if len(names) > len(poses):
        raise ValueError(f"{len(names)} frame files but only "
                         f"{len(poses)} trajectory rows")
    for name, (t, rot, trans, ln) in zip(names, poses):
        path = os.path.join(frames_dir, name)
        pts, props = load_points(path)
        yield f"{path} ({trajectory_path}:{ln})", Frame(
            points=pts, rotation=rot, translation=trans, properties=props,
            timestamp=t)


def load_frames(frames_dir, trajectory_path) -> Iterator[Frame]:
    """The frames of recorded_frames, without their sources."""
    return (frame for _, frame in recorded_frames(frames_dir, trajectory_path))
