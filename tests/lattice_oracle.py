"""The whole-lattice evaluation that the block-streamed one replaced.

``pipeline.eval_distance_rmse`` and ``scene.surface_samples`` must equal
the functions here bit for bit: each builds the whole lattice with
``lattice_points``, runs the oracle or the projection over all of it at
once, and (for the RMSE) queries the in-band points EVAL_BATCH at a time.
"""

import numpy as np

from gpfield.pipeline import EVAL_BATCH
from gpfield.scene import SURFACE_TOL, lattice_points


def eval_distance_rmse(field, oracle, bounds, resolution,
                       band=(0.0, np.inf)):
    pts = lattice_points(bounds, resolution)
    truth = np.abs(np.asarray(oracle(pts), dtype=np.float64))
    mask = (truth >= band[0]) & (truth <= band[1])
    pts = pts[mask]
    truth = truth[mask]
    if len(pts) == 0:
        return 0.0, 0
    err2 = 0.0
    for i in range(0, len(pts), EVAL_BATCH):
        res = field.query_batch(pts[i:i + EVAL_BATCH])
        err2 += np.sum((np.abs(res.distances) - truth[i:i + EVAL_BATCH]) ** 2)
    return float(np.sqrt(err2 / len(pts))), int(len(pts))


def surface_samples(scene, bounds, resolution, t=0.0):
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    pts = lattice_points((lo, hi), resolution)
    d = scene.sdf(pts, t)
    pts = pts[np.abs(d) <= resolution]
    eps = 1e-5
    basis = np.eye(3) * eps
    for _ in range(4):
        if not len(pts):
            break
        d = scene.sdf(pts, t)
        grad = np.stack([scene.sdf(pts + e, t) - scene.sdf(pts - e, t)
                         for e in basis], axis=1) / (2.0 * eps)
        norm2 = np.maximum(np.sum(grad * grad, axis=1), 1e-12)
        pts = pts - (d / norm2)[:, None] * grad
    keep = np.abs(scene.sdf(pts, t)) < SURFACE_TOL
    keep &= np.all(pts >= lo, axis=1) & np.all(pts <= hi, axis=1)
    return pts[keep]
