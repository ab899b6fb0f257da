"""Incremental Gaussian process distance field mapping.

Range frames are fused into a sparse voxel grid of signed distances;
per-leaf Gaussian processes trained on surface crossings provide a
continuous queryable field with distance, gradient, variance and
optional surface properties, plus an incrementally maintained triangle
mesh.
"""

from .fusion import FusionConfig, FusionStats, fuse_frame, fuse_point
from .global_field import BatchQueryResult, EmptyField, GlobalField, QueryStats
from .gp import FactorizationFailure, KernelParams
from .grid import SparseGrid, VoxelState, grid_to_world, world_to_grid
from .local_field import EmptyFrame, Frame, LocalField, voxelize
from .meshing import TriangleMesh, marching_cubes
from .pipeline import (EmptyInput, FrameStats, Pipeline, PipelineConfig,
                       eval_chamfer,
                       eval_distance_rmse, export_slice, lattice_points,
                       write_stats_csv)
from .query_points import TestPointSet
from .scene import (Primitive, SensorModel, SyntheticScene, load_scene,
                    look_at, orbit_trajectory, parse_scene, render_frame,
                    sphere_trace, surface_samples)

__version__ = "0.1.0"

__all__ = [
    "BatchQueryResult", "EmptyField", "EmptyFrame", "FactorizationFailure",
    "EmptyInput", "Frame", "FrameStats", "FusionConfig", "FusionStats",
    "GlobalField", "KernelParams", "LocalField", "Pipeline", "PipelineConfig",
    "Primitive", "QueryStats", "SensorModel", "SparseGrid", "SyntheticScene",
    "TestPointSet", "TriangleMesh", "VoxelState", "eval_chamfer",
    "eval_distance_rmse", "export_slice", "fuse_frame", "fuse_point",
    "grid_to_world", "lattice_points", "load_scene", "look_at",
    "marching_cubes", "orbit_trajectory", "parse_scene", "render_frame",
    "sphere_trace", "surface_samples", "voxelize", "world_to_grid",
    "write_stats_csv", "__version__",
]
