"""Minimal PLY reader/writer.

Covers what the pipeline needs: binary little-endian or ascii files
with a vertex element (positions plus optional uchar RGB or float
intensity) and an optional face element with triangle indices. The
writer emits binary little-endian; a file written here reads back
bit-exactly. ``replacing`` is how every file writer of the package
writes, so that a failed write keeps the previous file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Optional

import numpy as np

_PROP_TYPES = {
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
    "uchar": "<u1", "uint8": "<u1", "char": "<i1", "int8": "<i1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
}


class IoFailure(OSError):
    """File did not parse as the expected PLY structure."""


@contextmanager
def replacing(path, text: bool = False):
    """A new file to write path's contents to, in path's directory.

    When the block finishes, os.replace moves it onto path; when the
    block raises, it is removed. So a failed write leaves any previous
    file at path as it was.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x" if text else "xb",
                  encoding="utf-8" if text else None) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_mesh(path, vertices: np.ndarray, faces: np.ndarray,
               properties: Optional[np.ndarray] = None,
               prop_kind: str = "none") -> None:
    """Write a triangle mesh as binary little-endian PLY.

    prop_kind "rgb" stores properties scaled to uchar red/green/blue;
    "intensity" stores one float channel; "none" writes bare positions.
    """
    v = np.asarray(vertices, dtype="<f4").reshape(-1, 3)
    f = np.asarray(faces, dtype="<i4").reshape(-1, 3)
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(v)}",
              "property float x", "property float y", "property float z"]
    fields = [("xyz", "<f4", 3, v)]
    if prop_kind == "rgb":
        header += ["property uchar red", "property uchar green",
                   "property uchar blue"]
        fields.append(("rgb", "<u1", 3, np.clip(
            np.asarray(properties)[:, :3] * 255.0 + 0.5, 0, 255).astype("<u1")))
    elif prop_kind == "intensity":
        header += ["property float intensity"]
        fields.append(("i", "<f4", 1, np.asarray(properties)[:, :1]))
    elif prop_kind != "none":
        raise ValueError(f"unknown prop_kind {prop_kind!r}")
    header += [f"element face {len(f)}",
               "property list uchar int vertex_indices", "end_header"]
    rec = np.zeros(len(v), dtype=[spec[:3] for spec in fields])
    for name, _, _, values in fields:
        rec[name] = values
    with replacing(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(rec.tobytes())
        frec = np.zeros(len(f), dtype=[("n", "<u1"), ("idx", "<i4", 3)])
        frec["n"] = 3
        frec["idx"] = f
        fh.write(frec.tobytes())


@np.errstate(invalid="ignore")    # a signalling NaN casts to NaN quietly
def read_ply(path):
    """Parse a PLY file.

    Returns a dict with "vertices" (V, 3) float32, "faces" (T, 3) int32
    (empty if absent), and "properties" (V, P) float64 holding RGB
    scaled to [0, 1] or intensity when present (None otherwise). A
    malformed header, an unknown property type, a vertex element
    without x, y and z, data that ends inside an element, ascii data
    that is not ascii or not a number of its property's type, a list
    count that is not a non-negative integer or a face index outside
    the vertices raises IoFailure naming the file. A NaN coordinate reads
    as NaN, a binary float32 signalling NaN included, without a warning.
    """
    def fail(message):
        raise IoFailure(f"{path}: {message}")

    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        fail("not a PLY file")
    header = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end + len(b"end_header\n"):]

    fmt = "binary_little_endian"
    elements = []          # (name, count, [(prop_name, type, is_list, count_type)])
    for line in header[1:]:
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        is_list = tok[1:2] == ["list"]
        if tok[0] == "format" and len(tok) == 3:
            fmt = tok[1]
        elif tok[0] == "element" and len(tok) == 3 and tok[2].isdigit():
            elements.append((tok[1], int(tok[2]), []))
        elif (tok[0] == "property" and elements
              and len(tok) == (5 if is_list else 3)):
            types = tok[2:4] if is_list else tok[1:2]
            if not set(types) <= _PROP_TYPES.keys():
                fail(f"unknown PLY property type in {line!r}")
            elements[-1][2].append((tok[4], tok[3], True, tok[2]) if is_list
                                   else (tok[2], tok[1], False, None))
        elif tok[0] in ("format", "element", "property"):
            fail(f"bad PLY header line {line!r}")
    if fmt not in ("ascii", "binary_little_endian"):
        fail("big-endian PLY not supported" if fmt == "binary_big_endian"
             else f"unknown PLY format {fmt!r}")
    for name, _, props in elements:
        if len(props) > 1 and any(p[2] for p in props):
            fail(f"PLY element {name} mixes a list with other properties")
        if name == "vertex" and not {"x", "y", "z"} <= {p[0] for p in props}:
            fail("PLY vertex element lacks x, y or z")
    if fmt == "ascii":
        try:
            body = body.decode("ascii").split()
        except UnicodeDecodeError:
            fail("PLY ascii data holds a byte that is not ascii")
    pos = 0

    def take(name, dt, n):
        """(n, k) float64 values of the next n records of dt's k fields."""
        nonlocal pos
        k = len(dt.names)
        size = n * (k if fmt == "ascii" else dt.itemsize)
        if size > len(body) - pos:
            fail(f"PLY data ends inside element {name}")
        vals = np.empty((n, k))
        try:
            for j, c in enumerate(dt.names):
                vals[:, j] = (np.frombuffer(body, dt, n, pos)[c]
                              if fmt != "ascii" else np.asarray(
                                  body[pos + j:pos + size:k],
                                  "f8" if dt[c].kind == "f" else "i8"))
        except (ValueError, OverflowError) as exc:
            fail(f"bad value in PLY element {name}: {exc}")
        pos += size
        return vals

    n_vertices = {name: count for name, count, _ in elements}.get("vertex", 0)
    out = {"vertices": np.zeros((0, 3), dtype=np.float32),
           "faces": np.zeros((0, 3), dtype=np.int32), "properties": None}
    for name, count, props in elements:
        if not any(p[2] for p in props):     # no list property
            vals = take(name, _record([p[1] for p in props]), count)
            if name == "vertex":
                _extract_vertex(out, vals, [p[0] for p in props])
            continue
        faces = []
        count_dt, item_dt = _record([props[0][3]]), _record([props[0][1]])
        for _ in range(count):
            n = take(name, count_dt, 1)[0, 0]
            if not (n >= 0 and n.is_integer()):
                fail(f"PLY element {name} has a list count {n:g}")
            idx = take(name, item_dt, int(n))[:, 0].tolist()
            if name == "face" and not all(0 <= i < n_vertices
                                          and i.is_integer() for i in idx):
                fail(f"PLY face index not one of the {n_vertices} vertices")
            faces += [(idx[0], a, b) for a, b in zip(idx[1:-1], idx[2:])]
        if name == "face":
            out["faces"] = np.asarray(faces, dtype=np.int32).reshape(-1, 3)
    return out


def _record(types):
    """The binary record of the given PLY property types."""
    return np.dtype([(f"c{j}", _PROP_TYPES[t]) for j, t in enumerate(types)])


def _extract_vertex(out, vals, names):
    out["vertices"] = vals[:, [names.index(c) for c in "xyz"]].astype(
        np.float32)
    if {"red", "green", "blue"} <= set(names):
        rgb = [names.index(c) for c in ("red", "green", "blue")]
        out["properties"] = vals[:, rgb] / 255.0
    elif "intensity" in names:
        out["properties"] = vals[:, [names.index("intensity")]]
