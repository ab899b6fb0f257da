"""The PLY reader that the one-walk reader replaced.

``ply.read_ply`` must return what ``read_ply`` here returns for every valid
file, array for array and byte for byte: this reader walks ascii and
binary data in two separate copies of the element loop, takes binary
vertex positions straight from the records, and builds triangle fans from
Python tuples.
"""

import numpy as np

from gpfield.ply import IoFailure

_PROP_TYPES = {
    "float": ("<f4", 4), "float32": ("<f4", 4),
    "double": ("<f8", 8), "float64": ("<f8", 8),
    "uchar": ("<u1", 1), "uint8": ("<u1", 1),
    "char": ("<i1", 1), "int8": ("<i1", 1),
    "short": ("<i2", 2), "int16": ("<i2", 2),
    "ushort": ("<u2", 2), "uint16": ("<u2", 2),
    "int": ("<i4", 4), "int32": ("<i4", 4),
    "uint": ("<u4", 4), "uint32": ("<u4", 4),
}


def read_ply(path):
    """Parse a PLY file.

    Returns a dict with "vertices" (V, 3) float32, "faces" (T, 3) int32
    (empty if absent), and "properties" (V, P) float64 holding RGB
    scaled to [0, 1] or intensity when present (None otherwise). A
    malformed header, an unknown property type, a vertex element
    without x, y and z, or data that ends inside an element raises
    IoFailure naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise IoFailure(f"{path}: not a PLY file")
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
                raise IoFailure(f"{path}: unknown PLY property type in "
                                f"{line!r}")
            if is_list:
                elements[-1][2].append((tok[4], tok[3], True, tok[2]))
            else:
                elements[-1][2].append((tok[2], tok[1], False, None))
        elif tok[0] in ("format", "element", "property"):
            raise IoFailure(f"{path}: bad PLY header line {line!r}")
    if fmt == "binary_big_endian":
        raise IoFailure(f"{path}: big-endian PLY not supported")
    if fmt not in ("ascii", "binary_little_endian"):
        raise IoFailure(f"{path}: unknown PLY format {fmt!r}")
    for name, _, props in elements:
        if len(props) > 1 and any(p[2] for p in props):
            raise IoFailure(f"{path}: PLY element {name} mixes a list "
                            "with other properties")
        if name == "vertex" and not {"x", "y", "z"} <= {p[0] for p in props}:
            raise IoFailure(f"{path}: PLY vertex element lacks x, y or z")

    def ensure(ok: bool, name: str) -> None:
        if not ok:
            raise IoFailure(f"{path}: PLY data ends inside element {name}")

    out = {"vertices": np.zeros((0, 3), dtype=np.float32),
           "faces": np.zeros((0, 3), dtype=np.int32),
           "properties": None}
    if fmt == "ascii":
        rows = body.decode("ascii").split()
        pos = 0
        for name, count, props in elements:
            if any(p[2] for p in props):        # list property (faces)
                faces = []
                for _ in range(count):
                    ensure(pos < len(rows), name)
                    n = int(rows[pos]); pos += 1
                    ensure(0 <= n <= len(rows) - pos, name)
                    idx = [int(rows[pos + i]) for i in range(n)]
                    pos += n
                    for i in range(1, n - 1):
                        faces.append((idx[0], idx[i], idx[i + 1]))
                if name == "face":
                    out["faces"] = np.asarray(faces, dtype=np.int32).reshape(-1, 3)
            else:
                ensure(count * len(props) <= len(rows) - pos, name)
                vals = np.asarray(rows[pos:pos + count * len(props)],
                                  dtype=np.float64).reshape(count, len(props))
                pos += count * len(props)
                if name == "vertex":
                    _extract_vertex(out, vals, [p[0] for p in props])
        return out

    offset = 0
    for name, count, props in elements:
        if any(p[2] for p in props):
            faces = []
            count_t = _PROP_TYPES[props[0][3]][0]
            item_t, item_s = _PROP_TYPES[props[0][1]]
            csize = _PROP_TYPES[props[0][3]][1]
            for _ in range(count):
                ensure(offset + csize <= len(body), name)
                n = int(np.frombuffer(body, dtype=count_t, count=1,
                                      offset=offset)[0])
                offset += csize
                ensure(0 <= n and offset + n * item_s <= len(body), name)
                idx = np.frombuffer(body, dtype=item_t, count=n, offset=offset)
                offset += n * item_s
                for i in range(1, n - 1):
                    faces.append((idx[0], idx[i], idx[i + 1]))
            if name == "face":
                out["faces"] = np.asarray(faces, dtype=np.int32).reshape(-1, 3)
        else:
            dt = np.dtype([(p[0], _PROP_TYPES[p[1]][0]) for p in props])
            ensure(offset + dt.itemsize * count <= len(body), name)
            rec = np.frombuffer(body, dtype=dt, count=count, offset=offset)
            offset += dt.itemsize * count
            if name == "vertex":
                vals = np.stack([rec[p[0]].astype(np.float64) for p in props],
                                axis=1)
                _extract_vertex(out, vals, [p[0] for p in props], rec)
    return out


def _extract_vertex(out, vals, names, rec=None):
    ix, iy, iz = names.index("x"), names.index("y"), names.index("z")
    if rec is not None:
        out["vertices"] = np.stack([rec["x"], rec["y"], rec["z"]],
                                   axis=1).astype(np.float32)
    else:
        out["vertices"] = vals[:, [ix, iy, iz]].astype(np.float32)
    if all(c in names for c in ("red", "green", "blue")):
        cols = [names.index(c) for c in ("red", "green", "blue")]
        out["properties"] = vals[:, cols] / 255.0
    elif "intensity" in names:
        out["properties"] = vals[:, [names.index("intensity")]]
