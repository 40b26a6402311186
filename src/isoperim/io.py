"""File formats: domain JSON, grid text files, report serialization.

Domain files are JSON objects {"vertices": [[x, y], ...]} with finite
double coordinates.  Grid files are plain text: the header line
``nx ny x0 y0 dx dy`` followed by ny rows of nx space-separated values,
row 0 at the smallest y; (x0, y0) is the center of cell (0, 0).  Grid
values are written with full round-trip precision, as ``repr`` of each
float; ``repr`` is called once per distinct bit pattern (a rearranged
grid repeats its samples), which gives the same bytes as one call per
cell.  Report numbers are pinned to 9 significant digits.
"""

import json
import warnings

import numpy as np

from .geometry import ConvexPolygon, validate_polygon


def fmt9(x) -> float:
    """Round a float to 9 significant digits (deterministic text output)."""
    return float(f"{float(x):.9g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return fmt9(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json_text(obj) + "\n")


def json_text(obj) -> str:
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True)


def load_domain(path) -> ConvexPolygon:
    """Read and validate a domain JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("domain file nests arrays or objects too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("domain file must be a JSON object with a 'vertices' key")
    return validate_polygon(data["vertices"])


def read_grid(path, domain: ConvexPolygon) -> "GridFunction":
    """Parse a grid text file and bind it to a domain."""
    from .rearrange import GridFunction
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError("grid header must be 'nx ny x0 y0 dx dy'")
        nx, ny = int(header[0]), int(header[1])
        x0, y0, dx, dy = map(float, header[2:])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # an empty body, reported below
            values = np.loadtxt(fh, ndmin=2)
    if values.size == 0:
        raise ValueError("grid file has no body")
    if values.shape != (ny, nx):
        raise ValueError(f"grid body is {values.shape}, header says {(ny, nx)}")
    return GridFunction(np.array([x0, y0]), np.array([dx, dy]), values, domain)


def write_grid(u: "GridFunction", path):
    """Write a grid file; values round-trip exactly.

    Each distinct value is formatted once and the rows are built from that
    string table.  Values are keyed by bit pattern, not by value, so -0.0
    and 0.0 keep their own strings and the bytes are those of ``repr`` on
    every cell.
    """
    bits, inverse = np.unique(u.values.view(np.uint64), return_inverse=True)
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    with open(path, "w") as fh:
        head = [repr(float(x)) for x in (u.origin[0], u.origin[1],
                                         u.spacing[0], u.spacing[1])]
        fh.write(f"{u.nx} {u.ny} " + " ".join(head) + "\n")
        fh.writelines(" ".join(row) + "\n"
                      for row in table[inverse.reshape(u.values.shape)].tolist())


def write_pgm(grid, path):
    """Binary cell grid as an ASCII portable graymap (top row first)."""
    g = np.asarray(grid)
    with open(path, "w") as fh:
        fh.write(f"P2\n{g.shape[1]} {g.shape[0]}\n255\n")
        for row in g[::-1]:
            fh.write(" ".join("255" if v else "0" for v in row) + "\n")


def write_family_csv(rows, path):
    """CSV with columns v, case, r, perimeter, curvature."""
    with open(path, "w") as fh:
        fh.write("v,case,r,perimeter,curvature\n")
        for v, case, r, p, k in rows:
            fh.write(f"{v:.9g},{case},{r:.9g},{p:.9g},{k:.9g}\n")


def write_report_csv(report, path):
    """CSV with one row per level; the columns are those of report.levels."""
    with open(path, "w") as fh:
        fh.write(",".join(report.levels.dtype.names) + "\n")
        for row in report.levels.tolist():
            fh.write(",".join(f"{x:.9g}" for x in row) + "\n")
