"""Versioned CSV serialization: one writer and one reader for every artifact table.

Each file is a table of named columns under a schema comment line
``# schema=illposed.v1 kind=...`` and a header row.  Floats are written with
``repr`` (shortest round-trip form), so rerunning an identical configuration
reproduces the files byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "format_value",
    "write_csv",
    "read_csv",
]

SCHEMA_VERSION = "illposed.v1"


def format_value(v) -> str:
    """Serialize one cell deterministically.

    Booleans become 0/1 flags, integers stay integers, floats use the
    shortest representation that round-trips, including ``nan``/``inf``.
    numpy scalars are formatted as the Python value they hold.
    """
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"cell {v!r} would break the row format")
        return v
    if isinstance(v, int):
        return str(v)
    # repr spells the non-finite floats nan, inf and -inf.
    return "nan" if v is None else repr(float(v))


def write_csv(path, kind, columns) -> None:
    """Write ``columns`` (name -> cells, in file order) under a schema line.

    A float64 array is formatted whole, as ``repr`` of each value; any other
    column cell by cell through :func:`format_value`.  Raises ``ValueError``
    when the columns differ in length.
    """
    cells = [
        list(map(repr, col.tolist()))
        if isinstance(col, np.ndarray) and col.dtype == np.float64
        else [format_value(v) for v in col]
        for col in columns.values()
    ]
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"columns differ in length: {dict(zip(columns, map(len, cells)))}")
    lines = [f"# schema={SCHEMA_VERSION} kind={kind}", ",".join(columns)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a schema-tagged CSV; returns ``(kind, columns)``.

    ``columns`` maps each header name, in file order, to its cells as
    strings; callers convert the columns they need.  Raises ``ValueError``
    on a missing or foreign schema line, a repeated name or a ragged row.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path}: missing schema line")
    tag = lines[0][len("# schema=") :]
    parts = tag.split(" kind=")
    if len(parts) != 2 or parts[0] != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema {tag!r}")
    kind = parts[1]
    if len(lines) < 2:
        raise ValueError(f"{path}: missing header row")
    header = lines[1].split(",")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: repeated column name in {lines[1]!r}")
    columns = {name: [] for name in header}
    for ln in lines[2:]:
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: ragged row {ln!r}")
        for col, cell in zip(columns.values(), cells):
            col.append(cell)
    return kind, columns
