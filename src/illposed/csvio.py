"""Versioned CSV serialization shared by every exporter in the package.

Each file starts with a schema comment line ``# schema=illposed.v1 kind=...``
followed by a header row.  Floats are written with ``repr`` (shortest
round-trip form), so rerunning an identical configuration reproduces the
files byte for byte.
"""

from __future__ import annotations

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
    """
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


def write_csv(path, kind, header, rows) -> None:
    """Write ``rows`` (iterables of cells) under a schema line and header."""
    lines = [f"# schema={SCHEMA_VERSION} kind={kind}", ",".join(header)]
    for row in rows:
        cells = [format_value(v) for v in row]
        if len(cells) != len(header):
            raise ValueError(
                f"row has {len(cells)} cells, header has {len(header)} columns"
            )
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a schema-tagged CSV; returns ``(kind, header, rows)``.

    Rows come back as lists of strings; callers convert the columns they
    need.  Raises ``ValueError`` on a missing or foreign schema line.
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
    rows = []
    for ln in lines[2:]:
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: ragged row {ln!r}")
        rows.append(cells)
    return kind, header, rows
