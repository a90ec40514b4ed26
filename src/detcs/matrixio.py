"""Plain-text matrix files.

Line 1 is ``m n``; each of the next m data lines is the row's float64
view, 2n plain decimal floats ``re im`` per entry.  Blank lines, and lines
whose first non-blank character is ``#``, are skipped.  The serializer emits
shortest round-trip decimals, so parse(serialize(A)) is A bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MatrixParseError
from .linalg import as_matrix


def parse_matrix(text: str) -> np.ndarray:
    header = None
    rows: list[list[float]] = []
    shape = (0, 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if header is None:
            if len(tokens) != 2:
                raise MatrixParseError(
                    f"header must be 'm n', got {len(tokens)} token(s)", line=lineno
                )
            try:
                if "_" in stripped:  # int() reads PEP 515 digit groups, as in 1_0
                    raise ValueError
                m, n = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixParseError(f"header must hold integers, got {stripped!r}", line=lineno)
            if m < 1 or n < 1:
                raise MatrixParseError(f"dimensions must be positive, got {m} x {n}", line=lineno)
            header = lineno
            shape = (m, n)
            continue
        if len(rows) == shape[0]:
            raise MatrixParseError(
                f"expected {shape[0]} data line(s), found more", line=lineno
            )
        if len(tokens) != 2 * shape[1]:
            raise MatrixParseError(
                f"expected {2 * shape[1]} numbers (re im pairs for {shape[1]} entries), "
                f"got {len(tokens)}",
                line=lineno,
            )
        if "_" in stripped:  # float() reads PEP 515 digit groups, as in 1_5
            raise MatrixParseError(f"bad number {next(t for t in tokens if '_' in t)!r}", line=lineno)
        entries = []
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError:
                raise MatrixParseError(f"bad number {tok!r}", line=lineno)
            if not math.isfinite(value):
                raise MatrixParseError(f"non-finite value {tok!r}", line=lineno)
            entries.append(value)
        rows.append(entries)
    if header is None:
        raise MatrixParseError("empty input: no header line")
    if len(rows) != shape[0]:
        raise MatrixParseError(f"expected {shape[0]} data line(s), found {len(rows)}")
    # every token, count and row was checked above: no second pass over the array
    return np.array(rows, dtype=np.float64).view(np.complex128)


def serialize_matrix(a) -> str:
    mat = as_matrix(a)
    m, n = mat.shape
    lines = [f"{m} {n}"]
    lines.extend(" ".join(map(repr, row)) for row in mat.view(np.float64).tolist())
    return "\n".join(lines) + "\n"


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_matrix(_ascii_text(data))
    except MatrixParseError as exc:
        exc.args = (f"{path}: {exc.args[0]}",)  # the message names the file; ``line`` stays
        raise


def _ascii_text(data: bytes) -> str:
    """The file's bytes as text; a byte past ASCII is a parse error on its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the text before the byte is ASCII; the sentinel counts its last line
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise MatrixParseError(f"byte {data[exc.start]:#04x} is not ASCII", line=line) from None


def save_matrix(path, a) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_matrix(a))
