"""Parsers, serializers, and loaders for instance files.

Supported formats: TSPLIB coordinate/matrix files, QAPLIB flow+distance
files, OR-Library multi-constraint knapsack bundles, and a line-oriented
road-network format (node list, ``u v distance waiting`` edge lines, then a
``velocity source destination`` trailer).  Tokenization is whitespace
tolerant everywhere; unknown TSPLIB header keys warn instead of failing.
Numbers come in counted blocks: a block that runs short is a truncation
error, surplus numbers in a TSPLIB weight section are a ``CountMismatch``,
and tokens after a QAPLIB or OR-Library file's last block warn.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CountMismatch,
    DimensionMismatch,
    DuplicateEdge,
    InstanceError,
    MissingHeaderField,
    NonNumericToken,
    ParseError,
    TruncatedMatrix,
    TruncatedSection,
    UnsupportedEdgeWeightType,
)
from .problems import KnapsackInstance, QapInstance, RoadNetwork, TspInstance

FORMATS = ("TSPLIB", "QAPLIB", "ORLIB_MKNAP", "ROADNET")


@dataclass
class InstanceFileRecord:
    path: str
    format: str
    checksum: str
    payload: object


def checksum_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Tokens:
    """Whitespace-separated numbers, read in counted blocks."""

    def __init__(self, text: str, error=TruncatedSection):
        self.tokens = text.split()
        self.pos = 0
        self.error = error

    def remaining(self) -> int:
        return len(self.tokens) - self.pos

    def take(self, count: int, what: str, error=None, dtype=float) -> np.ndarray:
        """The next ``count`` numbers as one array; ``error`` (else the
        stream's truncation error) when fewer are left."""
        block = self.tokens[self.pos : self.pos + count]
        if len(block) < count:
            raise (error or self.error)(f"{what}: needed {count} values, found {len(block)}")
        self.pos += count
        try:
            return np.array(block, dtype=dtype)
        except (ValueError, OverflowError) as exc:  # overflow: an int beyond int64
            raise NonNumericToken(f"bad number in {what}: {exc}") from exc

    def take_int(self, what: str) -> int:
        return int(self.take(1, what, dtype=np.int64)[0])

    def warn_trailing(self, what: str) -> None:
        if self.remaining():
            warnings.warn(f"ignoring {self.remaining()} trailing tokens in {what}")


# --- TSPLIB -------------------------------------------------------------------

_TSPLIB_KNOWN_KEYS = {
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
    "NODE_COORD_TYPE",
    "DISPLAY_DATA_TYPE",
}

_MATRIX_FORMATS = (
    "FULL_MATRIX",
    "UPPER_ROW",
    "LOWER_ROW",
    "UPPER_DIAG_ROW",
    "LOWER_DIAG_ROW",
)

#: the data sections; a line that starts with one opens it
_TSPLIB_SECTIONS = ("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION", "DISPLAY_DATA_SECTION")


def parse_tsplib(text: str) -> TspInstance:
    """TSPLIB-style keyed header plus coordinate or matrix section."""
    header: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    section = None

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            continue
        upper = line.upper()
        opened = next((s for s in _TSPLIB_SECTIONS if upper.startswith(s)), None)
        if opened:
            section = sections.setdefault(opened, [])
        elif section is not None:
            section.append(line)
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            if key not in _TSPLIB_KNOWN_KEYS:
                warnings.warn(f"ignoring unknown TSPLIB header key {key!r}")
                continue
            header[key] = value.strip()
        else:
            warnings.warn(f"ignoring unrecognized TSPLIB line {line!r}")

    if "DIMENSION" not in header:
        raise MissingHeaderField("TSPLIB input lacks a DIMENSION field")
    try:
        n = int(header["DIMENSION"])
    except ValueError as exc:
        raise NonNumericToken(f"bad DIMENSION {header['DIMENSION']!r}") from exc
    if n < 1:
        raise ParseError(f"DIMENSION must be >= 1, got {n}")
    if "EDGE_WEIGHT_TYPE" not in header:
        raise MissingHeaderField("TSPLIB input lacks an EDGE_WEIGHT_TYPE field")
    metric = header["EDGE_WEIGHT_TYPE"].upper()
    if metric not in ("EUC_2D", "ATT", "GEO", "EXPLICIT"):
        raise UnsupportedEdgeWeightType(f"EDGE_WEIGHT_TYPE {metric!r} not supported")
    name = header.get("NAME", "")

    if metric == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if fmt not in _MATRIX_FORMATS:
            raise UnsupportedEdgeWeightType(f"EDGE_WEIGHT_FORMAT {fmt!r} not supported")
        weights = _Tokens("\n".join(sections.get("EDGE_WEIGHT_SECTION", ())), TruncatedMatrix)
        matrix = _parse_explicit_matrix(weights, n, fmt)
        return TspInstance(n=n, metric="EXPLICIT", matrix=matrix, name=name)

    coord_lines = sections.get("NODE_COORD_SECTION", [])
    if len(coord_lines) != n:
        raise DimensionMismatch(
            f"DIMENSION is {n} but {len(coord_lines)} coordinate lines found"
        )
    coords, seen = np.empty((n, 2)), set()
    for line in coord_lines:
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"bad coordinate line {line!r}")
        try:
            idx = float(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise NonNumericToken(f"bad coordinate line {line!r}") from exc
        if not idx.is_integer():  # 1 and 1.0 name city 1; 1.7 names none
            raise NonNumericToken(f"coordinate index {parts[0]!r} is not a whole number")
        idx = int(idx)
        if not 1 <= idx <= n or idx in seen:  # n lines, so a repeat leaves a city out
            raise DimensionMismatch(f"coordinate index {idx} repeated or outside 1..{n}")
        seen.add(idx)
        coords[idx - 1] = (x, y)
    return TspInstance(n=n, coords=coords, metric=metric, name=name)


def _parse_explicit_matrix(weights: _Tokens, n: int, fmt: str) -> np.ndarray:
    # the section lists the whole matrix or one triangle, with (diag 0) or
    # without (diag 1) its diagonal; the count is checked before any cell index
    diag = 0 if fmt.endswith("DIAG_ROW") else 1
    count = n * n if fmt == "FULL_MATRIX" else n * (n + 1) // 2 - diag * n
    what = f"{fmt} EDGE_WEIGHT_SECTION for n={n}"
    values = weights.take(count, what)
    if weights.remaining():
        raise CountMismatch(f"{what}: {weights.remaining()} values left over")
    if fmt == "FULL_MATRIX":
        return values.reshape(n, n)

    # a triangle, row by row as the section lists it, fills both halves
    cells = np.triu_indices(n, diag) if fmt.startswith("UPPER") else np.tril_indices(n, -diag)
    m = np.zeros((n, n))
    m[cells[::-1]] = values
    m[cells] = values
    return m


def _numbers(values) -> str:
    """Space-separated reprs, which read back to the same floats."""
    return " ".join(repr(float(v)) for v in values)


def serialize_tsplib(inst: TspInstance) -> str:
    """TSPLIB text; TSPLIB has no unrounded Euclidean type, so an ``EUCLID_RAW``
    instance is written as the ``EXPLICIT`` matrix of its distances."""
    lines = [
        f"NAME : {inst.name or 'unnamed'}",
        "TYPE : TSP",
        f"DIMENSION : {inst.n}",
    ]
    if inst.metric in ("EXPLICIT", "EUCLID_RAW"):
        lines.append("EDGE_WEIGHT_TYPE : EXPLICIT")
        lines.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
        lines.append("EDGE_WEIGHT_SECTION")
        for row in inst.distance_matrix():
            lines.append(_numbers(row))
    else:
        lines.append(f"EDGE_WEIGHT_TYPE : {inst.metric}")
        lines.append("NODE_COORD_SECTION")
        for i, xy in enumerate(inst.coords, start=1):
            lines.append(f"{i} {_numbers(xy)}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


# --- QAPLIB -------------------------------------------------------------------


def parse_qaplib(text: str) -> QapInstance:
    """Leading size n, then two n x n whitespace-separated matrices."""
    toks = _Tokens(text, error=TruncatedMatrix)
    n = toks.take_int("matrix size")
    if n < 1:
        raise ParseError(f"matrix size must be >= 1, got {n}")
    flow = toks.take(n * n, "flow matrix").reshape(n, n)
    dist = toks.take(n * n, "distance matrix").reshape(n, n)
    toks.warn_trailing("QAPLIB input")
    return QapInstance(n=n, flow=flow, dist=dist)


def serialize_qaplib(inst: QapInstance) -> str:
    flow, dist = ("\n".join(map(_numbers, m)) for m in (inst.flow, inst.dist))
    return f"{inst.n}\n\n{flow}\n\n{dist}\n"


# --- OR-Library multi-constraint knapsack --------------------------------------


def parse_orlib_mknap(text: str) -> list[KnapsackInstance]:
    """OR-Library bundle: problem count, then per problem
    ``n m optimum``, n profits, m rows of n weights, m capacities."""
    toks = _Tokens(text)
    k = toks.take_int("problem count")
    if k < 1:
        raise ParseError(f"problem count must be >= 1, got {k}")
    out = []
    for p in range(k):
        n = toks.take_int("item count")
        m = toks.take_int("constraint count")
        optimum = toks.take(1, "declared optimum")[0]
        if n < 1 or m < 1:
            raise ParseError(f"problem {p + 1}: bad sizes n={n}, m={m}")
        if not optimum.is_integer():  # also false for inf and nan
            raise ParseError(f"problem {p + 1}: declared optimum {optimum:g} is not an integer")
        profit = toks.take(n, f"problem {p + 1} profits")
        weight = toks.take(m * n, f"problem {p + 1} weights").reshape(m, n)
        capacity = toks.take(m, f"problem {p + 1} capacities", error=CountMismatch)
        out.append(
            KnapsackInstance(
                m=m,
                n=n,
                profit=profit,
                weight=weight,
                capacity=capacity,
                best_known=int(optimum) if optimum > 0 else None,
                name=f"mknap{p + 1}",
            )
        )
    toks.warn_trailing("knapsack input")
    return out


def serialize_orlib_mknap(instances: list[KnapsackInstance]) -> str:
    parts = [str(len(instances))]
    for inst in instances:
        opt = inst.best_known if inst.best_known is not None else 0
        parts.append(f"{inst.n} {inst.m} {opt}")
        parts.extend(map(_numbers, (inst.profit, *inst.weight, inst.capacity)))
    return "\n".join(parts) + "\n"


# --- road network ---------------------------------------------------------------


def parse_roadnet(text: str) -> RoadNetwork:
    """Node list line, ``u v distance waiting`` edge lines, then a
    ``velocity source destination`` trailer line."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise TruncatedSection("road network needs a node list and a trailer")
    try:
        nodes = [int(t) for t in lines[0].split()]
    except ValueError as exc:
        raise NonNumericToken(f"bad node list {lines[0]!r}") from exc

    trailer = lines[-1].split()
    if len(trailer) != 3:
        raise TruncatedSection(
            f"trailer must be 'velocity source destination', got {lines[-1]!r}"
        )
    try:
        velocity = float(trailer[0])
        source, destination = int(trailer[1]), int(trailer[2])
    except ValueError as exc:
        raise NonNumericToken(f"bad trailer {lines[-1]!r}") from exc

    edges: dict[tuple[int, int], tuple[float, float]] = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"edge line must be 'u v D AWT', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            d, awt = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise NonNumericToken(f"bad edge line {line!r}") from exc
        if (u, v) in edges:
            raise DuplicateEdge(f"edge ({u}, {v}) listed twice")
        edges[(u, v)] = (d, awt)
    return RoadNetwork(
        nodes=nodes,
        edges=edges,
        velocity=velocity,
        source=source,
        destination=destination,
    )


def serialize_roadnet(net: RoadNetwork) -> str:
    if net.caps is not None:
        raise InstanceError("the road format cannot hold resources or caps")
    lines = [" ".join(str(n) for n in net.nodes)]
    for (u, v), weights in sorted(net.edges.items()):
        lines.append(f"{u} {v} {_numbers(weights)}")
    lines.append(f"{float(net.velocity)!r} {net.source} {net.destination}")
    return "\n".join(lines) + "\n"


# --- dispatch --------------------------------------------------------------------

_PARSERS = {
    "TSPLIB": parse_tsplib,
    "QAPLIB": parse_qaplib,
    "ORLIB_MKNAP": parse_orlib_mknap,
    "ROADNET": parse_roadnet,
}


def load_instance(path, fmt: str) -> InstanceFileRecord:
    """Parse a file into an InstanceFileRecord with a content checksum."""
    if fmt not in _PARSERS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    path = Path(path)
    text = path.read_text()
    payload = _PARSERS[fmt](text)
    if fmt == "ORLIB_MKNAP":
        for i, inst in enumerate(payload, start=1):
            inst.name = f"{path.stem}-{i}"
    elif not payload.name:
        payload.name = path.stem
    return InstanceFileRecord(
        path=str(path), format=fmt, checksum=checksum_text(text), payload=payload
    )
