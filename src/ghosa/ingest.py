"""Parsers, serializers, and loaders for instance files.

Supported formats: TSPLIB coordinate/matrix files, QAPLIB flow+distance
files, OR-Library multi-constraint knapsack bundles, and a line-oriented
road-network format (node list, ``u v distance waiting`` edge lines, then a
``velocity source destination`` trailer).  Tokenization is whitespace
tolerant everywhere; unknown TSPLIB header keys warn instead of failing.
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
    """Whitespace-tolerant numeric token stream."""

    def __init__(self, text: str, error=TruncatedSection):
        self.tokens = text.split()
        self.pos = 0
        self.error = error

    def remaining(self) -> int:
        return len(self.tokens) - self.pos

    def next_str(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise self.error(f"input ended while reading {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next_str(what)
        try:
            return int(tok)
        except ValueError as exc:
            raise NonNumericToken(f"expected integer for {what}, got {tok!r}") from exc

    def next_float(self, what: str) -> float:
        tok = self.next_str(what)
        try:
            return float(tok)
        except ValueError as exc:
            raise NonNumericToken(f"expected number for {what}, got {tok!r}") from exc

    def take_floats(self, count: int, what: str, error=None) -> np.ndarray:
        if self.remaining() < count:
            raise (error or self.error)(
                f"{what}: needed {count} values, found {self.remaining()}"
            )
        out = np.empty(count)
        for i in range(count):
            out[i] = self.next_float(what)
        return out


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


def parse_tsplib(text: str) -> TspInstance:
    """TSPLIB-style keyed header plus coordinate or matrix section."""
    header: dict[str, str] = {}
    lines = text.splitlines()
    section = None
    coord_lines: list[str] = []
    weight_tokens: list[str] = []

    for raw in lines:
        line = raw.strip()
        if not line or line == "EOF":
            continue
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section = "coords"
            continue
        if upper.startswith("EDGE_WEIGHT_SECTION"):
            section = "weights"
            continue
        if upper.startswith("DISPLAY_DATA_SECTION"):
            section = "display"
            continue
        if section == "coords":
            coord_lines.append(line)
            continue
        if section == "weights":
            weight_tokens.extend(line.split())
            continue
        if section == "display":
            continue
        if ":" in line:
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
        matrix = _parse_explicit_matrix(weight_tokens, n, fmt)
        return TspInstance(n=n, metric="EXPLICIT", matrix=matrix, name=name)

    if len(coord_lines) != n:
        raise DimensionMismatch(
            f"DIMENSION is {n} but {len(coord_lines)} coordinate lines found"
        )
    coords = np.empty((n, 2))
    for line in coord_lines:
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"bad coordinate line {line!r}")
        try:
            idx = int(float(parts[0]))
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise NonNumericToken(f"bad coordinate line {line!r}") from exc
        if not 1 <= idx <= n:
            raise DimensionMismatch(f"coordinate index {idx} outside 1..{n}")
        coords[idx - 1] = (x, y)
    return TspInstance(n=n, coords=coords, metric=metric, name=name)


def _parse_explicit_matrix(tokens: list[str], n: int, fmt: str) -> np.ndarray:
    # the cells each format lists, row by row as the section does
    if fmt == "FULL_MATRIX":
        cells = np.unravel_index(np.arange(n * n), (n, n))
    elif fmt.startswith("UPPER"):
        cells = np.triu_indices(n, 0 if fmt == "UPPER_DIAG_ROW" else 1)
    else:
        cells = np.tril_indices(n, 0 if fmt == "LOWER_DIAG_ROW" else -1)
    needed = len(cells[0])
    if len(tokens) < needed:
        raise TruncatedMatrix(
            f"{fmt} needs {needed} entries for n={n}, found {len(tokens)}"
        )
    try:
        values = [float(t) for t in tokens[:needed]]
    except ValueError as exc:
        raise NonNumericToken("non-numeric entry in EDGE_WEIGHT_SECTION") from exc

    m = np.zeros((n, n))
    # mirror image first: a triangle fills both halves, a full matrix overwrites it
    m[cells[::-1]] = values
    m[cells] = values
    return m


def serialize_tsplib(inst: TspInstance) -> str:
    lines = [
        f"NAME : {inst.name or 'unnamed'}",
        "TYPE : TSP",
        f"DIMENSION : {inst.n}",
    ]
    if inst.metric == "EXPLICIT":
        lines.append("EDGE_WEIGHT_TYPE : EXPLICIT")
        lines.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
        lines.append("EDGE_WEIGHT_SECTION")
        for row in inst.matrix:
            lines.append(" ".join(repr(float(v)) for v in row))
    else:
        metric = "EUC_2D" if inst.metric == "EUCLID_RAW" else inst.metric
        lines.append(f"EDGE_WEIGHT_TYPE : {metric}")
        lines.append("NODE_COORD_SECTION")
        for i, (x, y) in enumerate(inst.coords, start=1):
            lines.append(f"{i} {float(x)!r} {float(y)!r}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


# --- QAPLIB -------------------------------------------------------------------


def parse_qaplib(text: str) -> QapInstance:
    """Leading size n, then two n x n whitespace-separated matrices."""
    toks = _Tokens(text, error=TruncatedMatrix)
    if toks.remaining() == 0:
        raise TruncatedMatrix("empty QAPLIB input")
    n = toks.next_int("matrix size")
    if n < 1:
        raise ParseError(f"matrix size must be >= 1, got {n}")
    flow = toks.take_floats(n * n, "flow matrix", error=TruncatedMatrix).reshape(n, n)
    dist = toks.take_floats(n * n, "distance matrix", error=TruncatedMatrix).reshape(
        n, n
    )
    if toks.remaining():
        warnings.warn(f"ignoring {toks.remaining()} trailing tokens in QAPLIB input")
    return QapInstance(n=n, flow=flow, dist=dist)


def serialize_qaplib(inst: QapInstance) -> str:
    def block(m):
        return "\n".join(" ".join(repr(float(v)) for v in row) for row in m)

    return f"{inst.n}\n\n{block(inst.flow)}\n\n{block(inst.dist)}\n"


# --- OR-Library multi-constraint knapsack --------------------------------------


def parse_orlib_mknap(text: str, name_prefix: str = "mknap") -> list[KnapsackInstance]:
    """OR-Library bundle: problem count, then per problem
    ``n m optimum``, n profits, m rows of n weights, m capacities."""
    toks = _Tokens(text, error=TruncatedSection)
    if toks.remaining() == 0:
        raise TruncatedSection("empty knapsack input")
    k = toks.next_int("problem count")
    if k < 1:
        raise ParseError(f"problem count must be >= 1, got {k}")
    out = []
    for p in range(k):
        n = toks.next_int("item count")
        m = toks.next_int("constraint count")
        optimum = toks.next_float("declared optimum")
        if n < 1 or m < 1:
            raise ParseError(f"problem {p + 1}: bad sizes n={n}, m={m}")
        profit = toks.take_floats(n, f"problem {p + 1} profits")
        weight = toks.take_floats(m * n, f"problem {p + 1} weights").reshape(m, n)
        capacity = toks.take_floats(
            m, f"problem {p + 1} capacities", error=CountMismatch
        )
        out.append(
            KnapsackInstance(
                m=m,
                n=n,
                profit=profit,
                weight=weight,
                capacity=capacity,
                best_known=int(optimum) if optimum > 0 else None,
                name=f"{name_prefix}{p + 1}",
            )
        )
    return out


def serialize_orlib_mknap(instances: list[KnapsackInstance]) -> str:
    parts = [str(len(instances))]
    for inst in instances:
        opt = inst.best_known if inst.best_known is not None else 0
        parts.append(f"{inst.n} {inst.m} {opt}")
        parts.append(" ".join(repr(float(v)) for v in inst.profit))
        for row in inst.weight:
            parts.append(" ".join(repr(float(v)) for v in row))
        parts.append(" ".join(repr(float(v)) for v in inst.capacity))
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
    if not nodes:
        raise TruncatedSection("empty node list")

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
        edges[(u, v)] = (d, awt)
    return RoadNetwork(
        nodes=nodes,
        edges=edges,
        velocity=velocity,
        source=source,
        destination=destination,
    )


def serialize_roadnet(net: RoadNetwork) -> str:
    lines = [" ".join(str(n) for n in net.nodes)]
    for (u, v), (d, awt) in sorted(net.edges.items()):
        lines.append(f"{u} {v} {float(d)!r} {float(awt)!r}")
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
        for i, inst in enumerate(payload):
            if inst.name.startswith("mknap"):
                inst.name = f"{path.stem}-{i + 1}"
    elif not payload.name:
        payload.name = path.stem
    return InstanceFileRecord(
        path=str(path), format=fmt, checksum=checksum_text(text), payload=payload
    )
