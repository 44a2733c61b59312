import tracemalloc
import warnings

import numpy as np
import pytest

from ghosa import TspInstance
from ghosa.errors import (
    CountMismatch,
    DimensionMismatch,
    DuplicateEdge,
    InstanceError,
    MissingHeaderField,
    NonFiniteValue,
    NonNumericToken,
    NonPositiveVelocity,
    ParseError,
    TruncatedMatrix,
    TruncatedSection,
    UnknownNodeReference,
    UnsupportedEdgeWeightType,
)
from ghosa.ingest import (
    checksum_text,
    load_instance,
    parse_orlib_mknap,
    parse_qaplib,
    parse_roadnet,
    parse_tsplib,
    serialize_orlib_mknap,
    serialize_qaplib,
    serialize_roadnet,
    serialize_tsplib,
)

TSP_GOLDEN = """\
NAME : square4
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 1.0 0.0
3 1.0 1.0
4 0.0 1.0
EOF
"""

QAP_GOLDEN = "2\n0 1\n1 0\n0 2\n2 0\n"

MKNAP_GOLDEN = """\
1
3 2 0
10 20 30
1 2 3
3 2 1
4 4
"""

ROAD_GOLDEN = """\
# toy network
1 2 3
1 2 10 3
2 3 10 2
1 3 35 0
10 1 3
"""


class TestTsplib:
    def test_golden_parse(self):
        inst = parse_tsplib(TSP_GOLDEN)
        assert inst.n == 4
        assert inst.metric == "EUC_2D"
        assert inst.name == "square4"
        assert inst.coords[2].tolist() == [1.0, 1.0]

    def test_whole_number_index_written_as_a_float(self):
        inst = parse_tsplib(TSP_GOLDEN.replace("3 1.0 1.0", "3.0 1.0 1.0"))
        assert np.array_equal(inst.coords, parse_tsplib(TSP_GOLDEN).coords)

    def test_round_trip(self):
        inst = parse_tsplib(TSP_GOLDEN)
        again = parse_tsplib(serialize_tsplib(inst))
        assert again.n == inst.n
        assert again.metric == inst.metric
        assert np.array_equal(again.coords, inst.coords)
        assert serialize_tsplib(inst) == TSP_GOLDEN

    def test_euclid_raw_round_trip_keeps_unrounded_distances(self, rng):
        coords = np.vstack([[0.0, 0.0], [1.4, 0.0], rng.uniform(0, 100, (5, 2))])
        inst = TspInstance(n=7, coords=coords, metric="EUCLID_RAW")
        again = parse_tsplib(serialize_tsplib(inst))
        assert again.metric == "EXPLICIT"
        assert again.distance_matrix()[0, 1] == 1.4
        assert np.array_equal(again.distance_matrix(), inst.distance_matrix())

    # format -> the (row, column) pairs its section lists, in order
    SECTIONS = {
        "FULL_MATRIX": lambda n: [(i, j) for i in range(n) for j in range(n)],
        "UPPER_ROW": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
        "UPPER_DIAG_ROW": lambda n: [(i, j) for i in range(n) for j in range(i, n)],
        "LOWER_ROW": lambda n: [(i, j) for i in range(n) for j in range(i)],
        "LOWER_DIAG_ROW": lambda n: [(i, j) for i in range(n) for j in range(i + 1)],
    }

    @pytest.mark.parametrize("fmt", sorted(SECTIONS))
    def test_explicit_matrix_round_trip(self, fmt):
        # distinct entries and a nonzero diagonal, so a misplaced value shows
        upper = np.triu(np.arange(1.0, 26.0).reshape(5, 5))
        full = upper + np.triu(upper, 1).T
        section = " ".join(str(full[i, j]) for i, j in self.SECTIONS[fmt](5))
        text = (
            "NAME : m5\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n{section}\nEOF\n"
        )
        m = full.copy()
        if fmt in ("UPPER_ROW", "LOWER_ROW"):  # these sections carry no diagonal
            np.fill_diagonal(m, 0.0)
        inst = parse_tsplib(text)
        assert np.array_equal(inst.matrix, m)
        again = parse_tsplib(serialize_tsplib(inst))
        assert np.array_equal(again.matrix, m)
        # symmetric by construction from a triangular section
        assert np.array_equal(inst.matrix, inst.matrix.T)

    @staticmethod
    def explicit(n, fmt, section):
        return (
            f"NAME : m{n}\nTYPE : TSP\nDIMENSION : {n}\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n{section}\n"
            "DISPLAY_DATA_SECTION\n1 0 0\nEOF\n"
        )

    @pytest.mark.parametrize("fmt", sorted(SECTIONS))
    def test_explicit_matrix_surplus_value_is_count_mismatch(self, fmt):
        section = " ".join("7" for _ in self.SECTIONS[fmt](5))
        parse_tsplib(self.explicit(5, fmt, section))  # the display section is no surplus
        with pytest.raises(CountMismatch, match="1 values left over"):
            parse_tsplib(self.explicit(5, fmt, section + "\n7"))

    def test_full_matrix_labelled_upper_row_is_count_mismatch(self):
        # three values make an n=3 UPPER_ROW section; a 2x3 block is a wrong label
        with pytest.raises(CountMismatch, match="3 values left over"):
            parse_tsplib(self.explicit(3, "UPPER_ROW", "2 3 4\n5 6 7"))

    def test_explicit_matrix_short_or_non_numeric(self):
        with pytest.raises(TruncatedMatrix, match="needed 3 values, found 2"):
            parse_tsplib(self.explicit(3, "UPPER_ROW", "2 3"))
        with pytest.raises(NonNumericToken):
            parse_tsplib(self.explicit(3, "UPPER_ROW", "2 x 4"))

    def test_short_section_rejected_before_any_cell_index(self):
        # a 3000 x 3000 cell index alone would take about 240 MB
        text = self.explicit(3000, "FULL_MATRIX", "1 2 3")
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedMatrix, match="needed 9000000 values, found 3"):
                parse_tsplib(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("dimension", ["0", "-2"])
    def test_dimension_below_one_is_a_parse_error(self, dimension):
        with pytest.raises(ParseError, match="DIMENSION must be >= 1"):
            parse_tsplib(TSP_GOLDEN.replace("DIMENSION : 4", f"DIMENSION : {dimension}"))

    def test_header_line_without_key_warns(self):
        text = TSP_GOLDEN.replace("TYPE : TSP", "TYPE : TSP\n: stray")
        with pytest.warns(UserWarning, match="unknown TSPLIB header key ''"):
            inst = parse_tsplib(text)
        assert inst.n == 4

    def test_empty_input_missing_header(self):
        with pytest.raises(MissingHeaderField):
            parse_tsplib("")

    def test_dimension_mismatch(self):
        bad = TSP_GOLDEN.replace("DIMENSION : 4", "DIMENSION : 5")
        with pytest.raises(DimensionMismatch):
            parse_tsplib(bad)

    def test_unsupported_metric(self):
        bad = TSP_GOLDEN.replace("EUC_2D", "XRAY")
        with pytest.raises(UnsupportedEdgeWeightType):
            parse_tsplib(bad)

    def test_unknown_key_warns_not_fatal(self):
        text = TSP_GOLDEN.replace("TYPE : TSP", "TYPE : TSP\nFROBNICATE : yes")
        with pytest.warns(UserWarning):
            inst = parse_tsplib(text)
        assert inst.n == 4

    def test_ulysses_fixture(self, ulysses16_path):
        record = load_instance(ulysses16_path, "TSPLIB")
        assert record.payload.n == 16
        assert record.payload.metric == "GEO"


class TestQaplib:
    def test_minimal_two_by_two(self):
        inst = parse_qaplib(QAP_GOLDEN)
        assert inst.n == 2
        assert inst.flow.tolist() == [[0, 1], [1, 0]]
        assert inst.dist.tolist() == [[0, 2], [2, 0]]

    def test_round_trip(self, rng):
        n = 5
        inst = parse_qaplib(
            f"{n}\n"
            + "\n".join(" ".join(str(x) for x in row) for row in rng.integers(0, 9, (n, n)))
            + "\n"
            + "\n".join(" ".join(str(x) for x in row) for row in rng.integers(0, 9, (n, n)))
        )
        again = parse_qaplib(serialize_qaplib(inst))
        assert np.array_equal(again.flow, inst.flow)
        assert np.array_equal(again.dist, inst.dist)

    def test_truncated_matrix(self):
        with pytest.raises(TruncatedMatrix):
            parse_qaplib("2\n0 1\n1 0\n0 2\n2")  # one entry short

    def test_non_numeric_token(self):
        with pytest.raises(NonNumericToken):
            parse_qaplib("2\n0 1\n1 x\n0 2\n2 0")

    def test_trailing_tokens_warn(self):
        with pytest.warns(UserWarning, match="ignoring 2 trailing tokens in QAPLIB"):
            inst = parse_qaplib(QAP_GOLDEN + "7 8\n")
        assert inst.dist.tolist() == [[0, 2], [2, 0]]

    @pytest.mark.parametrize("size", ["99999999999999999999", "-99999999999999999999"])
    def test_size_beyond_int64_is_an_instance_error(self, size):
        with pytest.raises(InstanceError):
            parse_qaplib(f"{size}\n0 1\n1 0\n")


class TestOrlibMknap:
    def test_golden_parse(self):
        instances = parse_orlib_mknap(MKNAP_GOLDEN)
        assert len(instances) == 1
        inst = instances[0]
        assert (inst.m, inst.n) == (2, 3)
        assert inst.profit.tolist() == [10.0, 20.0, 30.0]
        assert inst.capacity.tolist() == [4.0, 4.0]
        assert inst.best_known is None

    def test_declared_optimum_kept(self):
        text = MKNAP_GOLDEN.replace("3 2 0", "3 2 40")
        assert parse_orlib_mknap(text)[0].best_known == 40

    @pytest.mark.parametrize("optimum", ["inf", "12.5", "nan"])
    def test_declared_optimum_must_be_an_integer(self, optimum):
        with pytest.raises(ParseError, match=f"problem 1: declared optimum {optimum} "):
            parse_orlib_mknap(f"1\n1 1 {optimum}\n5\n1\n2\n")

    def test_round_trip(self):
        instances = parse_orlib_mknap(MKNAP_GOLDEN)
        again = parse_orlib_mknap(serialize_orlib_mknap(instances))
        assert np.array_equal(again[0].weight, instances[0].weight)
        assert np.array_equal(again[0].profit, instances[0].profit)

    def test_capacity_shortfall_is_count_mismatch(self):
        # header says 2 constraints but only one capacity value follows
        text = "1\n3 2 0\n10 20 30\n1 2 3\n3 2 1\n4\n"
        with pytest.raises(CountMismatch):
            parse_orlib_mknap(text)

    def test_truncated_profits(self):
        with pytest.raises(TruncatedSection):
            parse_orlib_mknap("1\n3 2 0\n10 20\n")

    def test_trailing_tokens_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_orlib_mknap(MKNAP_GOLDEN)
        with pytest.warns(UserWarning, match="ignoring 1 trailing tokens in knapsack"):
            instances = parse_orlib_mknap(MKNAP_GOLDEN + "99\n")
        assert instances[0].capacity.tolist() == [4.0, 4.0]

    def test_item_count_beyond_int64_is_an_instance_error(self):
        with pytest.raises(InstanceError):
            parse_orlib_mknap("1\n99999999999999999999 2 0\n10 20 30\n")


class TestRoadnet:
    def test_golden_parse(self):
        net = parse_roadnet(ROAD_GOLDEN)
        assert net.nodes == [1, 2, 3]
        assert net.edges[(1, 2)] == (10.0, 3.0)
        assert net.velocity == 10.0
        assert (net.source, net.destination) == (1, 3)

    def test_round_trip(self):
        net = parse_roadnet(ROAD_GOLDEN)
        again = parse_roadnet(serialize_roadnet(net))
        assert again.edges == net.edges
        assert again.nodes == net.nodes

    def test_golden_text(self):
        # edges sorted, every number written as a float repr
        text = serialize_roadnet(parse_roadnet(ROAD_GOLDEN))
        assert text == "1 2 3\n1 2 10.0 3.0\n1 3 35.0 0.0\n2 3 10.0 2.0\n10.0 1 3\n"

    def test_capped_network_is_not_written(self):
        # the format has no line for them: dropping them would read back uncapped
        net = parse_roadnet(ROAD_GOLDEN)
        net.resources, net.caps = {(1, 3): np.array([2.0])}, np.array([1.0])
        with pytest.raises(InstanceError, match="cannot hold resources or caps"):
            serialize_roadnet(net)

    def test_two_node_single_edge(self):
        net = parse_roadnet("1 2\n1 2 5 1\n2 1 2\n")
        assert len(net.edges) == 1

    def test_unknown_node_reference(self):
        with pytest.raises(UnknownNodeReference):
            parse_roadnet("1 2\n1 9 5 1\n2 1 2\n")

    def test_zero_velocity(self):
        with pytest.raises(NonPositiveVelocity):
            parse_roadnet("1 2\n1 2 5 1\n0 1 2\n")


class TestChecksums:
    def test_stable_across_calls(self):
        assert checksum_text(TSP_GOLDEN) == checksum_text(TSP_GOLDEN)

    def test_sensitive_to_content(self):
        assert checksum_text(TSP_GOLDEN) != checksum_text(TSP_GOLDEN + " ")

    def test_load_instance_records_checksum(self, tmp_path):
        p = tmp_path / "square4.tsp"
        p.write_text(TSP_GOLDEN)
        rec1 = load_instance(p, "TSPLIB")
        rec2 = load_instance(p, "TSPLIB")
        assert rec1.checksum == rec2.checksum == checksum_text(TSP_GOLDEN)


#: the three points of a 3-city tour, with node 1 listed twice and node 2 never
TSP_REPEATED_INDEX = (
    "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n1 5 5\n3 1 1\n"
)
#: node 2 listed twice in the node list
ROAD_REPEATED_NODE = "1 2 2 3\n1 2 1.0 0.0\n2 3 1.0 0.0\n1.0 1 3\n"
#: edge 1 -> 2 listed twice, with other weights the second time
ROAD_REPEATED_EDGE = "1 2\n1 2 5 1\n1 2 9 9\n1 1 2\n"
#: indices 1.7 and 2.2, which truncate to cities 1 and 2
TSP_FRACTIONAL_INDEX = (
    "DIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1.7 0 0\n2.2 3 4\n"
)

PARSERS = {
    "tsp": parse_tsplib,
    "qap": parse_qaplib,
    "knapsack": parse_orlib_mknap,
    "roadnet": parse_roadnet,
}

# kind, malformed text, the error or warning it raises, and its message
MALFORMED = {
    "tsp-line-outside-header-syntax": (
        "tsp", TSP_GOLDEN.replace("TYPE : TSP", "TYPE : TSP\nstray words"),
        UserWarning, "unrecognized TSPLIB line",
    ),
    "tsp-dimension-word": (
        "tsp", TSP_GOLDEN.replace("DIMENSION : 4", "DIMENSION : four"),
        NonNumericToken, "bad DIMENSION",
    ),
    "tsp-weight-format": (
        "tsp", "DIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FUNCTION\n",
        UnsupportedEdgeWeightType, "EDGE_WEIGHT_FORMAT 'FUNCTION'",
    ),
    "tsp-short-coordinate-line": (
        "tsp", TSP_GOLDEN.replace("2 1.0 0.0", "2 1.0"), ParseError, "bad coordinate line",
    ),
    "tsp-coordinate-word": (
        "tsp", TSP_GOLDEN.replace("2 1.0 0.0", "2 1.0 zero"),
        NonNumericToken, "bad coordinate line",
    ),
    "tsp-index-outside": (
        "tsp", TSP_GOLDEN.replace("4 0.0 1.0", "5 0.0 1.0"),
        DimensionMismatch, "index 5 repeated or outside 1..4",
    ),
    "tsp-repeated-index": (
        "tsp", TSP_REPEATED_INDEX, DimensionMismatch, "index 1 repeated or outside 1..3",
    ),
    "tsp-fractional-index": (
        "tsp", TSP_FRACTIONAL_INDEX, NonNumericToken, "index '1.7' is not a whole number",
    ),
    "qap-size-zero": ("qap", "0\n", ParseError, "matrix size must be >= 1"),
    "knapsack-count-zero": ("knapsack", "0\n", ParseError, "problem count must be >= 1"),
    "knapsack-no-items": ("knapsack", "1\n0 1 0\n", ParseError, "bad sizes n=0, m=1"),
    "road-one-line": ("roadnet", "1 2\n", TruncatedSection, "a node list and a trailer"),
    "road-node-word": ("roadnet", "1 x\n10 1 2\n", NonNumericToken, "bad node list"),
    "road-short-trailer": (
        "roadnet", ROAD_GOLDEN.replace("10 1 3", "10 1"), TruncatedSection, "trailer must be",
    ),
    "road-trailer-word": (
        "roadnet", ROAD_GOLDEN.replace("10 1 3", "fast 1 3"), NonNumericToken, "bad trailer",
    ),
    "road-short-edge": (
        "roadnet", ROAD_GOLDEN.replace("1 2 10 3", "1 2 10"), ParseError, "edge line must be",
    ),
    "road-edge-word": (
        "roadnet", ROAD_GOLDEN.replace("1 2 10 3", "1 2 ten 3"),
        NonNumericToken, "bad edge line",
    ),
    "road-repeated-node": ("roadnet", ROAD_REPEATED_NODE, InstanceError, "repeats a node id"),
    "road-repeated-edge": ("roadnet", ROAD_REPEATED_EDGE, DuplicateEdge, "listed twice"),
    # NaN and inf read as numbers; the instance constructors reject them
    "tsp-nan-coordinate": (
        "tsp", TSP_GOLDEN.replace("2 1.0 0.0", "2 nan 0.0"), NonFiniteValue,
        "coordinates must be finite, got nan",
    ),
    "tsp-inf-distance": (
        "tsp", TestTsplib.explicit(2, "UPPER_ROW", "inf"), NonFiniteValue,
        "distance matrix must be finite, got inf",
    ),
    "qap-nan-flow": (
        "qap", QAP_GOLDEN.replace("0 1\n", "0 nan\n", 1), NonFiniteValue,
        "flow matrix must be finite, got nan",
    ),
    "qap-inf-distance": (
        "qap", QAP_GOLDEN.replace("0 2\n", "0 inf\n"), NonFiniteValue,
        "distance matrix must be finite, got inf",
    ),
    "knapsack-nan-profit": (
        "knapsack", MKNAP_GOLDEN.replace("10 20 30", "10 nan 30"), NonFiniteValue,
        "profits must be finite, got nan",
    ),
    "knapsack-inf-capacity": (
        "knapsack", MKNAP_GOLDEN.replace("4 4", "4 inf"), NonFiniteValue,
        "capacities must be finite, got inf",
    ),
    "road-nan-distance": (
        "roadnet", ROAD_GOLDEN.replace("1 2 10 3", "1 2 nan 3"), NonFiniteValue,
        "edge weights must be finite, got nan",
    ),
    "road-inf-velocity": (
        "roadnet", ROAD_GOLDEN.replace("10 1 3", "inf 1 3"), NonFiniteValue,
        "velocity must be finite, got inf",
    ),
}
NON_FINITE_CASES = [case for case in MALFORMED if "-nan-" in case or "-inf-" in case]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_is_rejected(case):
    kind, text, expected, match = MALFORMED[case]
    if issubclass(expected, Warning):
        with pytest.warns(expected, match=match):
            PARSERS[kind](text)
    else:
        with pytest.raises(expected, match=match):
            PARSERS[kind](text)


@pytest.mark.parametrize("case", [
    "tsp-repeated-index", "tsp-fractional-index", "qap-size-zero", "road-repeated-node",
    "road-repeated-edge", *NON_FINITE_CASES])
def test_parse_check_exits_two_on_malformed_input(case, tmp_path, capsys):
    from ghosa.cli import entrypoint

    kind, text, _, match = MALFORMED[case]
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    assert entrypoint(["parse-check", "--problem", kind, "--instance", str(path)]) == 2
    assert match in capsys.readouterr().err


def test_load_instance_rejects_an_unknown_format():
    with pytest.raises(ParseError, match="unknown format 'XML'"):
        load_instance("unread.xml", "XML")
