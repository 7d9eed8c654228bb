"""Fuzzing of the edge-list parser, serializer, and file loaders.

The parser and serializer are fuzzed with hypothesis; the path loaders
with damaged files (truncation at every offset, seeded bit flips) of a
plain and a gzip-compressed edge list, which must load — the same edges
on the list and CSR backends — or raise :class:`GraphConstructionError`.
"""

import gzip
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigraph.io import LoadStats, dumps, loads, read_edge_list
from repro.exceptions import GraphConstructionError, InvalidParameterError

token = st.text(alphabet=string.ascii_letters + string.digits + "._-",
                min_size=1, max_size=8)


def labeled_edges(graph):
    return sorted((str(graph.label_of(u)), str(graph.label_of(v)))
                  for u, v in graph.edges())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(token, token), max_size=30))
def test_round_trip_arbitrary_labeled_edges(pairs):
    """Round-tripping preserves the *labeled* structure.  Raw vertex ids may
    be permuted (serialization order need not match input order), so the
    comparison goes through labels."""
    text = "".join("%s %s\n" % (u, v) for u, v in pairs)
    graph = loads(text)
    assert graph.n_edges == len(set(pairs))
    again = loads(dumps(graph))
    assert again.n_upper == graph.n_upper
    assert again.n_lower == graph.n_lower
    assert labeled_edges(again) == labeled_edges(graph)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([
    "", "   ", "% comment", "# comment", "a b", "a b 3 444", "x,y",
]), max_size=20))
def test_parser_never_crashes_on_benign_lines(lines):
    graph = loads("\n".join(lines))
    assert graph.n_edges >= 0


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=string.printable, max_size=200))
def test_parser_raises_only_graph_errors(blob):
    """Arbitrary text either parses or raises the library's own error."""
    try:
        graph = loads(blob)
    except GraphConstructionError:
        return
    assert graph.n_edges >= 0


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=string.printable, max_size=200))
def test_skip_mode_never_raises_and_backends_agree(blob):
    """``on_error="skip"`` turns any malformed input into a (possibly empty)
    graph, and the list and CSR loaders agree on what was kept/dropped."""
    list_stats, csr_stats = LoadStats(), LoadStats()
    g_list = loads(blob, on_error="skip", stats=list_stats)
    g_csr = loads(blob, backend="csr", on_error="skip", stats=csr_stats)
    assert g_list.n_edges == g_csr.n_edges
    assert (list_stats.edges, list_stats.skipped) == \
        (csr_stats.edges, csr_stats.skipped)


def test_skipped_malformed_lines_are_counted():
    text = "a 1\nbad\nb 2\n% comment\nworse\nugh\nc 3\n"
    stats = LoadStats()
    graph = loads(text, on_error="skip", stats=stats)
    assert graph.n_edges == 3
    assert stats.edges == 3
    assert stats.skipped == 3  # comments and blanks are not "skipped"


def test_invalid_on_error_rejected():
    with pytest.raises(InvalidParameterError):
        loads("a 1\n", on_error="quietly")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(token, token), min_size=1, max_size=20))
def test_labels_survive_round_trip(pairs):
    graph = loads("".join("%s %s\n" % (u, v) for u, v in pairs))
    again = loads(dumps(graph))
    upper_labels = sorted(str(again.label_of(u))
                          for u in again.upper_vertices())
    original = sorted(str(graph.label_of(u))
                      for u in graph.upper_vertices())
    assert upper_labels == original


# ----------------------------------------------------------------------
# Damaged files: the path loaders either load or refuse, on every backend
# ----------------------------------------------------------------------

# Labels are arbitrary UTF-8 tokens; the multi-byte ones make some plain
# truncations cut a character in half.
EDGE_LIST = (b"% bip test graph\n"
             + b"".join(b"u%d l%d\n" % (i % 5, (i * 3) % 7)
                        for i in range(12))
             + "\u00fc2 l\u00e9\n".encode("utf-8"))
FLIPS = 200


def edge_list_files():
    return {"g.txt": EDGE_LIST, "g.txt.gz": gzip.compress(EDGE_LIST, mtime=0)}


def loaded_edges(path, backend):
    """The labeled edges read from ``path``, or None for a typed refusal."""
    try:
        graph = read_edge_list(str(path), backend=backend)
    except GraphConstructionError:
        return None
    return labeled_edges(graph)


def assert_loads_or_refuses(path, data):
    path.write_bytes(data)
    outcomes = [loaded_edges(path, backend) for backend in ("list", "csr")]
    assert outcomes[0] == outcomes[1], "backends disagree on %r" % (data,)
    return outcomes[0]


@pytest.mark.parametrize("name", sorted(edge_list_files()))
def test_edge_list_truncated_at_every_offset(tmp_path, name):
    data = edge_list_files()[name]
    path = tmp_path / name
    assert assert_loads_or_refuses(path, data) is not None
    refused = [offset for offset in range(len(data))
               if assert_loads_or_refuses(path, data[:offset]) is None]
    if name.endswith(".gz"):
        # An empty file is a .gz of nothing; any other torn .gz is refused.
        assert refused == list(range(1, len(data)))


@pytest.mark.parametrize("name", sorted(edge_list_files()))
def test_edge_list_bit_flips(tmp_path, name):
    data = edge_list_files()[name]
    path = tmp_path / name
    rng = random.Random(17)
    for _ in range(FLIPS):
        damaged = bytearray(data)
        damaged[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        assert_loads_or_refuses(path, bytes(damaged))
