"""Every input error names the file at fault first, then the line (and the column of a byte that is not UTF-8).

Each loader gets a test for a byte that is not UTF-8 and a hypothesis test
that mutates a small valid file: every mutant loads, or raises the loader's
own error class with a message that starts with the path.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec._lines import iter_lines
from genrevec.cli import ConfigError, PipelineConfig, main
from genrevec.compose import ConceptEmbeddingMatrix, load_matrix, save_matrix
from genrevec.evaluation import CorpusFormatError, load_corpus
from genrevec.fixtures import write_demo_dataset
from genrevec.genregraph import GraphFormatError, load_graph, load_lemma_table, load_saved_graph, save_graph
from genrevec.wordvec import VectorFormatError, load_vectors

from helpers import data_file, text_file

VECTORS = "3 2\nrock 0.5 -1\nmétal 1e-3 2\npop 0 1\n".encode()
LEMMAS = "rocks\trock\nmétaux\tmétal\n".encode()
NODES = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in [
    {"id": "n1", "lang": "en", "label": "Rock"},
    {"id": "n2", "lang": "fr", "label": "Métal"},
    {"id": "n3", "lang": "en", "label": "Hard_rock"},
]).encode()
EDGES = b"".join(json.dumps(record).encode() + b"\n" for record in [
    {"src": "n3", "dst": "n1", "rel": "musicSubgenre"},
    {"src": "n1", "dst": "n2", "rel": "sameAs"},
])
CORPUS = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in [
    {"id": "a", "annotations": {"en": ["rock"], "fr": ["métal"]}},
    {"id": "b", "annotations": {"en": ["hard rock", "rock"], "fr": ["rock"]}},
    {"id": "c", "annotations": {"en": ["pop"], "fr": ["pop"]}},
]).encode()
CONFIG = json.dumps({
    "vectors": {"en": "vectors_en.vec", "fr": "vectors_fr.vec"},
    "graph_nodes": "nodes.jsonl",
    "graph_edges": "edges.jsonl",
    "corpus": "corpus.jsonl",
    "workdir": "out",
    "composition": "avg",
    "folds": 2,
    "tag_systems": [{"name": "en", "language": "en"}, {"name": "fr", "language": "fr"}],
    "target_system": "fr",
    "source_systems": ["en"],
}, indent=2).encode()


def saved(write, value) -> bytes:
    """The bytes `write(value, path)` puts in a file."""
    path = data_file(b"")
    write(value, path)
    return path.read_bytes()


SAVED_GRAPH = saved(save_graph, load_graph(data_file(NODES), data_file(EDGES)))
MATRIX = saved(save_matrix, ConceptEmbeddingMatrix(["n1", "n2", "n3"], np.arange(6.0).reshape(3, 2), [1, 1, 0]))

# What the vector loader says about the whole file, which names no line.
WHOLE_FILE = re.compile(r"header declares \d+ rows, found \d+$|empty vector stream")


def load_graph_with_nodes(path):
    return load_graph(path, data_file(EDGES))


def load_graph_with_edges(path):
    return load_graph(data_file(NODES), path)


def load_config(path):
    return PipelineConfig.from_file(path)


# loader, its error class, a valid file, and whether its errors name a line
LOADERS = {
    "vectors": (load_vectors, VectorFormatError, VECTORS, True),
    "lemma table": (load_lemma_table, GraphFormatError, LEMMAS, True),
    "graph nodes": (load_graph_with_nodes, GraphFormatError, NODES, True),
    "graph edges": (load_graph_with_edges, GraphFormatError, EDGES, True),
    "corpus": (lambda path: load_corpus(path, min_tag_count=0), CorpusFormatError, CORPUS, True),
    "saved graph": (load_saved_graph, GraphFormatError, SAVED_GRAPH, False),
    "matrix": (load_matrix, VectorFormatError, MATRIX, False),
    "config": (load_config, ConfigError, CONFIG, False),
}


def with_byte(data: bytes, line: int, column: int, byte: bytes = b"\xff") -> bytes:
    """`data` with `byte` inserted before the character at 1-based `line` and `column`."""
    lines = data.split(b"\n")
    head = lines[line - 1].decode("utf-8")[:column - 1].encode("utf-8")
    lines[line - 1] = head + byte + lines[line - 1][len(head):]
    return b"\n".join(lines)


class TestBadByte:
    @pytest.mark.parametrize(
        "loader, line, column, where",
        [
            ("vectors", 3, 3, "line 3, column 3"),  # after 'mé', two characters in three bytes
            ("vectors", 1, 1, "line 1, column 1"),
            ("lemma table", 2, 8, "lemma table line 2, column 8"),
            ("graph nodes", 2, 5, "nodes line 2, column 5"),
            ("graph edges", 2, 1, "edges line 2, column 1"),
            ("corpus", 3, 20, "corpus line 3, column 20"),
            ("saved graph", 1, 40, "line 1, column 40"),
            ("config", 7, 4, "line 7, column 4"),
        ],
    )
    def test_bad_byte_names_file_line_and_column(self, loader, line, column, where):
        load, error, seed, _ = LOADERS[loader]
        path = data_file(with_byte(seed, line, column))
        with pytest.raises(error) as raised:
            load(path)
        assert str(raised.value) == f"{path}: {where}: byte 0xff is not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_lines_are_counted_as_the_text_reader_splits_them(self, ending):
        path = data_file(with_byte(LEMMAS + b"pops\tpop\n", 3, 2).replace(b"\n", ending))
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: lemma table line 3, column 2: "):
            load_lemma_table(path)

    def test_cut_multibyte_character_at_the_end(self):
        path = data_file(VECTORS.rstrip(b"\n") + "é".encode()[:1])
        with pytest.raises(VectorFormatError, match=re.escape(f"{path}: line 4, column 8: byte 0xc3 is not UTF-8 (")):
            load_vectors(path)

    def test_bad_byte_far_into_a_large_file_is_found_in_bounded_memory(self):
        # 107-byte rows (107 is prime), so some read block ends inside a CRLF and some inside an 'é'
        data = ("métal " * 15 + "\r\n").encode() * 40_000 + b"x\xff\n"
        path = data_file(data)
        tracemalloc.start()
        try:
            with pytest.raises(VectorFormatError, match=re.escape("lemma table line 40001, column 2: byte 0xff is")):
                for _ in iter_lines(path, "lemma table", VectorFormatError):
                    pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(data) / 10

    def test_embed_names_the_vector_file_and_line(self, tmp_path, capsys):
        paths = write_demo_dataset(tmp_path)
        assert main(["build-graph", "--config", str(paths["config"])]) == 0
        vectors = paths["vectors_fr"]
        vectors.write_bytes(with_byte(vectors.read_bytes(), 3, 1))
        capsys.readouterr()
        assert main(["embed", "--config", str(paths["config"])]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {vectors}: line 3, column 1: byte 0xff is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("loader", ["graph nodes", "corpus", "saved graph", "config"])
@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["nested too deep", "integer too long"])
def test_json_that_python_cannot_read_is_named_invalid(loader, text):
    load, error, _, line_based = LOADERS[loader]
    path = data_file(text.encode() + b"\n")
    where = f"{'nodes' if loader == 'graph nodes' else loader} line 1: " if line_based else ""
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {where}invalid JSON (')}"):
        load(path)


def test_tab_separated_vector_row_is_named():
    path = text_file("1 2\nrock\t0.1\t0.2\n")
    message = f"{path}: line 2: tab-separated row; the word and its components are separated by single spaces"
    with pytest.raises(VectorFormatError, match=f"^{re.escape(message)}$"):
        load_vectors(path)


def _flip(draw, data: bytes) -> bytes:
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]


def _cut(draw, data: bytes) -> bytes:
    return data[:draw(st.integers(0, len(data)))]


def _insert(draw, data: bytes) -> bytes:
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]


def _repeat_line(draw, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    return b"".join([*lines[:at + 1], *lines[at:]])


def _drop_line(draw, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    return b"".join([*lines[:at], *lines[at + 1:]])


@st.composite
def mutants(draw, seed: bytes) -> bytes:
    """`seed` after one to three byte flips, cuts, inserted bytes, repeated or dropped lines."""
    data = seed
    for _ in range(draw(st.integers(1, 3))):
        if data:
            data = draw(st.sampled_from([_flip, _cut, _insert, _repeat_line, _drop_line]))(draw, data)
    return data


@pytest.mark.parametrize("loader", list(LOADERS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_file_loads_or_names_itself(loader, data):
    load, error, seed, line_based = LOADERS[loader]
    path = data_file(data.draw(mutants(seed)))
    try:
        load(path)
    except error as exc:
        message = str(exc)
        # a mutated node file can leave an edge dangling, which the edge file is named for
        at_fault, _, problem = message.partition(": ")
        assert at_fault == str(path) or (loader == "graph nodes" and problem.startswith("edges line ")), message
        if line_based:
            assert re.search(r"\bline \d+", message) or WHOLE_FILE.search(message), message
