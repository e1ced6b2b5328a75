"""Tests for graph normalization, ingestion, filtering, attachment, and paths."""

import contextlib
import io
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genrevec import genregraph
from genrevec import genregraph
from genrevec.genregraph import (
    EQUIVALENCE_RELATIONS,
    HOP_CHUNK,
    RELATION_CODES,
    RELATIONS,
    GenreEdge,
    GenreGraph,
    GenreNode,
    GraphFormatError,
    attach_tag_system,
    filter_graph,
    hop_counts,
    load_graph,
    load_lemma_table,
    load_saved_graph,
    normalize_tag,
    save_graph,
    tag_node_id,
)
from genrevec.translate import score_sets, translate

from helpers import (
    bare_graph,
    bfs_components,
    bfs_hops,
    count_memo_builds,
    extended_graph,
    neighbors,
    per_source_hop_counts,
    rebuilding_filter_graph,
    record_searches,
    shortest_path_similarity,
    undirected_relations,
    write_edges_jsonl,
    text_file,
    write_nodes_jsonl,
)


class TestNormalizeTag:
    def test_splits_on_non_alphanumeric_runs(self):
        assert normalize_tag("drum'n'bass") == ["drum", "n", "bass"]
        assert normalize_tag("drum'n'bass", {"drum", "n", "bass"}) == ["drum", "n", "bass"]

    def test_concatenated_tag_splits_against_vocabulary(self):
        assert normalize_tag("sludgemetal", {"sludge", "metal"}) == ["sludge", "metal"]

    def test_whole_vocabulary_word_is_not_split(self):
        assert normalize_tag("sludgemetal", {"sludgemetal", "sludge", "metal"}) == ["sludgemetal"]

    def test_underscore_is_a_separator(self):
        assert normalize_tag("Rock_alternatif") == ["rock", "alternatif"]

    def test_unsplittable_token_kept_whole(self):
        assert normalize_tag("crunk", {"sludge", "metal"}) == ["crunk"]

    def test_partial_decomposition_is_not_used(self):
        # "indie" matches a prefix but the remainder "rockx" never resolves
        assert normalize_tag("indierockx", {"indie", "rock"}) == ["indierockx"]

    def test_backtracking_finds_valid_decomposition(self):
        # the longest prefix "post" dead-ends on "punk"; only "pos"+"tpunk" works
        vocabulary = {"post", "pos", "tpunk"}
        assert normalize_tag("postpunk", vocabulary) == ["pos", "tpunk"]

    def test_longest_first_word_preferred(self):
        vocabulary = {"dark", "darkwave", "wave"}
        assert normalize_tag("darkwave", vocabulary) == ["darkwave"]
        vocabulary = {"dark", "wave", "darkw", "ave"}
        assert normalize_tag("darkwave", vocabulary) == ["darkw", "ave"]

    def test_no_alphanumeric_content_rejected(self):
        with pytest.raises(ValueError, match="alphanumeric"):
            normalize_tag("---")

    def test_accents_preserved_lowercased(self):
        assert normalize_tag("Rock Psychédélique") == ["rock", "psychédélique"]

    @given(st.text(alphabet="abcdéè '-_2", min_size=1, max_size=24))
    @settings(max_examples=120, deadline=None)
    def test_idempotent_over_join(self, raw):
        vocabulary = {"ab", "cd", "abc", "dé"}
        try:
            tokens = normalize_tag(raw, vocabulary)
        except ValueError:
            return
        assert normalize_tag(" ".join(tokens), vocabulary) == tokens


def segmentations(token: str, vocabulary: set[str]) -> list[list[str]]:
    """Every way of writing `token` as a sequence of vocabulary words."""
    if not token:
        return [[]]
    return [
        [token[:end], *tail]
        for end in range(1, len(token) + 1)
        if token[:end] in vocabulary
        for tail in segmentations(token[end:], vocabulary)
    ]


@st.composite
def split_cases(draw):
    vocabulary = draw(st.sets(st.text(alphabet="ab", min_size=1, max_size=4), max_size=6))
    if vocabulary and draw(st.booleans()):
        words = draw(st.lists(st.sampled_from(sorted(vocabulary)), min_size=1, max_size=4))
        token = "".join(words) + draw(st.sampled_from(["", "", "a", "b"]))
    else:
        token = draw(st.text(alphabet="ab", min_size=1, max_size=10))
    return vocabulary, token


class TestTagSplittingProperties:
    @given(split_cases())
    @settings(max_examples=300, deadline=None)
    def test_split_matches_brute_force(self, case):
        vocabulary, token = case
        splits = segmentations(token, vocabulary)
        tokens = normalize_tag(token, vocabulary)
        if not splits:
            assert tokens == [token]
            return
        assert "".join(tokens) == token
        assert all(word in vocabulary for word in tokens)
        # the split preferring the longest first word, then the longest second, and so on
        assert tokens == max(splits, key=lambda split: [len(word) for word in split])
        assert len(tokens[0]) == max(len(split[0]) for split in splits)


NODES = """\
{"id": "n1", "lang": "en", "label": "Rock"}
{"id": "n2", "lang": "en", "label": "Hard rock"}
{"id": "n3", "lang": "fr", "label": "Rock"}
{"id": "n4", "lang": "en", "label": "Jazz"}
"""

EDGES = """\
{"src": "n1", "dst": "n2", "rel": "musicSubgenre"}
{"src": "n1", "dst": "n3", "rel": "sameAs"}
"""


# one valid graph.json node record
SAVED_NODE = {"id": "n1", "lang": "en", "label": "Rock", "tokens": ["rock"], "system": None}
SAVED_EDGE = {"src": "n1", "dst": "n2", "rel": "sameAs"}


def small_graph():
    return load_graph(text_file(NODES), text_file(EDGES))


class TestLoadGraph:
    def test_nodes_edges_and_symmetric_adjacency(self):
        graph = small_graph()
        assert graph.node_count == 4
        assert graph.edge_count == 2
        assert neighbors(graph, "n1") == ("n2", "n3")
        assert neighbors(graph, "n2") == ("n1",)
        assert graph.degree("n1") == 2

    def test_labels_normalized_with_own_vocabulary(self):
        graph = small_graph()
        assert graph.nodes["n2"].tokens == ("hard", "rock")
        # "hardrock" would split because 'hard' and 'rock' are graph words
        assert normalize_tag("hardrock", graph.word_vocabulary) == ["hard", "rock"]

    def test_lemma_table_extends_vocabulary(self):
        nodes = '{"id": "a", "lang": "en", "label": "Children music"}\n'
        graph = load_graph(text_file(nodes), text_file(""), {"children": "child"})
        assert "child" in graph.word_vocabulary
        assert normalize_tag("childmusic", graph.word_vocabulary) == ["child", "music"]

    def test_unknown_relation_names_line(self):
        edges = '{"src": "n1", "dst": "n2", "rel": "subGenreOf"}\n'
        with pytest.raises(GraphFormatError, match="edges line 1"):
            load_graph(text_file(NODES), text_file(edges))

    def test_dangling_edge_names_line(self):
        edges = EDGES + '{"src": "n1", "dst": "missing", "rel": "sameAs"}\n'
        with pytest.raises(GraphFormatError, match="edges line 3"):
            load_graph(text_file(NODES), text_file(edges))

    def test_duplicate_node_id_rejected(self):
        nodes = NODES + '{"id": "n1", "lang": "en", "label": "Rock again"}\n'
        with pytest.raises(GraphFormatError, match="duplicate node id"):
            load_graph(text_file(nodes), text_file(EDGES))

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["n5", "en", "Rock"]', "nodes line 5: expected a JSON object"),
            ('{"id": "n5", "label": "Rock"}', "nodes line 5: missing key 'lang'"),
            ('{"id": "n5", "lang": "en\\n", "label": "Rock"}', "nodes line 5: node 'n5': invalid language code 'en\\n'"),
        ],
    )
    def test_malformed_node_record_names_line(self, line, message):
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            load_graph(text_file(NODES + line + "\n"), text_file(EDGES))

    def test_bad_language_code_rejected(self):
        nodes = '{"id": "a", "lang": "english", "label": "Rock"}\n'
        with pytest.raises(GraphFormatError, match="language"):
            load_graph(text_file(nodes), text_file(""))

    def test_self_loop_dropped_with_warning(self, caplog):
        edges = EDGES + '{"src": "n1", "dst": "n1", "rel": "sameAs"}\n'
        with caplog.at_level("WARNING"):
            graph = load_graph(text_file(NODES), text_file(edges))
        assert graph.edge_count == 2
        assert "self-loop" in caplog.text

    @pytest.mark.parametrize(
        "edge, message",
        [
            ({"src": "n1", "dst": "n1", "rel": "bogus"}, "edges line 3: unknown relation 'bogus'"),
            ({"src": "zzz", "dst": "zzz", "rel": "sameAs"}, "edges line 3: edge references missing node 'zzz'"),
            ({"src": "n1", "dst": "n1"}, "edges line 3: missing key 'rel'"),
        ],
    )
    def test_self_loop_line_checked_before_it_is_dropped(self, edge, message):
        edges = EDGES + json.dumps(edge) + "\n"
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            load_graph(text_file(NODES), text_file(edges))

    def test_duplicate_edge_line_deduplicated(self):
        edges = EDGES + '{"src": "n1", "dst": "n2", "rel": "musicSubgenre"}\n'
        graph = load_graph(text_file(NODES), text_file(edges))
        assert graph.edge_count == 2

    def test_jsonl_roundtrip_is_exact(self):
        graph = small_graph()
        nodes_out, edges_out = io.StringIO(), io.StringIO()
        write_nodes_jsonl(graph, nodes_out)
        write_edges_jsonl(graph, edges_out)
        reloaded = load_graph(text_file(nodes_out.getvalue()), text_file(edges_out.getvalue()))
        assert reloaded == graph

    def test_saved_graph_roundtrip_after_attach(self, tmp_path):
        graph = attach_tag_system(small_graph(), "sys", ["Hardrock", "Crunk"], "en")
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        assert load_saved_graph(path) == graph


    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"nodes": [{"id": "en:Rock", "label": "Rock", "tokens": ["rock"]}], "edges": []},
             "nodes[0]: missing key 'lang'"),
            ([1, 2], "expected a JSON object, got list"),
            ({"nodes": [], "edges": None}, "'edges' must be a list, got null"),
            ({"nodes": []}, "missing key 'edges'"),
            ({"nodes": ["en:Rock"], "edges": []}, "nodes[0]: malformed record 'en:Rock'"),
            ({"nodes": [], "edges": [{"src": "a", "dst": "b"}]}, "edges[0]: missing key 'rel'"),
            ({"nodes": [{**SAVED_NODE, "lang": 5}], "edges": []}, "nodes[0]: node 'n1': invalid language code 5"),
            ({"nodes": [{**SAVED_NODE, "label": None}], "edges": []}, "nodes[0]: node 'n1': invalid label None"),
            ({"nodes": [{**SAVED_NODE, "id": ""}], "edges": []}, "nodes[0]: invalid id ''"),
            ({"nodes": [{**SAVED_NODE, "system": 7}], "edges": []}, "nodes[0]: node 'n1': invalid system 7"),
            ({"nodes": [{**SAVED_NODE, "tokens": [1, 2]}], "edges": []},
             "nodes[0]: node 'n1': tokens must be a list of non-empty strings, got [1, 2]"),
            ({"nodes": [{**SAVED_NODE, "tokens": [""]}], "edges": []},
             "nodes[0]: node 'n1': tokens must be a list of non-empty strings, got ['']"),
            ({"nodes": [{**SAVED_NODE, "tokens": "rock"}], "edges": []},  # not the tokens r, o, c, k
             "nodes[0]: node 'n1': tokens must be a list of non-empty strings, got 'rock'"),
            ({"vocabulary": ["rock", 1, None], "nodes": [], "edges": []}, "vocabulary[1]: expected a string, got int"),
            ({"nodes": [{**SAVED_NODE, "lang": "en\n"}], "edges": []},
             "nodes[0]: node 'n1': invalid language code 'en\\n'"),
            ({"nodes": [SAVED_NODE, {**SAVED_NODE, "id": "n2"}], "edges": [SAVED_EDGE, {**SAVED_EDGE, "rel": "bogus"}]},
             "edges[1]: unknown relation 'bogus'"),
            ({"nodes": [SAVED_NODE, {**SAVED_NODE, "id": "n2"}], "edges": [SAVED_EDGE, {**SAVED_EDGE, "dst": "zz"}]},
             "edges[1]: edge references missing node 'zz'"),
            ({"nodes": [{**SAVED_NODE, "tokens": []}], "edges": []}, "nodes[0]: node 'n1' has no tokens"),
            ({"nodes": [SAVED_NODE, {**SAVED_NODE, "label": "Pop"}], "edges": []}, "nodes[1]: duplicate node id 'n1'"),
            ({"nodes": [SAVED_NODE], "edges": [{**SAVED_EDGE, "dst": "n1"}]}, "edges[0]: self-loop on node 'n1'"),
        ],
    )
    def test_malformed_saved_graph_names_file_and_problem(self, tmp_path, payload, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}: {message}")):
            load_saved_graph(path)

    def test_saved_graph_that_is_not_json_names_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes": [', encoding="utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}: invalid JSON (Expecting value)")):
            load_saved_graph(path)

    def test_saved_graph_keeps_the_edge_checks(self, tmp_path):
        path = tmp_path / "graph.json"
        payload = small_graph().to_dict()
        payload["edges"].append({"src": payload["nodes"][0]["id"], "dst": "nowhere", "rel": "sameAs"})
        path.write_text(json.dumps(payload), encoding="utf-8")
        index = len(payload["edges"]) - 1
        message = f"{path}: edges[{index}]: edge references missing node 'nowhere'"
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            load_saved_graph(path)

    @pytest.mark.parametrize(
        "edge",
        [
            {"src": ["n1"], "dst": "n2", "rel": "sameAs"},
            {"src": "n1", "dst": {"id": "n2"}, "rel": "sameAs"},
            {"src": "n1", "dst": "n2", "rel": ["sameAs"]},
            {"src": ["n1"], "dst": ["n1"], "rel": "sameAs"},  # equal lists are no self-loop to drop
        ],
    )
    def test_non_string_edge_field_names_line(self, edge):
        edges = text_file(EDGES + json.dumps(edge) + "\n")
        message = f"{edges}: edges line 3: edge src, dst and relation must be strings, got "
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}"):
            load_graph(text_file(NODES), edges)

    def test_saved_graph_is_one_line_of_sorted_key_json(self, tmp_path):
        graph = attach_tag_system(small_graph(), "sys", ["Hardrock", "Crunk"], "en")
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(graph.to_dict(), ensure_ascii=False, sort_keys=True) + "\n"
        assert text.count("\n") == 1

    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        class FullDisk:
            """A file handle that writes 200 bytes and then fails, as a full disk would."""

            def __init__(self, handle):
                self.handle, self.room = handle, 200

            def write(self, data):
                if len(data) > self.room:
                    self.handle.write(data[:self.room])
                    raise OSError("no space left on device")
                self.room -= len(data)
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

        real_atomic_write = genregraph.atomic_write

        @contextlib.contextmanager
        def failing_atomic_write(path, binary=False):
            with real_atomic_write(path, binary=binary) as handle:
                yield FullDisk(handle)

        path = tmp_path / "graph.json"
        save_graph(small_graph(), path)
        before = path.read_bytes()
        monkeypatch.setattr(genregraph, "atomic_write", failing_atomic_write)
        replacement = attach_tag_system(small_graph(), "sys", ["Hardrock", "Crunk"], "en")
        assert len(json.dumps(replacement.to_dict())) > 400
        with pytest.raises(OSError, match="no space"):
            save_graph(replacement, path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["graph.json"]


class TestGenreNode:
    @pytest.mark.parametrize("language", ["en\n", "\nen", "eng", "EN", ""])
    def test_language_is_exactly_two_lowercase_letters(self, language):
        with pytest.raises(GraphFormatError, match=re.escape(f"node 'n1': invalid language code {language!r}")):
            GenreNode(id="n1", language=language, raw_label="Rock", tokens=("rock",))


@st.composite
def labelled_nodes(draw):
    """Node labels over a small alphabet, one of them another's words run together, and a lemma table."""
    word = st.lists(st.sampled_from(["a", "b", "É", "e\u0301"]), min_size=1, max_size=4).map("".join)
    phrases = draw(st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=6))
    labels = [draw(st.sampled_from([" ", "-", "_", " / "])).join(words) for words in phrases]
    labels.append("".join(draw(st.sampled_from(phrases))))  # as "Hardrock" beside "Hard rock"
    lemma = st.text(alphabet="abé", min_size=1, max_size=4)
    return labels, draw(st.dictionaries(lemma, lemma, max_size=4))


class TestNodeTokens:
    @given(labelled_nodes())
    @example((["Hard rock", "Hardrock"], {"hard": "hard", "rock": "rocks"}))
    @settings(max_examples=150, deadline=None)
    def test_tokens_equal_normalizing_against_the_graph_vocabulary(self, case):
        labels, lemmas = case
        nodes = "".join(json.dumps({"id": f"n{i}", "lang": "en", "label": label}) + "\n" for i, label in enumerate(labels))
        graph = load_graph(text_file(nodes), text_file(""), lemmas)
        for node in graph.nodes.values():
            # normalizing against the graph vocabulary changes nothing: a node label never splits
            assert list(node.tokens) == normalize_tag(node.raw_label, graph.word_vocabulary) == normalize_tag(node.raw_label)


class TestFilterGraph:
    def test_keeps_components_touching_high_confidence(self):
        graph = bare_graph(["A", "B", "C"], [("A", "B", "sameAs")])
        filtered = filter_graph(graph, {"A"})
        assert sorted(filtered.nodes) == ["A", "B"]
        assert filtered.edge_count == 1

    def test_full_coverage_is_identity(self):
        graph = small_graph()
        assert filter_graph(graph, set(graph.nodes)) == graph

    def test_empty_set_empties_graph(self):
        filtered = filter_graph(small_graph(), set())
        assert filtered.node_count == 0
        assert filtered.edge_count == 0

    def test_idempotent_and_monotone(self):
        graph = bare_graph(
            ["A", "B", "C", "D", "E"],
            [("A", "B", "sameAs"), ("C", "D", "derivative")],
        )
        once = filter_graph(graph, {"A"})
        assert filter_graph(once, {"A"}) == once
        larger = filter_graph(graph, {"A", "C"})
        assert set(once.nodes) <= set(larger.nodes)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_rebuilding_oracle(self, seed):
        graph = random_graph(seed)
        rng = random.Random(seed)
        wanted = rng.sample(graph.node_ids(), rng.randint(0, 3)) + ["absent"]
        filtered = filter_graph(graph, wanted)
        expected = rebuilding_filter_graph(graph, wanted)
        assert filtered == expected
        assert filtered.edges == expected.edges
        assert filtered.to_dict() == expected.to_dict()
        assert filtered.connected_components() == expected.connected_components()


class TestAttachTagSystem:
    def test_concatenated_tag_matches_by_tokens(self):
        nodes = '{"id": "ir", "lang": "en", "label": "Indie rock"}\n'
        graph = load_graph(text_file(nodes), text_file(""))
        attached = attach_tag_system(graph, "sys", ["indierock"], "en")
        new_id = tag_node_id("sys", "indierock")
        assert attached.nodes[new_id].tokens == ("indie", "rock")
        assert any(
            {e.src, e.dst} == {new_id, "ir"} and e.relation == "sameAs" for e in attached.edges
        )

    def test_case_variant_matches(self):
        nodes = '{"id": "j", "lang": "en", "label": "jazz"}\n'
        graph = load_graph(text_file(nodes), text_file(""))
        attached = attach_tag_system(graph, "sys", ["Jazz"], "en")
        assert attached.edge_count == 1

    def test_language_mismatch_does_not_match(self):
        nodes = '{"id": "j", "lang": "fr", "label": "jazz"}\n'
        graph = load_graph(text_file(nodes), text_file(""))
        attached = attach_tag_system(graph, "sys", ["Jazz"], "en")
        assert attached.edge_count == 0

    def test_unmatched_tag_stays_isolated(self):
        attached = attach_tag_system(small_graph(), "sys", ["crunk"], "en")
        new_id = tag_node_id("sys", "crunk")
        assert attached.has_node(new_id)
        assert attached.degree(new_id) == 0

    def test_duplicate_raw_tags_collapse(self):
        attached = attach_tag_system(small_graph(), "sys", ["crunk", "crunk"], "en")
        assert len(attached.system_tags("sys")) == 1

    def test_unnormalizable_tag_rejected(self):
        # load_corpus drops such tags; a caller that passes one gets the error
        with pytest.raises(ValueError, match=re.escape("tag '---' has no alphanumeric content")):
            attach_tag_system(small_graph(), "sys", ["Jazz", "---"], "en")

    def test_attaching_a_system_twice_rejected(self):
        once = attach_tag_system(small_graph(), "sys", ["Jazz"], "en")
        with pytest.raises(GraphFormatError, match=re.escape("'sys:Jazz'")):
            attach_tag_system(once, "sys", ["Jazz"], "en")

    def test_systems_recorded_on_nodes(self):
        attached = attach_tag_system(small_graph(), "sys", ["Jazz"], "en")
        assert attached.system_tags("sys") == [tag_node_id("sys", "Jazz")]
        assert attached.nodes[tag_node_id("sys", "Jazz")].system == "sys"


class TestShortestPathSimilarity:
    def test_same_node_scores_one(self):
        graph = bare_graph(["A"], [])
        assert shortest_path_similarity(graph, "A", "A") == 1.0

    def test_chain_of_two_hops(self):
        graph = bare_graph(["A", "B", "C"], [("A", "B", "sameAs"), ("B", "C", "derivative")])
        assert shortest_path_similarity(graph, "A", "C") == pytest.approx(1 / 3)

    def test_disconnected_scores_zero(self):
        graph = bare_graph(["A", "B"], [])
        assert shortest_path_similarity(graph, "A", "B") == 0.0

    def test_symmetric(self):
        graph = bare_graph(
            ["A", "B", "C", "D"],
            [("A", "B", "sameAs"), ("B", "C", "derivative"), ("C", "D", "musicSubgenre")],
        )
        for a in graph.nodes:
            for b in graph.nodes:
                assert shortest_path_similarity(graph, a, b) == shortest_path_similarity(graph, b, a)

    def test_unknown_node_rejected(self):
        graph = bare_graph(["A"], [])
        with pytest.raises(ValueError, match="unknown node id"):
            shortest_path_similarity(graph, "A", "Z")

    def test_direction_ignored(self):
        graph = bare_graph(["A", "B"], [("B", "A", "stylisticOrigin")])
        assert shortest_path_similarity(graph, "A", "B") == pytest.approx(0.5)


def random_graph(seed: int):
    """Several components, isolated nodes, and pairs joined by parallel and reversed edges."""
    rng = random.Random(seed)
    ids = [f"g{i:02d}" for i in range(rng.randint(1, 40))]
    relations = sorted(RELATIONS)
    edges = []
    for _ in range(rng.randint(0, 2 * len(ids))):
        a, b = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
        if a != b:
            edges.append((a, b, rng.choice(relations)))
    if len(ids) > 1:
        a, b = ids[0], ids[-1]
        edges += [(a, b, "sameAs"), (b, a, "sameAs"), (a, b, "derivative")]
    ids += ["lone1", "lone2"]
    rng.shuffle(ids)  # insertion order is not id order
    return bare_graph(ids, edges)


def oracle_hops(graph, sources, targets):
    rows = []
    for source in sources:
        hops = bfs_hops(graph, source)
        rows.append([float(hops[t]) if t in hops else np.inf for t in targets])
    return np.array(rows).reshape(len(sources), len(targets))


class TestAdjacency:
    """Components and hop counts from the sparse adjacency, against the Python BFS oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bfs_oracle_on_random_graphs(self, seed):
        graph = random_graph(seed)
        ids = graph.node_ids()
        sources = random.Random(seed).sample(ids, min(len(ids), 7))
        assert graph.connected_components() == bfs_components(graph)
        np.testing.assert_array_equal(hop_counts(graph, sources, ids), oracle_hops(graph, sources, ids))
        for nid in ids:
            expected = sorted({e.src if e.dst == nid else e.dst for e in graph.edges if nid in (e.src, e.dst)})
            assert neighbors(graph, nid) == tuple(expected)
            assert graph.degree(nid) == len(expected)

    def test_parallel_and_reversed_edges_make_one_neighbor(self):
        graph = bare_graph(["A", "B"], [("A", "B", "sameAs"), ("B", "A", "sameAs"), ("A", "B", "derivative")])
        assert neighbors(graph, "A") == ("B",) and graph.degree("B") == 1
        np.testing.assert_array_equal(hop_counts(graph, ["A", "B"], ["A", "B"]), [[0.0, 1.0], [1.0, 0.0]])

    def test_hop_counts_shape_and_unreachable(self):
        graph = bare_graph(["A", "B", "C"], [("A", "B", "musicSubgenre")])
        hops = hop_counts(graph, ["A"], ["C", "B", "A"])
        assert hops.shape == (1, 3) and hops.dtype == np.float64
        np.testing.assert_array_equal(hops, [[np.inf, 1.0, 0.0]])
        assert hop_counts(graph, [], ["A"]).shape == (0, 1)
        assert hop_counts(graph, ["A"], []).shape == (1, 0)

    def test_unknown_id_named_sources_first(self):
        graph = bare_graph(["A"], [])
        with pytest.raises(ValueError, match="unknown node id 'Y'"):
            hop_counts(graph, ["A", "Y"], ["Z"])
        with pytest.raises(ValueError, match="unknown node id 'Z'"):
            hop_counts(graph, ["A"], ["Z"])
        with pytest.raises(KeyError, match="unknown node id"):
            neighbors(graph, "Z")
        with pytest.raises(KeyError, match="unknown node id"):
            graph.degree("Z")

    def test_changes_after_first_use_are_seen(self):
        # a graph never changes: one built after the first is used with more records answers for them
        graph = bare_graph(["A", "B", "C"], [("A", "B", "sameAs")])
        assert graph.degree("C") == 0 and neighbors(graph, "A") == ("B",)
        assert len(graph.connected_components()) == 2
        assert hop_counts(graph, ["A"], ["C"])[0, 0] == np.inf
        joined = extended_graph(graph, edges=[("C", "B", "derivative")])
        assert joined.degree("C") == 1 and neighbors(joined, "B") == ("A", "C")
        assert joined.connected_components() == [frozenset({"A", "B", "C"})]
        assert hop_counts(joined, ["A"], ["C"])[0, 0] == 2.0
        grown = extended_graph(joined, ["D"])
        assert grown.degree("D") == 0 and neighbors(grown, "D") == ()
        assert grown.connected_components() == [frozenset({"A", "B", "C"}), frozenset({"D"})]
        assert hop_counts(grown, ["D"], ["A", "D"]).tolist() == [[np.inf, 0.0]]
        assert graph.degree("C") == 0 and len(graph.connected_components()) == 2

    def test_edge_added_to_copy_leaves_original_unchanged(self):
        graph = bare_graph(["A", "B"], [])
        assert graph.connected_components() == [frozenset({"A"}), frozenset({"B"})]
        twin = extended_graph(graph, edges=[("A", "B", "sameAs")])
        assert twin.degree("A") == 1 and twin.connected_components() == [frozenset({"A", "B"})]
        assert graph.degree("A") == 0 and neighbors(graph, "B") == ()
        assert graph.connected_components() == [frozenset({"A"}), frozenset({"B"})]
        assert hop_counts(graph, ["A"], ["B"])[0, 0] == np.inf

    def test_empty_graph_has_no_components(self):
        assert GenreGraph().connected_components() == []
        assert filter_graph(GenreGraph(), ["x"]).connected_components() == []


class TestImmutable:
    def test_graph_has_no_mutators_and_a_read_only_node_view(self):
        graph = bare_graph(["A", "B"], [("A", "B", "sameAs")])
        for name in ("add_node", "add_edge", "copy"):
            assert not hasattr(graph, name)
        with pytest.raises(TypeError):
            graph.nodes["C"] = GenreNode(id="C", language="en", raw_label="C", tokens=("c",))
        assert graph.node_ids() == ["A", "B"] and graph == bare_graph(["A", "B"], [("A", "B", "sameAs")])


def assert_same_hops(graph, sources, targets):
    """hop_counts equals the per-source oracle bit for bit, dtype and shape included."""
    hops, expected = hop_counts(graph, sources, targets), per_source_hop_counts(graph, sources, targets)
    assert hops.dtype == expected.dtype == np.float64 and hops.shape == expected.shape
    assert hops.tobytes() == expected.tobytes()


@st.composite
def block_search_cases(draw):
    """A graph with several components and isolated nodes, maybe a fan whose hub has degree >= 256, and a search on it.

    In the fan, `fan_in` reaches 256 or more middle nodes, all joined to
    `hub`, so one level puts that many of the hub's neighbours on the
    frontier at once: a product dtype chosen without the degree would wrap.
    """
    ids = [f"g{i:02d}" for i in range(draw(st.integers(1, 30)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2 * len(ids)))
    edges = [(a, b, "derivative") for a, b in pairs if a != b]
    fan = draw(st.booleans())
    if fan:
        middle = [f"m{i:03d}" for i in range(draw(st.integers(256, 260)))]
        ids += ["fan_in", "hub", *middle]
        edges += [("fan_in", m, "musicSubgenre") for m in middle] + [(m, "hub", "sameAs") for m in middle]
        edges.append(("hub", draw(st.sampled_from(ids[:-len(middle) - 2])), "derivative"))
    names = st.sampled_from(ids)
    sources = draw(st.lists(names, max_size=12))  # repeats allowed
    targets = draw(st.lists(names, max_size=12))
    if sources and draw(st.booleans()):
        targets.append(sources[0])
    return bare_graph(ids, edges), sources, targets, draw(st.integers(1, 5)), fan


class TestBlockSearch:
    @given(block_search_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_source_search(self, case):
        graph, sources, targets, block, fan = case
        assert graph._structure()[3].dtype == (np.uint16 if fan else np.uint8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genregraph, "HOP_CHUNK", block)  # mostly not a divisor of len(sources)
            assert_same_hops(graph, sources, targets)
            levels = genregraph.hop_levels(graph, sources)
        n = graph.node_count
        assert levels.shape == (n, len(sources)) and levels.dtype == np.min_scalar_type(n)
        expected = per_source_hop_counts(graph, sources, graph.node_ids()).T
        np.testing.assert_array_equal(np.where(levels == n, np.inf, levels), expected)


class TestHopMemo:
    """hop_counts equals a fresh per-source search; the baseline memo on the graph searches the sources of the
    call that builds it, then at most once more, from the targets."""

    @pytest.mark.parametrize("seed", range(12))
    def test_call_sequence_matches_per_source_oracle(self, seed):
        graph = random_graph(seed)
        rng = random.Random(seed)
        ids = [nid for nid in graph.node_ids() if not nid.startswith("lone")]  # kept isolated until below
        first, second = rng.sample(ids, min(len(ids), 9)), rng.sample(ids, min(len(ids), 5))
        some = rng.sample(ids, min(len(ids), 4))
        others = some[:2] + rng.sample(ids, min(len(ids), 3))  # overlaps `some`
        for sources, targets in [
            (some, first), (others, first), (some[:1] * 3 + others, first), ([], first),
            (some, second), (others, first), (some + ["lone1"], second), (some, first),
        ]:
            assert_same_hops(graph, sources, targets)

        joined = extended_graph(graph, edges=[("lone1", some[0], "derivative")])  # lone1 was isolated
        assert_same_hops(joined, some + ["lone1"], first)
        grown = extended_graph(joined, ["late"])
        assert_same_hops(grown, ["late", *some, "lone1"], first)

        twin = extended_graph(grown, edges=[("lone2", "late", "sameAs")])
        assert_same_hops(twin, ["lone2", "late", *some], first + ["late"])
        assert_same_hops(grown, ["lone2", "late", *some], first)
        assert_same_hops(graph, some + ["lone1"], first)

    def test_repeated_call_runs_no_search(self, monkeypatch):
        graph = bare_graph(["A", "B", "C"], [("A", "B", "sameAs")])
        searches = record_searches(monkeypatch)
        scores, _ = score_sets([["A"], ["C"], ["A"]], ["B", "C"], scorer="baseline", graph=graph)
        assert searches == [[0, 2]]
        again, _ = score_sets([["A"], ["C"], ["A"]], ["B", "C"], scorer="baseline", graph=graph)
        np.testing.assert_array_equal(again, scores)
        np.testing.assert_array_equal(score_sets([["C"]], ["B", "C"], scorer="baseline", graph=graph)[0], scores[1:2])
        assert searches == [[0, 2]]

    def test_misses_searched_in_chunks_and_memo_follows_graph_and_targets(self, monkeypatch):
        ids = [f"n{i:03d}" for i in range(150)]
        graph = bare_graph(ids, [(a, b, "musicSubgenre") for a, b in zip(ids, ids[1:])])
        targets = ids[::10]
        searches, builds = record_searches(monkeypatch), count_memo_builds(monkeypatch)
        translate(ids[:130], targets, scorer="baseline", graph=graph)  # the first call searches its own sources
        assert searches == [list(range(0, HOP_CHUNK)), list(range(HOP_CHUNK, 130))]
        translate(ids[:130], targets, scorer="baseline", graph=graph)
        assert len(searches) == 2
        scores, _ = score_sets([[source] for source in ids[120:140]], targets, scorer="baseline", graph=graph)
        assert searches[2:] == [list(range(0, 150, 10))]  # a miss fills the table from the targets
        table = graph._target_memo.table  # one row of small counts per node, and one float row per source read
        assert table.levels.shape == (150, len(targets)) and len(table.rows) == 140
        np.testing.assert_array_equal(scores, 1 / (1 + np.abs(np.arange(120, 140)[:, None] - np.arange(0, 150, 10))))
        again, _ = score_sets([[source] for source in ids[::-1]], targets, scorer="baseline", graph=graph)
        assert len(searches) == 3  # a filled table searches no more
        np.testing.assert_array_equal(again[::-1][120:140], scores)

        translate(ids[:2], ids[::5], scorer="baseline", graph=graph)  # another target list starts a new memo
        translate(ids[:2], targets, scorer="baseline", graph=graph)
        assert searches[3:] == [[0, 1], [0, 1]]
        grown = extended_graph(graph, ["late"])  # a new graph searches afresh
        translate(ids[:2], targets, scorer="baseline", graph=grown)
        translate(ids[:2], targets, scorer="baseline", graph=extended_graph(grown, edges=[("late", ids[0], "sameAs")]))
        assert searches[5:] == [[0, 1], [0, 1]]
        assert builds == {(GenreGraph, tuple(targets)): 4, (GenreGraph, tuple(ids[::5])): 1}
        before = translate(ids[:2], targets, scorer="baseline", graph=graph)
        assert filter_graph(graph, ids[:1])._target_memo is None
        assert attach_tag_system(graph, "x", ["late"], "en")._target_memo is None
        assert translate(ids[:2], targets, scorer="baseline", graph=graph) == before and len(searches) == 7


class TestEdgeStore:
    def test_edge_is_its_own_key(self):
        # a repeated edge record collapses into the first; the reversed edge is another edge
        graph = bare_graph(["A", "B"], [("A", "B", "sameAs"), ("A", "B", "sameAs"), ("B", "A", "sameAs")])
        assert graph.edges == (("A", "B", "sameAs"), ("B", "A", "sameAs")) and graph.edge_count == 2
        first = graph.edges[0]
        assert first == GenreEdge("A", "B", "sameAs") == ("A", "B", "sameAs")
        assert (first.src, first.dst, first.relation) == ("A", "B", "sameAs")

    def test_equality_counts_edge_order(self):
        edges = [("A", "B", "sameAs"), ("B", "C", "derivative")]
        forward = bare_graph(["A", "B", "C"], edges)
        backward = bare_graph(["A", "B", "C"], edges[::-1])
        assert set(forward.edges) == set(backward.edges)
        assert forward != backward
        assert forward == bare_graph(["A", "B", "C"], edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_arrays_in_a_permuted_order(self, seed):
        graph = random_graph(seed)
        order = graph.node_ids()
        random.Random(seed).shuffle(order)
        src, dst, relation = graph.edge_arrays(order)
        relations = sorted(RELATION_CODES, key=RELATION_CODES.get)
        decoded = [(order[s], order[d], relations[r]) for s, d, r in zip(src, dst, relation)]
        assert decoded == [tuple(edge) for edge in graph.edges]
        assert relations == sorted(RELATIONS)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ids: ids[:-1] + ["ghost"], "unknown node id 'ghost'"),
            (lambda ids: ids[:-1] + ids[:1], "not a permutation"),
            (lambda ids: ids[:-1], "not a permutation"),
            (lambda ids: ids + ids[:1], "not a permutation"),
        ],
    )
    def test_edge_arrays_order_must_be_a_permutation(self, edit, message):
        graph = bare_graph(["A", "B", "C"], [("A", "B", "sameAs")])
        with pytest.raises(ValueError, match=message):
            graph.edge_arrays(edit(graph.node_ids()))


class TestRelationSets:
    def test_closed_relation_vocabulary(self):
        assert EQUIVALENCE_RELATIONS == {"sameAs", "wikiPageRedirects"}
        assert RELATIONS - EQUIVALENCE_RELATIONS == {
            "stylisticOrigin",
            "musicSubgenre",
            "derivative",
            "musicFusionGenre",
        }

    def test_undirected_relations_merge_both_orientations(self):
        graph = bare_graph(
            ["A", "B"],
            [("A", "B", "sameAs"), ("B", "A", "sameAs"), ("A", "B", "derivative")],
        )
        pairs = undirected_relations(graph)
        assert pairs == {("A", "B"): frozenset({"sameAs", "derivative"})}


class TestLemmaTable:
    def test_parse_and_normalize(self):
        table = load_lemma_table(text_file("Children\tChild\nNorthern\tnorth\n"))
        assert table == {"children": "child", "northern": "north"}

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_lemma_table(text_file("a\tb\nbroken\n"))
