"""Tests for graph normalization, ingestion, filtering, attachment, and paths."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrevec.genregraph import (
    EQUIVALENCE_RELATIONS,
    RELATIONS,
    GenreGraph,
    GraphFormatError,
    attach_tag_system,
    filter_graph,
    load_graph,
    load_lemma_table,
    load_saved_graph,
    normalize_tag,
    save_graph,
    shortest_path_similarity,
    tag_node_id,
    write_edges_jsonl,
    write_nodes_jsonl,
)

from helpers import bare_graph


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


def small_graph():
    return load_graph(io.StringIO(NODES), io.StringIO(EDGES))


class TestLoadGraph:
    def test_nodes_edges_and_symmetric_adjacency(self):
        graph = small_graph()
        assert graph.node_count == 4
        assert graph.edge_count == 2
        assert graph.neighbors("n1") == ("n2", "n3")
        assert graph.neighbors("n2") == ("n1",)
        assert graph.degree("n1") == 2

    def test_labels_normalized_with_own_vocabulary(self):
        graph = small_graph()
        assert graph.nodes["n2"].tokens == ("hard", "rock")
        # "hardrock" would split because 'hard' and 'rock' are graph words
        assert normalize_tag("hardrock", graph.word_vocabulary) == ["hard", "rock"]

    def test_lemma_table_extends_vocabulary(self):
        nodes = '{"id": "a", "lang": "en", "label": "Children music"}\n'
        graph = load_graph(io.StringIO(nodes), io.StringIO(""), {"children": "child"})
        assert "child" in graph.word_vocabulary
        assert normalize_tag("childmusic", graph.word_vocabulary) == ["child", "music"]

    def test_unknown_relation_names_line(self):
        edges = '{"src": "n1", "dst": "n2", "rel": "subGenreOf"}\n'
        with pytest.raises(GraphFormatError, match="edges line 1"):
            load_graph(io.StringIO(NODES), io.StringIO(edges))

    def test_dangling_edge_names_line(self):
        edges = EDGES + '{"src": "n1", "dst": "missing", "rel": "sameAs"}\n'
        with pytest.raises(GraphFormatError, match="edges line 3"):
            load_graph(io.StringIO(NODES), io.StringIO(edges))

    def test_duplicate_node_id_rejected(self):
        nodes = NODES + '{"id": "n1", "lang": "en", "label": "Rock again"}\n'
        with pytest.raises(GraphFormatError, match="duplicate node id"):
            load_graph(io.StringIO(nodes), io.StringIO(EDGES))

    def test_bad_language_code_rejected(self):
        nodes = '{"id": "a", "lang": "english", "label": "Rock"}\n'
        with pytest.raises(GraphFormatError, match="language"):
            load_graph(io.StringIO(nodes), io.StringIO(""))

    def test_self_loop_dropped_with_warning(self, caplog):
        edges = EDGES + '{"src": "n1", "dst": "n1", "rel": "sameAs"}\n'
        with caplog.at_level("WARNING"):
            graph = load_graph(io.StringIO(NODES), io.StringIO(edges))
        assert graph.edge_count == 2
        assert "self-loop" in caplog.text

    def test_duplicate_edge_line_deduplicated(self):
        edges = EDGES + '{"src": "n1", "dst": "n2", "rel": "musicSubgenre"}\n'
        graph = load_graph(io.StringIO(NODES), io.StringIO(edges))
        assert graph.edge_count == 2

    def test_jsonl_roundtrip_is_exact(self):
        graph = small_graph()
        nodes_out, edges_out = io.StringIO(), io.StringIO()
        write_nodes_jsonl(graph, nodes_out)
        write_edges_jsonl(graph, edges_out)
        reloaded = load_graph(io.StringIO(nodes_out.getvalue()), io.StringIO(edges_out.getvalue()))
        assert reloaded == graph

    def test_saved_graph_roundtrip_after_attach(self, tmp_path):
        graph = attach_tag_system(small_graph(), "sys", ["Hardrock", "Crunk"], "en")
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        assert load_saved_graph(path) == graph


    def test_interrupted_save_keeps_previous_file(self, tmp_path, monkeypatch):
        graph = small_graph()
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        before = path.read_bytes()
        # json.dump writes the leading keys before it reaches the unserializable value
        monkeypatch.setattr(GenreGraph, "to_dict", lambda self: {"nodes": [], "zzz": object()})
        with pytest.raises(TypeError):
            save_graph(graph, path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["graph.json"]


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


class TestAttachTagSystem:
    def test_concatenated_tag_matches_by_tokens(self):
        nodes = '{"id": "ir", "lang": "en", "label": "Indie rock"}\n'
        graph = load_graph(io.StringIO(nodes), io.StringIO(""))
        attached = attach_tag_system(graph, "sys", ["indierock"], "en")
        new_id = tag_node_id("sys", "indierock")
        assert attached.nodes[new_id].tokens == ("indie", "rock")
        assert any(
            {e.src, e.dst} == {new_id, "ir"} and e.relation == "sameAs" for e in attached.edges
        )

    def test_case_variant_matches(self):
        nodes = '{"id": "j", "lang": "en", "label": "jazz"}\n'
        graph = load_graph(io.StringIO(nodes), io.StringIO(""))
        attached = attach_tag_system(graph, "sys", ["Jazz"], "en")
        assert attached.edge_count == 1

    def test_language_mismatch_does_not_match(self):
        nodes = '{"id": "j", "lang": "fr", "label": "jazz"}\n'
        graph = load_graph(io.StringIO(nodes), io.StringIO(""))
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

    def test_unnormalizable_tag_skipped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            attached = attach_tag_system(small_graph(), "sys", ["---"], "en")
        assert attached.node_count == small_graph().node_count
        assert "alphanumeric" in caplog.text

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
        pairs = graph.undirected_relations()
        assert pairs == {("A", "B"): frozenset({"sameAs", "derivative"})}


class TestLemmaTable:
    def test_parse_and_normalize(self):
        table = load_lemma_table(io.StringIO("Children\tChild\nNorthern\tnorth\n"))
        assert table == {"children": "child", "northern": "north"}

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_lemma_table(io.StringIO("a\tb\nbroken\n"))
