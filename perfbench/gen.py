"""Seeded synthetic inputs for the benchmark, in the file formats the CLI reads.

A dataset is a bilingual (en/fr) genre graph with all six relations, one
aligned word-vector file per language, a lemma table, a parallel corpus
annotated under an "en" and an "fr" tag system, and a pipeline config.
Everything is derived from the size parameters and the seed, so the same
pair always writes the same bytes.

    python3 perfbench/gen.py --workload corpus-heavy --seed 3 --out corpus-data
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LANGUAGES = ("en", "fr")
# Characters of the synthetic words. Each language has its own alphabet so
# an English and a French word never coincide.
_ALPHABETS = {"en": ("bdgklmnprstv", "aeiou"), "fr": ("cfhjlmnqrswz", "aeiouy")}
_FILLER_PREFIX = "x"  # no graph word starts with it, so filler rows never match
_OOV_PREFIX = "q"     # nor with this, and no vector row does either


@dataclass(frozen=True)
class Sizes:
    concepts: int          # genre concepts per language
    extra_edges: float     # non-subgenre relation edges per concept, per language
    sameas_share: float    # share of concepts whose en and fr nodes get a sameAs edge
    redirect_share: float  # share of concepts with a redirect alias node
    stray_share: float     # share of extra nodes in small components the confidence filter drops
    dim: int
    vocab_rows: int        # rows per vector file
    oov_share: float       # share of graph words absent from the vector files
    concat_share: float    # share of corpus tags written as one word, such as "sludgemetal"
    items: int
    tags_per_item: int     # at most this many concepts per item
    target_tags: int       # concepts in the corpus tag inventory
    min_tag_count: int
    folds: int = 4
    queries: int = 3000    # translate() queries, sent in order and repeated as needed


WORKLOADS = {
    "graph-heavy": Sizes(
        concepts=900, extra_edges=0.9, sameas_share=0.7, redirect_share=0.15, stray_share=0.03,
        dim=300, vocab_rows=7000, oov_share=0.08, concat_share=0.15,
        items=400, tags_per_item=3, target_tags=40, min_tag_count=4,
    ),
    "corpus-heavy": Sizes(
        concepts=200, extra_edges=0.9, sameas_share=0.7, redirect_share=0.15, stray_share=0.03,
        dim=300, vocab_rows=2000, oov_share=0.08, concat_share=0.15,
        items=3000, tags_per_item=3, target_tags=200, min_tag_count=4,
    ),
    # Small enough for the CLI parity check and the benchmark's own tests.
    "smoke": Sizes(
        concepts=80, extra_edges=0.9, sameas_share=0.7, redirect_share=0.15, stray_share=0.05,
        dim=16, vocab_rows=300, oov_share=0.08, concat_share=0.15,
        items=160, tags_per_item=3, target_tags=24, min_tag_count=2, queries=50,
    ),
}


def cache_key(sizes: Sizes, seed: int) -> str:
    """Directory name that changes whenever the parameters, the seed or this generator change."""
    payload = json.dumps(dataclasses.asdict(sizes), sort_keys=True) + Path(__file__).read_text(encoding="utf-8")
    return f"{hashlib.sha256(payload.encode()).hexdigest()[:16]}-s{seed}"


def _word(index: int, language: str) -> str:
    """Distinct pronounceable word for a non-negative index."""
    consonants, vowels = _ALPHABETS[language]
    base = len(consonants) * len(vowels)
    syllables = []
    index += base  # at least two syllables
    while index:
        index, digit = divmod(index, base)
        syllables.append(consonants[digit // len(vowels)] + vowels[digit % len(vowels)])
    return "".join(syllables)


def _concepts(sizes: Sizes, rng: np.random.Generator):
    """Labels (tuples of meaning ids) and parents of the concept hierarchy.

    A few roots carry one meaning; every other concept is a subgenre that
    prefixes one modifier to (the tail of) its parent's label, as "hard rock"
    extends "rock". Labels are distinct.
    """
    n = sizes.concepts
    roots = max(4, n // 50)
    meanings = max(roots + 8, n // 2)
    labels: list[tuple[int, ...]] = []
    parents: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for c in range(n):
        if c < roots:
            label, parent = (c,), -1
        else:
            while True:
                parent = int(rng.integers(0, c))
                modifier = int(rng.integers(roots, meanings))
                label = (modifier, *labels[parent][-2:])
                if modifier not in labels[parent] and label not in seen:
                    break
        seen.add(label)
        labels.append(label)
        parents.append(parent)
    return labels, parents, roots, meanings


def _exactly(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Mask with exactly round(share * n) random entries set, so shares do not vary with the seed."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:round(share * n)]] = True
    return mask


def _related_pairs(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    pairs = set()
    while len(pairs) < count:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((a, b))
    return sorted(pairs)


def _label(words: list[str]) -> str:
    """A DBpedia-style label such as "Hard_rock"."""
    return "_".join([words[0].capitalize(), *words[1:]])


def _write_vectors(path: Path, words: list[str], matrix: np.ndarray) -> None:
    row_format = " ".join(["%.4f"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            handle.write(word + " " + row_format % tuple(row) + "\n")


def _jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def generate(root: str | Path, sizes: Sizes, seed: int) -> dict:
    """Write one dataset under `root`; return a summary of its parameters and sizes."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sizes.concepts, sizes.items])
    labels, parents, roots, meanings = _concepts(sizes, rng)
    n = sizes.concepts

    # Word vectors: one base direction per meaning, aligned across languages.
    base = rng.normal(size=(meanings, sizes.dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    node_words = {lang: [[_word(m, lang) for m in (label if lang == "en" else label[::-1])] for label in labels]
                  for lang in LANGUAGES}
    paths = {lang: root / f"vectors_{lang}.vec" for lang in LANGUAGES}
    rows = 0
    for lang in LANGUAGES:
        # Root words are always in the vocabulary, so every concept label has a
        # known word and no unanchored cluster slows the retrofit down.
        in_vocab = np.flatnonzero(~_exactly(rng, meanings, sizes.oov_share) | (np.arange(meanings) < roots))
        fillers = sizes.vocab_rows - in_vocab.size
        if fillers < 0:
            raise ValueError("vocab_rows must exceed the graph's word vocabulary")
        # Graph words sit at random ranks in the first 80% of the file.
        slots = np.sort(rng.choice(int(sizes.vocab_rows * 0.8), size=in_vocab.size, replace=False))
        words = [f"{_FILLER_PREFIX}{_word(i, lang)}" for i in range(sizes.vocab_rows)]
        matrix = rng.normal(size=(sizes.vocab_rows, sizes.dim)) / np.sqrt(sizes.dim)
        order = rng.permutation(in_vocab)
        for slot, meaning in zip(slots, order):
            words[slot] = _word(int(meaning), lang)
            matrix[slot] = 0.9 * base[meaning] + 0.1 * matrix[slot]
        _write_vectors(paths[lang], words, matrix * 0.6)
        rows += len(words)

    # Graph: per language, subgenre tree edges plus a random mix of the other
    # relations; sameAs across languages; redirect aliases; stray components.
    # The corpus tags a fixed inventory of concepts. Like popular genres in
    # DBpedia, these always have a sameAs twin and a redirect, so every seed
    # holds the same kind of densely linked clusters that set how fast
    # retrofitting converges.
    inventory = rng.choice(n, size=min(sizes.target_tags, n), replace=False)
    stocked = np.zeros(n, dtype=bool)
    stocked[inventory] = True
    nodes, edges = [], []
    extra = _related_pairs(n, int(sizes.extra_edges * n), rng)
    extra_relations = ("stylisticOrigin", "derivative", "musicFusionGenre", "musicSubgenre")
    for lang in LANGUAGES:
        for c in range(n):
            nodes.append({"id": f"dbp_{lang}_{c}", "lang": lang, "label": _label(node_words[lang][c])})
        for c, p in enumerate(parents):
            if p >= 0:
                edges.append({"src": f"dbp_{lang}_{c}", "dst": f"dbp_{lang}_{p}", "rel": "musicSubgenre"})
        for k, (a, b) in enumerate(extra):
            if rng.random() < 0.85:  # the two languages share most but not all structure
                edges.append({"src": f"dbp_{lang}_{a}", "dst": f"dbp_{lang}_{b}", "rel": extra_relations[k % 4]})
        # Redirect aliases: the label hyphenated, or an abbreviation that no
        # vector file holds, an unknown leaf that retrofitting fills in.
        for c in np.flatnonzero(_exactly(rng, n, sizes.redirect_share) | stocked):
            words = node_words[lang][c]
            if len(words) == 1 or rng.random() < 0.5:
                alias = _OOV_PREFIX + "".join(word[0] for word in words) + words[-1]
            else:
                alias = "-".join(words).capitalize()
            nodes.append({"id": f"dbp_{lang}_r{c}", "lang": lang, "label": alias})
            edges.append({"src": f"dbp_{lang}_r{c}", "dst": f"dbp_{lang}_{c}", "rel": "wikiPageRedirects"})
        strays = int(sizes.stray_share * n)
        for s in range(strays):
            words = [_word(int(m), lang) for m in rng.integers(roots, meanings, size=2)]
            nodes.append({"id": f"dbp_{lang}_x{s}", "lang": lang, "label": _label(words)})
            if s % 2:
                edges.append({"src": f"dbp_{lang}_x{s}", "dst": f"dbp_{lang}_x{s - 1}", "rel": "derivative"})
    for c in np.flatnonzero(_exactly(rng, n, sizes.sameas_share) | stocked):
        edges.append({"src": f"dbp_en_{c}", "dst": f"dbp_fr_{c}", "rel": "sameAs"})
    _jsonl(root / "nodes.jsonl", nodes)
    _jsonl(root / "edges.jsonl", edges)

    # Lemma table: plural forms of a few graph words.
    with open(root / "lemma.tsv", "w", encoding="utf-8", newline="\n") as handle:
        for m in range(0, meanings, max(1, meanings // 40)):
            for lang in LANGUAGES:
                word = _word(m, lang)
                handle.write(f"{word}s\t{word}\n")

    # Corpus: items tag popular concepts in both systems; the fr side drops
    # some concepts and adds some parents, so translation is imperfect.
    popularity = 1.0 / (np.arange(inventory.size) + 8.0) ** 0.7
    popularity /= popularity.sum()
    # One tag in ten carries an extra word, so it matches no graph node and
    # stays unlinked; some multi-word tags are written as one word, which
    # attachment splits against the graph's vocabulary.
    unlinked = _exactly(rng, n, 0.1)
    concat = _exactly(rng, n, sizes.concat_share)
    tag = {lang: [" ".join(node_words[lang][c] + [_word(roots, lang)]) if unlinked[c]
                  else ("" if concat[c] else " ").join(node_words[lang][c])
                  for c in range(n)] for lang in LANGUAGES}
    items = []
    for i in range(sizes.items):
        k = int(rng.integers(1, sizes.tags_per_item + 1))
        chosen = [int(c) for c in rng.choice(inventory, size=k, replace=False, p=popularity)]
        fr = [c for c in chosen if rng.random() < 0.85] or chosen[:1]
        fr += [parents[c] for c in chosen if parents[c] >= 0 and stocked[parents[c]] and rng.random() < 0.15]
        items.append({
            "id": f"item{i:06d}",
            "annotations": {"en": [tag["en"][c] for c in chosen], "fr": [tag["fr"][c] for c in dict.fromkeys(fr)]},
        })
    _jsonl(root / "corpus.jsonl", items)

    # translate() queries: 1-8 en source tags drawn by popularity; every fifth
    # query adds an id that is no graph node (missing from the matrix). One in
    # ten uses the baseline scorer; the rest alternate avg and sum. Source
    # counts cycle through 1-8 for each scorer, so every seed asks the same
    # amount of work and only the tags differ.
    queries = []
    for q in range(sizes.queries):
        baseline = q % 10 == 0
        k = 1 + (q // 10 if baseline else q) % 8
        sources = [f"en:{tag['en'][int(c)]}" for c in rng.choice(inventory, size=k, replace=False, p=popularity)]
        if q % 5 == 1:
            sources.append(f"en:{_FILLER_PREFIX}{_word(q, 'en')}")
        queries.append({"sources": sources, "scorer": "baseline" if baseline else ("sum" if q % 2 else "avg")})
    _jsonl(root / "queries.jsonl", queries)

    config = {
        "vectors": {lang: paths[lang].name for lang in LANGUAGES},
        "graph_nodes": "nodes.jsonl",
        "graph_edges": "edges.jsonl",
        "lemma_table": "lemma.tsv",
        "corpus": "corpus.jsonl",
        "workdir": "out",
        "composition": "sif",
        "scheme": "typed",
        "tolerance": 1e-5,
        "max_iters": 200,
        "scorer": "avg",
        "folds": sizes.folds,
        "seed": seed,
        "min_tag_count": sizes.min_tag_count,
        "tag_systems": [{"name": lang, "language": lang} for lang in LANGUAGES],
        "target_system": "fr",
        "source_systems": ["en"],
        "high_confidence": [f"dbp_{lang}_{c}" for lang in LANGUAGES for c in range(roots)],
    }
    with open(root / "config.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary = {"seed": seed, "sizes": dataclasses.asdict(sizes), "vector_rows": rows,
               "nodes_written": len(nodes), "edges_written": len(edges), "items_written": len(items)}
    with open(root / "DONE.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.out, WORKLOADS[args.workload], args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
