"""The pinned IR2vec seed table.

IR2Vec trains its seed embeddings once, offline, and ships them as a
fixed vocabulary.  This module does the same for the project's default
embedding seed: the seed-42 TransE table is committed next to this file
as a ``repro-seed-embeddings`` envelope (``seed_table_42.json``) and
:func:`seed_table` loads it instead of retraining.  Every other seed
still trains on the canonical mini-corpus (the Seeds study needs that).

The pin records the key it was trained from — a sha256 over the
training corpus's (name, source) pairs plus the TransE config — and the
numpy version that built it.  The envelope's content digest guards the
file; the loaded table's own digest (:attr:`SeedEmbeddings.digest`) is
the value pipeline artifacts and engine cache keys bind to.

Regenerate or check the pin::

    python -m repro.embeddings.seedtable            # rebuild, write the pin
    python -m repro.embeddings.seedtable --check    # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.transe import SeedEmbeddings, train_seed_embeddings
from repro.embeddings.triplets import extract_triplets

KIND = "repro-seed-embeddings"
PINNED_SEED = 42
PIN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        f"seed_table_{PINNED_SEED}.json")

#: TransE settings of the default tables (``seed`` is added per table).
TRANSE_CONFIG = {"dim": 256, "epochs": 25, "batch_size": 8192,
                 "margin": 1.0, "lr": 0.01}
#: The canonical mini-corpus: every ninth MBI sample, first 160.
CORPUS_STRIDE = 9
CORPUS_SIZE = 160


def training_corpus() -> List[Tuple[str, str]]:
    """The (name, source) pairs every default table is trained on."""
    from repro.datasets import load_mbi

    samples = list(load_mbi())[::CORPUS_STRIDE][:CORPUS_SIZE]
    return [(s.name, s.source) for s in samples]


def training_key(seed: int,
                 corpus: Sequence[Tuple[str, str]]) -> Dict[str, Any]:
    """What a table is a function of: its corpus and its TransE config."""
    digest = hashlib.sha256(json.dumps(
        [list(pair) for pair in corpus], ensure_ascii=False,
        separators=(",", ":")).encode("utf-8")).hexdigest()
    return {"corpus_digest": digest, "corpus_size": len(corpus),
            "transe": dict(TRANSE_CONFIG, seed=seed)}


def train_table(seed: int,
                corpus: Optional[Sequence[Tuple[str, str]]] = None,
                ) -> SeedEmbeddings:
    """Train the default table for ``seed`` with TransE (~17 s)."""
    from repro.frontend import compile_c

    if corpus is None:
        corpus = training_corpus()
    triples = []
    for name, source in corpus:
        triples.extend(extract_triplets(compile_c(source, name, "O0")))
    config = TRANSE_CONFIG
    return train_seed_embeddings(
        triples, dim=config["dim"], seed=seed, epochs=config["epochs"],
        batch_size=config["batch_size"], margin=config["margin"],
        lr=config["lr"])


def table_document(seeds: SeedEmbeddings,
                   key: Dict[str, Any]) -> Dict[str, Any]:
    """The flat ``repro-seed-embeddings`` document of one table."""
    return {
        "kind": KIND,
        "schema_version": 1,
        "key": key,
        "numpy_version": np.__version__,
        "dim": seeds.dim,
        "entities": sorted(seeds.entities, key=seeds.entities.__getitem__),
        "relations": sorted(seeds.relations,
                            key=seeds.relations.__getitem__),
        "entity_vectors": seeds.entity_vectors.tolist(),
        "relation_vectors": seeds.relation_vectors.tolist(),
        "unknown": seeds.unknown.tolist(),
    }


def read_pin() -> Dict[str, Any]:
    """The validated flat document of the pin at :data:`PIN_PATH`.

    Only the envelope form is accepted: a pin without its content
    digest could be edited unnoticed.  Any defect raises SchemaError.
    """
    from repro.schema import SchemaError, is_envelope, validate_kind

    with open(PIN_PATH, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError("$", f"{PIN_PATH} is not valid JSON: {exc}") \
                from None
    if not is_envelope(doc):
        raise SchemaError("$", f"{PIN_PATH} is not a {KIND} envelope")
    return validate_kind(KIND, doc)


def table_from_document(doc: Dict[str, Any]) -> SeedEmbeddings:
    """The table a flat ``repro-seed-embeddings`` document holds."""
    return SeedEmbeddings(
        dim=doc["dim"],
        entities={n: i for i, n in enumerate(doc["entities"])},
        relations={n: i for i, n in enumerate(doc["relations"])},
        entity_vectors=np.array(doc["entity_vectors"], dtype=np.float64),
        relation_vectors=np.array(doc["relation_vectors"], dtype=np.float64),
        unknown=np.array(doc["unknown"], dtype=np.float64))


def load_pin() -> SeedEmbeddings:
    """The pinned table, digest-checked (SchemaError on any defect)."""
    return table_from_document(read_pin())


def seed_table(seed: int) -> SeedEmbeddings:
    """The default table for ``seed``: the pin for :data:`PINNED_SEED`,
    a fresh TransE run for any other seed."""
    if seed == PINNED_SEED:
        return load_pin()
    return train_table(seed)


def build_pin_document() -> Dict[str, Any]:
    """Rebuild the pinned table from scratch; its flat document."""
    corpus = training_corpus()
    return table_document(train_table(PINNED_SEED, corpus),
                          training_key(PINNED_SEED, corpus))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.embeddings.seedtable",
        description="Rebuild the pinned IR2vec seed table from its "
                    "recorded key and write it, or check it is current.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed pin differs from a "
                             "fresh rebuild; write nothing")
    args = parser.parse_args(argv)

    rebuilt = build_pin_document()
    table = table_from_document(rebuilt).digest
    if not args.check:
        from repro.schema import save_envelope

        save_envelope(rebuilt, PIN_PATH, kind=KIND)
        print(f"wrote {PIN_PATH} (table {table[:16]}…)")
        return 0
    try:
        committed = read_pin()
    except (OSError, ValueError) as exc:
        print(f"stale: cannot read the pin: {exc}")
        return 1
    stale = []
    if rebuilt["key"] != committed["key"]:
        stale.append("key")
    if table != table_from_document(committed).digest:
        stale.append("table")
    if stale:
        print(f"stale: {', '.join(stale)} differ from a fresh rebuild "
              f"(pin built with numpy {committed['numpy_version']}, this "
              f"is numpy {np.__version__}); rerun without --check")
        return 1
    print(f"up to date (table {table[:16]}…)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
