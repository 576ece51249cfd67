"""IR2vec reimplementation: seed embeddings + program encodings.

Follows VenkataKeerthy et al. (TACO'20) as used by the paper: a TransE
model learns *seed embeddings* for IR entities (opcodes, types, argument
kinds) from (head, relation, tail) triples harvested from a code corpus;
the *symbolic* encoding folds seed vectors over each instruction, and the
*flow-aware* encoding additionally propagates vectors along use-def and
control-flow edges.  Each encoding yields one 256-d vector per compilation
unit; the paper concatenates both into the 512-d feature the decision tree
consumes.

Like IR2vec, the package ships its default (seed 42) seed table
pretrained: :mod:`repro.embeddings.seedtable` holds the pin and its
regeneration entry point.
"""

from repro.embeddings.ir2vec import IR2VecEncoder, encode_module
from repro.embeddings.normalize import NORMALIZATIONS, normalize_features
from repro.embeddings.transe import SeedEmbeddings, train_seed_embeddings
from repro.embeddings.triplets import extract_triplets, entity_vocabulary

__all__ = [
    "IR2VecEncoder", "encode_module",
    "SeedEmbeddings", "train_seed_embeddings",
    "extract_triplets", "entity_vocabulary",
    "normalize_features", "NORMALIZATIONS",
]
