"""The pinned seed-42 table: rebuild identity, lazy load, typed failures."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.embeddings import seedtable
from repro.embeddings.ir2vec import default_encoder
from repro.schema import SchemaError, save_envelope

SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.fixture(scope="module")
def pin_text():
    with open(seedtable.PIN_PATH, encoding="utf-8") as fh:
        return fh.read()


def test_pin_rebuilds_from_its_key_byte_for_byte(pin_text, tmp_path):
    """Rebuilding seed 42 from scratch must give the committed pin.  This
    is the guard against frontend, triple-template or TransE drift."""
    committed = json.loads(pin_text)
    rebuilt = seedtable.build_pin_document()
    versions = (f"pin built with numpy "
                f"{committed['payload']['numpy_version']}, this is numpy "
                f"{np.__version__}; regenerate with "
                "`python -m repro.embeddings.seedtable`")
    assert rebuilt["key"] == committed["payload"]["key"], versions
    # The numpy and repro versions are provenance, not content: compare
    # the rest of the file byte for byte under the recorded ones.
    rebuilt["numpy_version"] = committed["payload"]["numpy_version"]
    rebuilt["repro_version"] = committed["repro_version"]
    path = tmp_path / "rebuilt.json"
    save_envelope(rebuilt, str(path), kind=seedtable.KIND)
    assert json.loads(path.read_text())["digest"] == committed["digest"], \
        versions
    assert path.read_text(encoding="utf-8") == pin_text, versions


def test_pin_loads_without_training():
    """A fresh process whose TransE trainer raises still encodes with
    seed 42, and importing the encoder module does not touch the pin."""
    script = textwrap.dedent("""
        import sys
        import repro.embeddings.ir2vec as ir2vec
        import repro.embeddings.seedtable as seedtable
        import repro.embeddings.transe as transe

        def refuse(*args, **kwargs):
            raise AssertionError("TransE must not run for seed 42")

        for mod in list(sys.modules.values()):
            if getattr(mod, "train_seed_embeddings", None) \\
                    is transe.train_seed_embeddings:
                mod.train_seed_embeddings = refuse
        assert not ir2vec._DEFAULT_ENCODERS
        from repro.frontend import compile_c
        src = ("#include <mpi.h>\\n"
               "int main(int argc, char** argv) {\\n"
               "  MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }\\n")
        vec = ir2vec.default_encoder(42).encode(compile_c(src, "t", "O0"))
        assert vec.shape == (512,) and abs(vec).sum() > 0
        print(ir2vec.default_encoder(42).seeds.digest)
    """)
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == seedtable.load_pin().digest


def test_other_seeds_still_train():
    pinned = default_encoder(42).seeds
    reseeded = default_encoder(1337).seeds
    assert reseeded.entity_vectors.shape == pinned.entity_vectors.shape
    assert reseeded.digest != pinned.digest
    assert not np.array_equal(reseeded.entity_vectors,
                              pinned.entity_vectors)


def test_default_encoder_serves_the_pin():
    doc = seedtable.read_pin()
    seeds = default_encoder(42).seeds
    assert seeds.digest == seedtable.load_pin().digest
    assert seeds.entity_vectors.shape == (len(doc["entities"]), doc["dim"])
    assert doc["key"]["transe"]["seed"] == seedtable.PINNED_SEED


@pytest.fixture
def pin_at(tmp_path, monkeypatch):
    """Point the module at a scratch pin file; return its path."""
    path = tmp_path / "pin.json"
    monkeypatch.setattr(seedtable, "PIN_PATH", str(path))
    return path


def test_edited_float_is_rejected(pin_text, pin_at):
    envelope = json.loads(pin_text)
    envelope["payload"]["entity_vectors"][3][7] += 1e-9
    pin_at.write_text(json.dumps(envelope), encoding="utf-8")
    with pytest.raises(SchemaError, match="digest"):
        seedtable.load_pin()


@pytest.mark.parametrize("corrupt", [
    lambda env: env["payload"],                       # flat, no digest
    lambda env: dict(env, payload=dict(env["payload"], unknown=[1.0])),
    lambda env: dict(env, kind="repro-eval-matrix"),
])
def test_malformed_pins_raise_schema_error(pin_text, pin_at, corrupt):
    envelope = json.loads(pin_text)
    pin_at.write_text(json.dumps(corrupt(envelope)), encoding="utf-8")
    with pytest.raises(SchemaError):
        seedtable.load_pin()


def test_truncated_pin_raises_schema_error(pin_text, pin_at):
    pin_at.write_text(pin_text[: len(pin_text) // 2], encoding="utf-8")
    with pytest.raises(SchemaError):
        seedtable.load_pin()


def test_check_flag_reports_stale_pin(pin_at, capsys, monkeypatch):
    """``--check`` passes on the pin just written and exits 1 once the
    training corpus (here: a four-sample stand-in) moves under it."""
    from repro.datasets import load_mbi

    samples = [(s.name, s.source) for s in list(load_mbi())[:5]]
    monkeypatch.setattr(seedtable, "training_corpus", lambda: samples[:4])
    assert seedtable.main([]) == 0
    assert seedtable.main(["--check"]) == 0
    monkeypatch.setattr(seedtable, "training_corpus", lambda: samples[1:])
    assert seedtable.main(["--check"]) == 1
    assert "stale: key, table differ" in capsys.readouterr().out
