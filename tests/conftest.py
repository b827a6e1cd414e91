import os

import numpy as np
import pytest

from tajweed import cli, dataset, features, svm


def small_recipe():
    recipe = dataset.default_recipe()
    recipe.update(clips_per_class=14, negatives_per_rule=8,
                  verses_per_rule=3, event_free_verses_per_rule=3)
    return recipe


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Modest synthetic corpus shared by detection/dataset/cli tests."""
    out = tmp_path_factory.mktemp("corpus")
    entries = dataset.synth_generate(small_recipe(), seed=42, out_dir=str(out))
    entries = dataset.split(entries, 0.7, seed=7)
    dataset.save_manifest(entries, os.path.join(out, dataset.MANIFEST_NAME))
    return str(out), entries


@pytest.fixture(scope="session")
def small_model(small_corpus):
    root, entries = small_corpus
    model, _ = cli.train_rule_model(entries, root, "edgham_meem", 1.0, 0.1, seed=5)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def decision_calls(monkeypatch):
    """The X of every svm.decision_values call made while the test runs."""
    calls, inner = [], svm.decision_values
    monkeypatch.setattr(svm, "decision_values",
                        lambda model, X: calls.append(X) or inner(model, X))
    return calls


@pytest.fixture
def spectrum_inputs(monkeypatch):
    """A copy of the frames of every features.power_spectrum call made while
    the test runs (frame_log_energies Hamming-windows them into rows
    zero-padded to FFT_SIZE first)."""
    calls, inner = [], features.power_spectrum
    monkeypatch.setattr(features, "power_spectrum",
                        lambda frames, **kw: calls.append(frames.copy()) or inner(frames, **kw))
    return calls
