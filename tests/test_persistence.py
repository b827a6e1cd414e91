import json
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tajweed import cli, features, persistence, svm
from tajweed.errors import IoError, PersistenceError, TajweedError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module", params=features.AGGREGATIONS)
def any_model(request, small_corpus, small_model):
    """The small rule model under each aggregation; flatten's 27,860-dim
    support vectors make most of its body."""
    if request.param == small_model.feature_config.aggregation:
        return small_model
    root, entries = small_corpus
    model, _ = cli.train_rule_model(entries, root, "edgham_meem", 1.0, 0.1, seed=5,
                                    config=features.FeatureConfig(request.param))
    return model


def test_round_trip_decision_values_bit_exact(any_model, tmp_path):
    path = str(tmp_path / "m.model")
    persistence.save_model(any_model, path)
    loaded = persistence.load_model(path)
    rng = np.random.default_rng(17)
    X = rng.uniform(-30, 5, (100, any_model.feature_config.dim))
    before = svm.decision_values(any_model.svm, X)
    after = svm.decision_values(loaded.svm, X)
    assert (before == after).all()
    assert loaded.tau_right == any_model.tau_right
    assert loaded.tau_wrong == any_model.tau_wrong
    assert loaded.calibration == any_model.calibration
    assert loaded.rule_id == any_model.rule_id
    assert loaded.feature_config == any_model.feature_config


def test_repeated_saves_byte_identical(small_model, tmp_path):
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    persistence.save_model(small_model, p1)
    persistence.save_model(small_model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_save_load_save_stable(any_model, tmp_path):
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    persistence.save_model(any_model, p1)
    persistence.save_model(persistence.load_model(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def _patch_header(path, mutate):
    data = open(path, "rb").read()
    hlen = struct.unpack_from("<I", data, 8)[0]
    header = json.loads(data[12:12 + hlen])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return data[:8] + struct.pack("<I", len(new_header)) + new_header + data[12 + hlen:]


def test_version_mismatch(small_model, tmp_path):
    path = str(tmp_path / "m.model")
    persistence.save_model(small_model, path)
    blob = _patch_header(path, lambda h: h.update(format_version=999))
    bad = tmp_path / "bad.model"
    bad.write_bytes(blob)
    expected = persistence.FORMAT_VERSION
    with pytest.raises(PersistenceError,
                       match=rf"^model format version 999 not readable \(expected {expected}\)$"):
        persistence.load_model(str(bad))


def test_schema_error_on_shape_mismatch(small_model, tmp_path):
    path = str(tmp_path / "m.model")
    persistence.save_model(small_model, path)

    def shrink_dual(header):
        for spec in header["arrays"]:
            if spec["name"] == "dual_coefs":
                spec["shape"] = [spec["shape"][0] - 1]

    bad = tmp_path / "bad.model"
    bad.write_bytes(_patch_header(path, shrink_dual))
    with pytest.raises(PersistenceError, match="header field arrays differs from the one train"):
        persistence.load_model(str(bad))


def test_schema_error_on_wrong_magic(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"NOTMODEL" + b"\x00" * 32)
    with pytest.raises(PersistenceError, match="not a rule-model file"):
        persistence.load_model(str(bad))


def test_truncated_file(small_model, tmp_path):
    path = str(tmp_path / "m.model")
    persistence.save_model(small_model, path)
    blob = open(path, "rb").read()
    bad = tmp_path / "bad.model"
    bad.write_bytes(blob[:-16])
    with pytest.raises(PersistenceError, match=r"body is not the \d+ bytes its arrays need"):
        persistence.load_model(str(bad))


def test_missing_file(tmp_path):
    with pytest.raises(IoError):
        persistence.load_model(str(tmp_path / "nope.model"))


def test_no_leftover_temp_file(small_model, tmp_path):
    path = tmp_path / "m.model"
    persistence.save_model(small_model, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.model"]


def refuse(*args):
    raise OSError("refused")


@pytest.mark.parametrize("fail", ["directory", "fsync", "replace"])
def test_failed_save_leaves_no_temp_file(small_model, tmp_path, monkeypatch, fail):
    target = tmp_path / "m.model"
    if fail == "directory":
        target.mkdir()                  # os.replace cannot overwrite a directory
    else:
        target.write_bytes(b"sentinel")  # an earlier model, kept whole
        monkeypatch.setattr(os, fail, refuse)
    with pytest.raises(IoError):
        persistence.save_model(small_model, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.model"]
    assert target.is_dir() if fail == "directory" else target.read_bytes() == b"sentinel"


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_model_mode_is_what_open_gives(small_model, tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        persistence.save_model(small_model, str(tmp_path / "m.model"))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "m.model").st_mode) == mode


def _relaid(blob, edit):
    """A saved model whose list of (array spec, array bytes) went through edit."""
    hlen = struct.unpack_from("<I", blob, 8)[0]
    header, offset = json.loads(blob[12:12 + hlen]), 12 + hlen
    parts = []
    for spec in header["arrays"]:
        end = offset + 8 * int(np.prod(spec["shape"]))
        parts.append((spec, blob[offset:end]))
        offset = end
    parts = edit(parts)
    header["arrays"] = [spec for spec, _ in parts]
    # n_support follows the support_vectors rows, as save_model writes it
    header["n_support"] = next(spec["shape"][0] for spec, _ in parts
                               if spec["name"] == "support_vectors")
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<I", len(new)) + new + b"".join(b for _, b in parts)


def _patch_array(blob, name, mutate):
    """Apply `mutate` in place to one float64 array of a saved model."""
    def edit(spec, data):
        values = np.frombuffer(data, "<f8").copy()
        if spec["name"] == name:
            mutate(values)
        return spec, values.tobytes()

    return _relaid(blob, lambda parts: [edit(*part) for part in parts])


@pytest.fixture(scope="module")
def model_path(small_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("blob") / "m.model"
    persistence.save_model(small_model, str(path))
    return str(path)


@pytest.fixture(scope="module")
def model_blob(model_path):
    return open(model_path, "rb").read()


@pytest.mark.parametrize("key", ["dim", "arrays", "n_support", "rule_id", "feature_config",
                                 "config_fingerprint", "dataset_hash", "train_seed"])
def test_missing_header_key_is_schema_error(model_path, tmp_path, key):
    bad = tmp_path / "bad.model"
    bad.write_bytes(_patch_header(model_path, lambda h: h.pop(key)))
    with pytest.raises(PersistenceError, match=f"header field {key} "):
        persistence.load_model(str(bad))


@pytest.mark.parametrize("name, index, value, message", [
    ("dual_coefs", 0, np.nan, "arrays hold non-finite values"),
    ("support_vectors", 3, np.inf, "arrays hold non-finite values"),
    ("scaler_std", 5, -1.0, "negative scaler standard deviation"),
    ("scalars", 5, 0.3, r"tau_right must lie in \[0.5, 1\]"),
    ("scalars", 2, 0.0, "C and gamma must be positive"),
    ("scalars", 1, 0.0, "C and gamma must be positive"),
    ("scalars", 1, -1.0, "C and gamma must be positive"),
], ids=["dual_coefs-0-nan", "support_vectors-3-inf", "scaler_std-5--1.0", "scalars-5-0.3",
        "scalars-2-0.0", "scalars-1-0.0", "scalars-1--1.0"])
def test_out_of_range_arrays_are_schema_errors(model_blob, tmp_path, name, index, value, message):
    bad = tmp_path / "bad.model"
    bad.write_bytes(_patch_array(model_blob, name, lambda v: v.__setitem__(index, value)))
    with pytest.raises(PersistenceError, match=message):
        persistence.load_model(str(bad))


@pytest.mark.parametrize("change", [{"hop_ms": 0}, {"frame_ms": 0}, {"log_floor": 0.0},
                                    {"log_floor": -1e-10}])
def test_unusable_feature_config_is_schema_error(small_model, model_path, tmp_path, change):
    """Rejected even when the crafted header's fingerprint matches its config."""
    stored = {**small_model.feature_config.header(), **change}
    log_floor = stored.pop("log_floor", features.LOG_FLOOR)

    def craft(header):
        header["feature_config"] = stored
        header["config_fingerprint"] = oracles.config_fingerprint(stored, log_floor)

    blob = _patch_array(_patch_header(model_path, craft), "log_floor",
                        lambda v: v.__setitem__(0, log_floor))
    bad = tmp_path / "bad.model"
    bad.write_bytes(blob)
    with pytest.raises(PersistenceError, match="header field config_fingerprint differs"):
        persistence.load_model(str(bad))


def _reshaped(name, shape):
    return lambda parts: [({**spec, "shape": shape} if spec["name"] == name else spec, data)
                          for spec, data in parts]


@pytest.mark.parametrize("edit, message", [
    (lambda parts: parts[::-1], "header field arrays differs"),
    (lambda parts: parts + [({"name": "junk", "shape": [1]}, struct.pack("<d", 1.0))],
     "header field arrays differs"),
    (_reshaped("scalars", [7.0]), "header field arrays differs"),
    (_reshaped("log_floor", [True]), "header field arrays differs"),
    (lambda parts: parts[:-1] + [(parts[-1][0], parts[-1][1][:-8])],
     r"body is not the \d+ bytes its arrays need"),
    (lambda parts: parts[:4] + [({**spec, "shape": [0, *spec["shape"][1:]]}, b"")
                                for spec, _ in parts[4:]], "n_support 0 < 1"),
], ids=["reversed", "extra_array", "float_shape", "bool_shape", "double_short",
        "no_support_vectors"])
def test_layout_other_than_train_writes_is_schema_error(model_blob, tmp_path, edit, message):
    """Only the six arrays train writes, in its order, with its int shapes,
    over exactly their bytes and with at least one support vector, load."""
    bad = tmp_path / "bad.model"
    bad.write_bytes(_relaid(model_blob, edit))
    with pytest.raises(PersistenceError, match=message):
        persistence.load_model(str(bad))


@pytest.mark.parametrize("edit, message", [
    (lambda path: persistence.MAGIC + struct.pack("<I", 2) + b"[]",
     "header is not a JSON object"),
    (lambda path: _patch_array(open(path, "rb").read(), "log_floor",
                               lambda v: v.__setitem__(0, 1e-9)), "log floor is not 1e-10"),
    (lambda path: _patch_header(path, lambda h: h.update(rule_id="")),
     "rule_id must be a non-empty identifier"),
    (lambda path: _patch_array(open(path, "rb").read(), "scalars",
                               lambda v: v.__setitem__(6, 0.3)), "tau_wrong must lie in [0.5, 1]"),
], ids=["array_header", "log_floor", "empty_rule_id", "tau_wrong"])
def test_refused_model_exits_8_through_detect(model_path, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.model"
    bad.write_bytes(edit(model_path))
    assert cli.main(["detect", "--audio", "x.wav", "--rule", "edgham_meem",
                     "--model", str(bad)]) == 8
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_relaid_identity_loads(model_blob, tmp_path):
    path = tmp_path / "same.model"
    path.write_bytes(_relaid(model_blob, lambda parts: parts))
    assert path.read_bytes() == model_blob
    persistence.load_model(str(path))


def test_stale_fingerprint_is_schema_error(model_path, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(_patch_header(model_path, lambda h: h.update(config_fingerprint="0" * 64)))
    with pytest.raises(PersistenceError, match="header field config_fingerprint differs"):
        persistence.load_model(str(bad))


def _load_or_tajweed_error(path, blob):
    path.write_bytes(blob)
    try:
        persistence.load_model(str(path))
    except TajweedError:
        pass


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_header_raises_only_tajweed_errors(model_path, tmp_path_factory, data):
    def mutate(header):
        target = header
        if data.draw(st.booleans()):
            target = header[data.draw(st.sampled_from(["feature_config", "arrays"]))]
            if isinstance(target, list):
                target = target[data.draw(st.integers(0, len(target) - 1))]
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(JSON_VALUES)

    blob = _patch_header(model_path, mutate)
    _load_or_tajweed_error(tmp_path_factory.getbasetemp() / "fuzz.model", blob)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_header_loads_only_as_train_writes_it(model_path, tmp_path_factory, data):
    """An added key, or any change to the JSON of a field train derives from
    the free ones, is refused, even where Python calls the values equal."""
    def mutate(header):
        before = json.dumps(header, sort_keys=True)
        if data.draw(st.booleans(), label="add a key"):
            header[data.draw(st.text(max_size=8).filter(lambda k: k not in header))] = \
                data.draw(JSON_VALUES)
            return
        target, slot = header, data.draw(st.sampled_from(
            ["format_version", "feature_config", "config_fingerprint", "dim", "arrays"]))
        while isinstance(target[slot], (dict, list)) and target[slot] and data.draw(st.booleans()):
            target = target[slot]
            slot = data.draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                             else range(len(target))))
        # every int made a float: 1 == 1.0 in Python, not in JSON
        twin = json.loads(json.dumps(target[slot]), parse_int=float)
        target[slot] = data.draw(JSON_VALUES | st.just(twin))
        assume(json.dumps(header, sort_keys=True) != before)

    path = tmp_path_factory.getbasetemp() / "fuzz.model"
    path.write_bytes(_patch_header(model_path, mutate))
    with pytest.raises(PersistenceError):
        persistence.load_model(str(path))


@pytest.mark.parametrize("change", [{"note": "x"}, {"format_version": True},
                                    {"format_version": 1.0}, {"config_fingerprint": "0" * 64}],
                         ids=["extra_key", "version_true", "version_float", "stale_fingerprint"])
def test_header_train_never_writes_names_its_key(any_model, tmp_path, change):
    path = str(tmp_path / "m.model")
    persistence.save_model(any_model, path)
    bad = tmp_path / "bad.model"
    bad.write_bytes(_patch_header(path, lambda h: h.update(change)))
    with pytest.raises(PersistenceError, match=f"header field {next(iter(change))} "):
        persistence.load_model(str(bad))


def test_flatten_header_with_pooled_fields_names_a_key_of_the_flatten_header(any_model,
                                                                            tmp_path):
    """A flatten file with the pooled dim, or a pooled file relabelled flatten,
    is checked against the flatten header and names a key that differs from it."""
    pooled, flat = (features.FeatureConfig(agg) for agg in features.AGGREGATIONS)
    path = str(tmp_path / "m.model")
    persistence.save_model(any_model, path)

    def craft(header):
        if any_model.feature_config == flat:
            header["dim"] = pooled.dim
        else:
            header["feature_config"]["aggregation"] = flat.aggregation

    blob = _patch_header(path, craft)
    header = json.loads(blob[12:12 + struct.unpack_from("<I", blob, 8)[0]])
    differing = persistence._differing(header, persistence._header(
        header["rule_id"], flat, header["dataset_hash"], header["train_seed"],
        header["n_support"]))
    assert differing == (["dim"] if any_model.feature_config == flat
                         else ["arrays", "config_fingerprint", "dim"])
    bad = tmp_path / "bad.model"
    bad.write_bytes(blob)
    with pytest.raises(PersistenceError, match=f"header field {differing[0]} "):
        persistence.load_model(str(bad))


def test_header_in_other_whitespace_and_key_order_loads(small_model, model_blob, tmp_path):
    hlen = struct.unpack_from("<I", model_blob, 8)[0]
    header = json.loads(model_blob[12:12 + hlen])
    header = dict(reversed(header.items()))
    header["feature_config"] = dict(reversed(header["feature_config"].items()))
    text = json.dumps(header, indent=2).encode()
    path = tmp_path / "pretty.model"
    path.write_bytes(model_blob[:8] + struct.pack("<I", len(text)) + text + model_blob[12 + hlen:])
    assert persistence.load_model(str(path)).feature_config == small_model.feature_config


@given(flips=st.lists(st.tuples(st.integers(0, 2**31), st.integers(1, 255)),
                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_flipped_bytes_raise_only_tajweed_errors(model_blob, tmp_path_factory, flips):
    blob = bytearray(model_blob)
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    _load_or_tajweed_error(tmp_path_factory.getbasetemp() / "fuzz.model", bytes(blob))
