"""Versioned single-file serialization of rule models.

Layout:  magic "TJWDMODL" | u32 header length | canonical JSON header |
float64 little-endian array blobs, in the order of the header's `arrays`
(scaler_mean and scaler_std are `RuleModel.scaler`, as in every version-1 file).
`load_model` accepts a header only if it equals, as JSON (types and extra
keys count, key order and whitespace do not), the one `save_model` writes
for the file's rule_id, dataset_hash, train_seed, n_support (>= 1) and
aggregation. It then checks the body's size, finiteness and log floor,
scaler std >= 0, C and gamma > 0, and the thresholds `RuleModel` accepts.

All real numbers live in the binary section (scalars is a 7-double blob),
so a load/save round-trip reproduces decision values bit-for-bit. The JSON
header is emitted with sorted keys and no timestamps, making repeated saves
of one model byte-identical. Saves go through `dataset.write_file`, all or nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import struct

import numpy as np

from .dataset import write_file
from .detection import RuleModel
from .errors import IoError, PersistenceError
from .features import AGGREGATIONS, LOG_FLOOR, FeatureConfig, Scaler
from .svm import SvmModel

MAGIC = b"TJWDMODL"
FORMAT_VERSION = 1

_SCALARS = ("bias", "C", "gamma", "A", "B", "tau_right", "tau_wrong")


def _header(rule_id, config: FeatureConfig, dataset_hash, train_seed, n_support) -> dict:
    """The header train writes; `arrays` lists each blob in file order."""
    dim = config.dim
    shapes = (("scalars", [len(_SCALARS)]), ("log_floor", [1]), ("scaler_mean", [dim]),
              ("scaler_std", [dim]), ("support_vectors", [n_support, dim]),
              ("dual_coefs", [n_support]))
    return {"format_version": FORMAT_VERSION, "rule_id": rule_id,
            "feature_config": config.header(), "config_fingerprint": config.fingerprint(),
            "dataset_hash": dataset_hash, "train_seed": train_seed, "n_support": n_support,
            "dim": dim, "arrays": [{"name": name, "shape": shape} for name, shape in shapes]}


def _differing(stored: dict, expected: dict) -> list:
    """The keys, sorted, that one header lacks or whose JSON values differ."""
    stored, expected = ({key: json.dumps(value, sort_keys=True) for key, value in h.items()}
                        for h in (stored, expected))
    return sorted(key for key in stored.keys() | expected.keys()
                  if stored.get(key) != expected.get(key))


def save_model(rule_model: RuleModel, path) -> None:
    """Write a rule model through `dataset.write_file`: all or nothing, IoError on failure."""
    m, scaler = rule_model.svm, rule_model.scaler
    arrays = (
        [m.bias, m.C, m.gamma, *rule_model.calibration, rule_model.tau_right,
         rule_model.tau_wrong],
        [LOG_FLOOR], scaler.mean, scaler.std, m.support_vectors, m.dual_coefs,
    )
    header = _header(rule_model.rule_id, rule_model.feature_config, rule_model.dataset_hash,
                     rule_model.train_seed, len(m.support_vectors))
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")

    write_file(path, b"".join([MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, *(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays)]))


def load_model(path) -> RuleModel:
    """Read a model file; raises PersistenceError unless the format version
    is FORMAT_VERSION, the header equals, as JSON, the one `save_model`
    writes for the file's rule_id, dataset_hash, train_seed, n_support (>= 1)
    and aggregation (the first of AGGREGATIONS if missing or unknown; the error
    names the first key that differs from that header), and the body has the
    size its arrays need, finite values, log floor LOG_FLOOR, scaler std >= 0,
    C and gamma > 0, and thresholds RuleModel accepts."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc

    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise PersistenceError(f"{path}: not a rule-model file")
    header_len = struct.unpack_from("<I", data, len(MAGIC))[0]
    body_start = len(MAGIC) + 4 + header_len
    if body_start > len(data):
        raise PersistenceError(f"{path}: truncated header")
    try:
        header = json.loads(data[len(MAGIC) + 4: body_start])
    except ValueError as exc:
        raise PersistenceError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise PersistenceError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"model format version {version} not readable (expected {FORMAT_VERSION})")
    for key, kind in (("rule_id", str), ("dataset_hash", str), ("train_seed", int),
                      ("n_support", int)):
        if type(header.get(key)) is not kind:
            raise PersistenceError(f"{path}: header field {key} missing or not {kind.__name__}")
    if header["n_support"] < 1:
        raise PersistenceError(
            f"{path}: n_support {header['n_support']} < 1, which train never writes")
    stored = header.get("feature_config")
    aggregation = stored.get("aggregation") if isinstance(stored, dict) else None
    config = FeatureConfig(aggregation if aggregation in AGGREGATIONS else AGGREGATIONS[0])
    # compared as JSON, so true is not 1 and 4000 is not 4000.0
    wrong = _differing(header, _header(header["rule_id"], config, header["dataset_hash"],
                                       header["train_seed"], header["n_support"]))
    if wrong:
        raise PersistenceError(f"{path}: header field {wrong[0]} differs from the one train writes")
    sizes = [math.prod(spec["shape"]) for spec in header["arrays"]]
    if len(data) - body_start != 8 * sum(sizes):
        raise PersistenceError(f"{path}: body is not the {8 * sum(sizes)} bytes its arrays need")
    body = np.frombuffer(data, "<f8", offset=body_start).astype(np.float64)
    if not np.isfinite(body).all():
        raise PersistenceError(f"{path}: arrays hold non-finite values")
    scalars, log_floor, mean, std, sv, dc = (
        body[end - size:end].reshape(spec["shape"])
        for spec, size, end in zip(header["arrays"], sizes, itertools.accumulate(sizes)))
    if log_floor.tolist() != [LOG_FLOOR]:
        raise PersistenceError(f"{path}: log floor is not {LOG_FLOOR}")
    if (std < 0).any():
        raise PersistenceError(f"{path}: negative scaler standard deviation")

    scalars = dict(zip(_SCALARS, scalars))
    if scalars["C"] <= 0 or scalars["gamma"] <= 0:
        raise PersistenceError(f"{path}: C and gamma must be positive")
    try:
        model = SvmModel(
            support_vectors=sv,
            dual_coefs=dc,
            bias=float(scalars["bias"]),
            C=float(scalars["C"]),
            gamma=float(scalars["gamma"]),
        )
        return RuleModel(
            rule_id=header["rule_id"],
            svm=model,
            calibration=(float(scalars["A"]), float(scalars["B"])),
            tau_right=float(scalars["tau_right"]),
            tau_wrong=float(scalars["tau_wrong"]),
            feature_config=config,
            scaler=Scaler(mean=mean, std=std),
            dataset_hash=header["dataset_hash"],
            train_seed=header["train_seed"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise PersistenceError(f"{path}: {exc}") from exc
