"""Versioned single-file serialization of rule models.

Layout:  magic "TJWDMODL" | u32 header length | canonical JSON header |
float64 little-endian array blobs in header order.

All real numbers live in the binary section (scalars are an 8-double blob),
so a load/save round-trip reproduces decision values bit-for-bit. The JSON
header is emitted with sorted keys and no timestamps, making repeated saves
of one model byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .detection import RuleModel
from .errors import IoError, SchemaError, VersionMismatch
from .features import AGGREGATIONS, LOG_FLOOR, FeatureConfig, Scaler
from .svm import SvmModel

MAGIC = b"TJWDMODL"
FORMAT_VERSION = 1

_SCALARS = ("bias", "C", "gamma", "A", "B", "tau_right", "tau_wrong")
_HEADER_TYPES = {"rule_id": str, "feature_config": dict, "config_fingerprint": str,
                 "dataset_hash": str, "train_seed": int, "n_support": int, "dim": int,
                 "arrays": list}


def save_model(rule_model: RuleModel, path) -> None:
    """Atomically write a rule model: a unique temp file in the target
    directory, fsynced, then renamed over the target."""
    m = rule_model.svm
    dim = m.support_vectors.shape[1]
    arrays = [
        ("scalars", np.array([
            m.bias, m.C, m.gamma,
            rule_model.calibration[0], rule_model.calibration[1],
            rule_model.tau_right, rule_model.tau_wrong,
        ])),
        ("log_floor", np.array([LOG_FLOOR])),
        ("scaler_mean", m.scaler.mean),
        ("scaler_std", m.scaler.std),
        ("support_vectors", m.support_vectors),
        ("dual_coefs", m.dual_coefs),
    ]
    header = {
        "format_version": FORMAT_VERSION,
        "rule_id": rule_model.rule_id,
        "feature_config": rule_model.feature_config.header(),
        "config_fingerprint": rule_model.feature_config.fingerprint(),
        "dataset_hash": rule_model.dataset_hash,
        "train_seed": rule_model.train_seed,
        "n_support": int(m.support_vectors.shape[0]),
        "dim": int(dim),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for _, arr in arrays:
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()

    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o644)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_model(path) -> RuleModel:
    """Read a model file; raises VersionMismatch for unreadable versions and
    SchemaError for malformed headers, inconsistent shapes, non-finite or
    out-of-range values, or a feature config, log floor, fingerprint or
    dimension other than those train writes.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc

    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise SchemaError(f"{path}: not a rule-model file")
    header_len = struct.unpack_from("<I", data, len(MAGIC))[0]
    body_start = len(MAGIC) + 4 + header_len
    if body_start > len(data):
        raise SchemaError(f"{path}: truncated header")
    try:
        header = json.loads(data[len(MAGIC) + 4: body_start])
    except ValueError as exc:
        raise SchemaError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(version, FORMAT_VERSION)
    for key, kind in _HEADER_TYPES.items():
        if type(header.get(key)) is not kind:
            raise SchemaError(f"{path}: header field {key} missing or not {kind.__name__}")
    # compared as JSON, so true is not 1 and 4000 is not 4000.0
    stored = json.dumps(header["feature_config"], sort_keys=True)
    config = next((c for c in map(FeatureConfig, AGGREGATIONS)
                   if json.dumps(c.header(), sort_keys=True) == stored), None)
    if config is None or config.fingerprint() != header["config_fingerprint"]:
        raise SchemaError(f"{path}: feature config or its fingerprint is not one train writes")
    if header["dim"] != config.dim:
        raise SchemaError(f"{path}: dim {header['dim']} is not the {config.dim} of its config")

    arrays = {}
    offset = body_start
    for spec in header["arrays"]:
        if not (isinstance(spec, dict) and type(spec.get("name")) is str
                and type(spec.get("shape")) is list
                and all(type(n) is int and n >= 0 for n in spec["shape"])):
            raise SchemaError(f"{path}: bad array spec {spec!r}")
        count = math.prod(spec["shape"])
        end = offset + 8 * count
        if end > len(data):
            raise SchemaError(f"{path}: array {spec['name']} overruns file")
        arrays[spec["name"]] = np.frombuffer(
            data[offset:end], dtype="<f8"
        ).reshape(spec["shape"]).astype(np.float64)
        offset = end
    if offset != len(data):
        raise SchemaError(f"{path}: trailing bytes after arrays")

    for name in ("scalars", "log_floor", "scaler_mean", "scaler_std",
                 "support_vectors", "dual_coefs"):
        if name not in arrays:
            raise SchemaError(f"{path}: missing array {name}")
        if not np.isfinite(arrays[name]).all():
            raise SchemaError(f"{path}: array {name} holds non-finite values")

    sv = arrays["support_vectors"]
    dc = arrays["dual_coefs"]
    if sv.ndim != 2 or dc.ndim != 1 or sv.shape[0] != dc.shape[0]:
        raise SchemaError(
            f"{path}: {dc.shape[0]} dual coefficients for {sv.shape[0]} support vectors"
        )
    if sv.shape != (header["n_support"], header["dim"]):
        raise SchemaError(f"{path}: support vector shape {sv.shape} contradicts header")
    if arrays["scaler_mean"].shape != (header["dim"],) or \
            arrays["scaler_std"].shape != (header["dim"],):
        raise SchemaError(f"{path}: scaler shape contradicts dimension {header['dim']}")
    if arrays["scalars"].shape != (len(_SCALARS),) or arrays["log_floor"].tolist() != [LOG_FLOOR]:
        raise SchemaError(f"{path}: expected {len(_SCALARS)} scalars and log floor {LOG_FLOOR}")
    if (arrays["scaler_std"] < 0).any():
        raise SchemaError(f"{path}: negative scaler standard deviation")

    scalars = dict(zip(_SCALARS, arrays["scalars"]))
    if scalars["C"] <= 0 or scalars["gamma"] <= 0:
        raise SchemaError(f"{path}: C and gamma must be positive")
    try:
        model = SvmModel(
            support_vectors=sv,
            dual_coefs=dc,
            bias=float(scalars["bias"]),
            C=float(scalars["C"]),
            gamma=float(scalars["gamma"]),
            scaler=Scaler(mean=arrays["scaler_mean"], std=arrays["scaler_std"]),
        )
        return RuleModel(
            rule_id=header["rule_id"],
            svm=model,
            calibration=(float(scalars["A"]), float(scalars["B"])),
            tau_right=float(scalars["tau_right"]),
            tau_wrong=float(scalars["tau_wrong"]),
            feature_config=config,
            dataset_hash=header["dataset_hash"],
            train_seed=header["train_seed"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
