"""Self-describing textual model files with bit-exact round-tripping.

Layout, line by line:

    ddosflow-model 1
    manifest {... one-line JSON: architecture, n_features, extras ...}
    tensor <dotted-name> <ndim> <dim0> [<dim1>]
    <values, one row per line, 17-significant-digit decimals>
    ...
    end

Every trainable tensor and then every batch-norm running statistic is
written, and read back in that order. The 17-digit decimal form reproduces
each float64 exactly, and the manifest is serialized with sorted keys, so
save -> load -> save yields byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from ..errors import ConfigError
from .model import ArchitectureConfig, ModelParams, _alloc_model, named_parameters, named_state

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "ddosflow-model"


def _format_value(v: float) -> str:
    return f"{v:.17g}"


def _header(name: str, tensor: np.ndarray) -> str:
    return f"tensor {name} {tensor.ndim} " + " ".join(str(d) for d in tensor.shape)


def save_model(model: ModelParams, path: str, extra: dict | None = None) -> None:
    """Write the model (and optional extra manifest entries) to ``path``.

    ``extra`` must be JSON-serializable; it round-trips through
    :func:`load_model` unchanged. Keys "architecture" and "n_features"
    are reserved.
    """
    manifest: dict = dict(extra or {})
    for reserved in ("architecture", "n_features", "format"):
        if reserved in manifest:
            raise ValueError(f"manifest key {reserved!r} is reserved")
    arch = dataclasses.asdict(model.arch)
    arch["block_widths"] = list(model.arch.block_widths)
    manifest["architecture"] = arch
    manifest["n_features"] = model.n_features

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_MAGIC} {FORMAT_VERSION}\n")
        fh.write("manifest " + json.dumps(manifest, sort_keys=True) + "\n")
        for name, tensor in named_parameters(model) + named_state(model):
            fh.write(_header(name, tensor) + "\n")
            rows = tensor if tensor.ndim == 2 else tensor.reshape(1, -1)
            for row in rows:
                fh.write(" ".join(_format_value(v) for v in row) + "\n")
        fh.write("end\n")


def load_model(path: str) -> tuple[ModelParams, dict]:
    """Read a model file by the rules that wrote it; returns ``(model, extra_manifest)``.

    Raises:
        ValueError: naming the file: a file that is not UTF-8 or has an
            unrecognized magic/version; a manifest that is not a JSON object,
            or whose ``architecture`` or ``n_features`` is missing or breaks
            the config's type and range rules, or whose ``architecture``
            lacks a field that :func:`save_model` writes (the key named); a
            line that is not the next tensor header, in the order
            :func:`save_model` writes them, or not ``end`` as the last line;
            a truncated tensor; or a malformed or non-finite value (the line
            named).
    """
    from ..config import _coerce, _from_dict  # config imports ddosflow.nn

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a model file (not UTF-8)") from None
    if not lines or not lines[0].startswith(_MAGIC):
        raise ValueError(f"{path}: not a model file")
    version = lines[0].split()[-1]
    if version != str(FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported format version {version}")
    if len(lines) < 2 or not lines[1].startswith("manifest "):
        raise ValueError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(lines[1][len("manifest "):])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    try:
        given = manifest.pop("architecture")
        if isinstance(given, dict):  # save_model writes every field
            for f in dataclasses.fields(ArchitectureConfig):
                if f.name not in given:
                    raise ConfigError(f"architecture lacks {f.name!r}")
        arch = _from_dict(ArchitectureConfig(), given, "architecture")
        n_features = manifest.pop("n_features")
        if _coerce(n_features, 0) < 1:
            raise TypeError(f"expected an integer of at least 1, got {n_features!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks {exc}") from None
    except TypeError as exc:  # from n_features: _from_dict raises ConfigErrors
        raise ValueError(f"{path}: manifest rejected: n_features: {exc}") from None
    except ConfigError as exc:
        raise ValueError(f"{path}: manifest rejected: {exc}") from None
    model = _alloc_model(n_features, arch)

    pos = 2
    for name, target in named_parameters(model) + named_state(model):
        header = _header(name, target)
        if lines[pos : pos + 1] != [header]:
            raise ValueError(f"{path}: line {pos + 1}: expected {header!r}")
        n_rows, n_cols = target.shape if target.ndim == 2 else (1, target.size)
        block = lines[pos + 1 : pos + 1 + n_rows]
        if len(block) != n_rows:
            raise ValueError(f"{path}: truncated tensor {name!r}")
        values = np.empty((n_rows, n_cols))
        for i, row in enumerate(block):
            cells = row.split()
            try:
                if len(cells) != n_cols:
                    raise ValueError(f"tensor {name!r} has ragged rows")
                values[i] = [float(v) for v in cells]
                if not np.isfinite(values[i]).all():
                    raise ValueError(f"tensor {name!r} holds a non-finite value")
            except ValueError as exc:
                raise ValueError(f"{path}: line {pos + 2 + i}: {exc}") from None
        target[...] = values.reshape(target.shape)
        pos += 1 + n_rows
    if lines[pos:] != ["end"]:
        at = pos + 1 + (lines[pos : pos + 1] == ["end"])  # the first line out of place
        raise ValueError(f"{path}: line {at}: expected 'end' as the last line")
    return model, manifest
