"""Self-describing textual model files with bit-exact round-tripping.

Layout, line by line:

    ddosflow-model 1
    manifest {... one-line JSON: architecture, n_features, extras ...}
    tensor <dotted-name> <ndim> <dim0> [<dim1>]
    <values, one row per line, 17-significant-digit decimals>
    ...
    end

Every trainable tensor and every batch-norm running statistic is written.
The 17-digit decimal form reproduces each float64 exactly, and the
manifest is serialized with sorted keys, so save -> load -> save yields
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .model import ArchitectureConfig, ModelParams, _alloc_model, named_parameters, named_state

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "ddosflow-model"


def _format_value(v: float) -> str:
    return f"{v:.17g}"


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
            dims = " ".join(str(d) for d in tensor.shape)
            fh.write(f"tensor {name} {tensor.ndim} {dims}\n")
            rows = tensor if tensor.ndim == 2 else tensor.reshape(1, -1)
            for row in rows:
                fh.write(" ".join(_format_value(v) for v in row) + "\n")
        fh.write("end\n")


def load_model(path: str) -> tuple[ModelParams, dict]:
    """Read a model file; returns ``(model, extra_manifest)``.

    Raises:
        ValueError: a file that is not UTF-8 or has an unrecognized
            magic/version, a manifest that is not a JSON object, lacks
            ``architecture`` or ``n_features`` or holds an architecture that
            :class:`ArchitectureConfig` rejects, a malformed tensor block or
            a non-finite value (named with its line), or tensors that do not
            match the declared architecture. Every message names the file.
    """
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
        arch_dict = dict(manifest.pop("architecture"))
        arch_dict["block_widths"] = tuple(arch_dict["block_widths"])
        arch = ArchitectureConfig(**arch_dict)
        n_features = int(manifest.pop("n_features"))
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: manifest rejected: {exc}") from None
    model = _alloc_model(n_features, arch)
    expected = dict(named_parameters(model) + named_state(model))

    seen: set[str] = set()
    pos = 2
    while pos < len(lines):
        line = lines[pos]
        if line == "end":
            break
        parts = line.split()
        if len(parts) < 4 or parts[0] != "tensor" or not "".join(parts[2:]).isdecimal():
            raise ValueError(f"{path}: malformed tensor header at line {pos + 1}")
        name, ndim = parts[1], int(parts[2])
        shape = tuple(int(d) for d in parts[3 : 3 + ndim])
        if name not in expected:
            raise ValueError(f"{path}: unknown tensor {name!r}")
        if name in seen:
            raise ValueError(f"{path}: tensor {name!r} repeated at line {pos + 1}")
        target = expected[name]
        if target.shape != shape:
            raise ValueError(
                f"{path}: tensor {name!r} has shape {shape}, expected {target.shape}"
            )
        n_rows, n_cols = shape if ndim == 2 else (1, *shape)
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
        target[...] = values.reshape(shape)
        seen.add(name)
        pos += 1 + n_rows
    else:
        raise ValueError(f"{path}: missing end marker")

    missing = set(expected) - seen
    if missing:
        raise ValueError(f"{path}: missing tensors: {sorted(missing)}")
    return model, manifest
