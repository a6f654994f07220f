"""Text model files: byte-stable round trips and malformed-input rejection."""

import re
from pathlib import Path

import numpy as np
import pytest

from ddosflow.nn import (
    ArchitectureConfig,
    init_model,
    load_model,
    named_parameters,
    save_model,
)
from ddosflow.nn.model import named_state
from ddosflow.nn.persist import FORMAT_VERSION


@pytest.fixture
def model():
    return init_model(
        5, ArchitectureConfig(input_width=6, block_widths=(6, 4), init_seed=8)
    )


def test_round_trip_restores_every_tensor(model, tmp_path):
    path = str(tmp_path / "m.txt")
    # dirty the running stats so state tensors carry real data
    model.blocks[0].bn1.running_mean[...] = np.linspace(-1, 1, 6)
    model.blocks[0].bn1.running_var[...] = np.linspace(0.5, 2, 6)
    save_model(model, path)
    loaded, extra = load_model(path)
    assert extra == {}
    assert loaded.arch == model.arch
    assert loaded.n_features == model.n_features
    for (name, a), (_, b) in zip(
        named_parameters(model) + named_state(model),
        named_parameters(loaded) + named_state(loaded),
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_save_load_save_is_byte_identical(model, tmp_path):
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    save_model(model, p1, extra={"threshold": 0.5, "tokens": ["x", "y"]})
    loaded, extra = load_model(p1)
    save_model(loaded, p2, extra=extra)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_adversarial_floats_round_trip_bitwise(model, tmp_path):
    values = np.array(
        [np.pi, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, -0.0, 1.7e308]
    )
    model.blocks[0].bn1.running_mean[...] = values
    path = str(tmp_path / "m.txt")
    save_model(model, path)
    loaded, _ = load_model(path)
    got = loaded.blocks[0].bn1.running_mean
    np.testing.assert_array_equal(got, values)
    assert np.signbit(got[4])  # negative zero keeps its sign bit


def test_extra_manifest_round_trips(model, tmp_path):
    extra = {
        "feature_names": ["a", "b"],
        "scaler_means": [0.25, -1.5],
        "nested": {"k": [1, 2, 3], "flag": True, "nothing": None},
    }
    path = str(tmp_path / "m.txt")
    save_model(model, path, extra=extra)
    _, back = load_model(path)
    assert back == extra


def test_reserved_manifest_keys_rejected(model, tmp_path):
    for key in ("architecture", "n_features", "format"):
        with pytest.raises(ValueError, match="reserved"):
            save_model(model, str(tmp_path / "m.txt"), extra={key: 1})


def test_architecture_flags_survive(tmp_path):
    arch = ArchitectureConfig(
        input_width=4,
        block_widths=(4, 7),
        init_seed=3,
        bn_momentum=0.8,
    )
    model = init_model(6, arch)
    path = str(tmp_path / "m.txt")
    save_model(model, path)
    loaded, _ = load_model(path)
    assert loaded.arch == arch
    assert len(loaded.blocks) == 2
    assert loaded.attention.W_a.shape == (7, 7)
    assert loaded.blocks[1].projection is not None


# ------------------------------------------------------ malformed inputs

def write_and_mutate(model, tmp_path, mutate):
    path = str(tmp_path / "m.txt")
    save_model(model, path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = mutate(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def test_rejects_wrong_magic(model, tmp_path):
    path = write_and_mutate(model, tmp_path, lambda ls: ["nonsense 1"] + ls[1:])
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)


def test_rejects_empty_file(tmp_path):
    path = str(tmp_path / "empty.txt")
    open(path, "w").close()
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)


def test_rejects_future_version(model, tmp_path):
    path = write_and_mutate(
        model, tmp_path, lambda ls: [ls[0].replace(f" {FORMAT_VERSION}", " 99")] + ls[1:]
    )
    with pytest.raises(ValueError, match="unsupported format version 99$"):
        load_model(path)


def test_rejects_missing_manifest(model, tmp_path):
    path = write_and_mutate(model, tmp_path, lambda ls: [ls[0]] + ls[2:])
    with pytest.raises(ValueError, match="missing manifest"):
        load_model(path)


def test_rejects_malformed_tensor_header(model, tmp_path):
    path = write_and_mutate(
        model, tmp_path, lambda ls: ls[:2] + ["tensor broken"] + ls[3:]
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3: expected 'tensor input_affine.W 2 6 5'$"):
        load_model(path)


def test_rejects_unknown_tensor_name(model, tmp_path):
    def mutate(ls):
        ls = list(ls)
        ls[2] = ls[2].replace("input_affine.W", "mystery.W")
        return ls

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3: expected 'tensor input_affine.W 2 6 5'$"):
        load_model(path)


def test_rejects_shape_mismatch(model, tmp_path):
    def mutate(ls):
        ls = list(ls)
        parts = ls[2].split()  # tensor input_affine.W 2 6 5
        parts[3] = str(int(parts[3]) + 1)
        ls[2] = " ".join(parts)
        return ls

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3: expected 'tensor input_affine.W 2 6 5'$"):
        load_model(path)


def test_rejects_truncated_file(model, tmp_path):
    path = write_and_mutate(model, tmp_path, lambda ls: ls[:4])
    with pytest.raises(ValueError, match="truncated tensor"):
        load_model(path)


def test_rejects_missing_end_marker(model, tmp_path):
    path = write_and_mutate(model, tmp_path, lambda ls: ls[:-1])
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 94: expected 'end' as the last line$"):
        load_model(path)


def test_rejects_missing_tensor_block(model, tmp_path):
    def mutate(ls):
        # drop the first tensor (header line + its 6 data rows)
        return ls[:2] + ls[9:]

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3: expected 'tensor input_affine.W 2 6 5'$"):
        load_model(path)


def test_rejects_swapped_tensor_blocks(model, tmp_path):
    def mutate(ls):
        # input_affine.W (header + 6 rows) and input_affine.b (header + 1 row)
        return ls[:2] + ls[9:11] + ls[2:9] + ls[11:]

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3: expected 'tensor input_affine.W 2 6 5'$"):
        load_model(path)


def test_rejects_text_after_end_marker(model, tmp_path):
    path = write_and_mutate(model, tmp_path, lambda ls: ls + ["tensor input_affine.b 1 6"])
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 95: expected 'end' as the last line$"):
        load_model(path)


def test_rejects_ragged_rows(model, tmp_path):
    def mutate(ls):
        ls = list(ls)
        # shorten every data row of the first tensor consistently
        for i in range(3, 9):
            ls[i] = " ".join(ls[i].split()[:-1])
        return ls

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError, match="ragged rows"):
        load_model(path)


def test_rejects_non_numeric_cell(model, tmp_path):
    def mutate(ls):
        ls = list(ls)
        row = ls[3].split()
        row[0] = "banana"
        ls[3] = " ".join(row)
        return ls

    path = write_and_mutate(model, tmp_path, mutate)
    with pytest.raises(ValueError):
        load_model(path)


# the smallest model file: one feature, one residual block of width 1
@pytest.fixture
def tiny_path(tmp_path):
    path = str(tmp_path / "tiny.txt")
    save_model(init_model(1, ArchitectureConfig(input_width=1, block_widths=(1,))), path)
    return path


def _rewrite(path, mutate):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(mutate(lines)) + "\n")


def test_malformed_tensor_header_names_file_and_line(tiny_path):
    assert Path(tiny_path).read_text().splitlines()[2] == "tensor input_affine.W 2 1 1"
    _rewrite(tiny_path, lambda ls: ls[:2] + ["tensor input_affine.W x 1 1"] + ls[3:])
    with pytest.raises(ValueError, match=rf"^{re.escape(tiny_path)}: line 3: expected 'tensor input_affine.W 2 1 1'$"):
        load_model(tiny_path)


def test_malformed_tensor_value_names_file_and_line(tiny_path):
    _rewrite(tiny_path, lambda ls: ls[:3] + ["x"] + ls[4:])
    with pytest.raises(ValueError, match=rf"^{re.escape(tiny_path)}: line 4: .*'x'"):
        load_model(tiny_path)


def test_repeated_tensor_block_is_rejected(tiny_path):
    n = len(Path(tiny_path).read_text().splitlines())  # "end" is line n
    _rewrite(tiny_path, lambda ls: ls[:-1] + ["tensor output_affine.b 1 1", "9", "end"])
    with pytest.raises(ValueError, match=rf"^{re.escape(tiny_path)}: line {n}: expected 'end' as the last line$"):
        load_model(tiny_path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_tensor_value_names_file_and_line(tiny_path, value):
    _rewrite(tiny_path, lambda ls: ls[:3] + [value] + ls[4:])
    message = rf"^{re.escape(tiny_path)}: line 4: tensor 'input_affine.W' holds a non-finite value$"
    with pytest.raises(ValueError, match=message):
        load_model(tiny_path)


def test_file_that_is_not_utf8_is_named(tiny_path):
    with open(tiny_path, "ab") as fh:
        fh.write(b"\xff\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(tiny_path)}: not a model file \(not UTF-8\)$"):
        load_model(tiny_path)
