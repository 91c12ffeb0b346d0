"""The schema-versioned run artifact: encode, validate, round-trip."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.harness import Sweep
from repro.obs.artifact import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    _src_sha256,
    collect_provenance,
    decode_part,
    encode_part,
    load_artifact,
    make_artifact,
    validate_artifact,
    write_artifact,
)


def _sample_sweep():
    sweep = Sweep("rate")
    sweep.add(1, cores=0.5)
    sweep.add(2, cores=1.0)
    return sweep


def _sample_artifact():
    return make_artifact({
        "figX": {
            "title": "Figure X",
            "wall_clock_s": 0.25,
            "parts": {
                "sweep_part": _sample_sweep(),
                "table_part": {"speedup": 2.0},
                "nested_part": {"cfg": {"m": 1.0}},
            },
        },
    })


class TestPartCodec:
    def test_sweep_round_trip(self):
        part = encode_part(_sample_sweep())
        assert part["type"] == "sweep"
        rebuilt = decode_part(json.loads(json.dumps(part)))
        assert isinstance(rebuilt, Sweep)
        assert rebuilt.series("cores") == [0.5, 1.0]

    def test_flat_dict_becomes_table(self):
        part = encode_part({"a": 1.0, "b": 2.0})
        assert part["type"] == "table"
        assert decode_part(part) == {"a": 1.0, "b": 2.0}

    def test_dict_of_dicts_becomes_nested(self):
        source = {"cfg1": {"m": 1.0}, "cfg2": {"m": 2.0}}
        part = encode_part(source)
        assert part["type"] == "nested"
        assert decode_part(part) == source

    def test_empty_dict_is_a_table(self):
        part = encode_part({})
        assert part["type"] == "table"
        assert decode_part(part) == {}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_part([1, 2, 3])
        with pytest.raises(ValueError):
            decode_part({"type": "mystery"})


class TestProvenance:
    def test_core_fields_present(self):
        provenance = collect_provenance(argv=["fig1"])
        assert provenance["python"]
        assert provenance["platform"]
        assert provenance["argv"] == ["fig1"]
        assert provenance["workload_seed"] == 13
        assert "bluefield2" in provenance["hardware_profiles"]
        bf2 = provenance["hardware_profiles"]["bluefield2"]
        assert "compression" in bf2["accelerators"]

    def test_src_hash_names_the_code(self):
        digest = collect_provenance()["src_sha256"]
        assert len(digest) == 64
        assert digest == _src_sha256()

    def test_src_hash_scheme_skips_bytecode(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_bytes(b"x = 1\n")
        (tmp_path / "b.txt").write_bytes(b"b")
        expected = hashlib.sha256(
            b"b.txt\0b" + b"pkg/a.py\0x = 1\n").hexdigest()
        assert _src_sha256(tmp_path) == expected
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.pyc") \
            .write_bytes(b"junk")
        (tmp_path / "c.pyc").write_bytes(b"junk")
        assert _src_sha256(tmp_path) == expected
        (tmp_path / "pkg" / "a.py").write_bytes(b"x = 2\n")
        assert _src_sha256(tmp_path) != expected


class TestCommittedBaseline:
    """``BENCH_baseline.json`` is valid and names the code it came from.

    A change to anything under ``src/`` must re-bless the baseline
    (``python -m repro.bench --json-out BENCH_baseline.json``), so the
    perf gate never compares against numbers from other code.
    """

    BASELINE = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"

    def test_baseline_is_a_valid_artifact(self):
        document = json.loads(self.BASELINE.read_text())
        assert validate_artifact(document) == []
        assert document["experiments"]

    def test_baseline_provenance_matches_src(self):
        document = load_artifact(str(self.BASELINE))
        assert document["provenance"]["src_sha256"] == _src_sha256(), \
            "BENCH_baseline.json was blessed from other code: re-bless it"


class TestArtifactDocument:
    def test_valid_document_has_no_errors(self):
        assert validate_artifact(_sample_artifact()) == []

    def test_schema_header(self):
        document = _sample_artifact()
        assert document["schema"] == SCHEMA_NAME
        assert document["schema_version"] == SCHEMA_VERSION

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "art.json"
        write_artifact(str(path), _sample_artifact())
        loaded = load_artifact(str(path))
        part = loaded["experiments"]["figX"]["parts"]["sweep_part"]
        assert decode_part(part).series("cores") == [0.5, 1.0]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_validate_flags_wrong_version(self):
        document = _sample_artifact()
        document["schema_version"] = 999
        assert any("schema_version" in error
                   for error in validate_artifact(document))

    def test_validate_flags_non_numeric_metric(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["table_part"][
            "values"]["speedup"] = "fast"
        assert any("speedup" in error
                   for error in validate_artifact(document))

    def test_validate_flags_malformed_sweep_row(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["sweep_part"][
            "rows"].append({"x": 3})
        assert any("sweep row" in error.lower() or
                   "malformed" in error.lower()
                   for error in validate_artifact(document))

    def test_validate_flags_unknown_part_type(self):
        document = _sample_artifact()
        document["experiments"]["figX"]["parts"]["table_part"][
            "type"] = "blob"
        assert any("blob" in error
                   for error in validate_artifact(document))

    def test_validate_flags_missing_provenance(self):
        document = _sample_artifact()
        del document["provenance"]
        assert any("provenance" in error
                   for error in validate_artifact(document))

    def test_not_an_object(self):
        assert validate_artifact([1, 2]) \
            == ["artifact is not a JSON object"]
