"""Scenario spec and matrix expansion: validation, digests, order stability."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.power.drift import DriftSpec
from repro.scenarios import MatrixSpec, ScenarioSpec, load_matrix
from repro.scenarios.spec import CELL_SCHEMA, MATRIX_SCHEMA


def smoke_matrix_doc() -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "name": "t",
        "base": {"n_traces": 100, "chunk_size": 50, "target": "unprotected"},
        "axes": {
            "acquisition": {"scope": {}, "cloud": {"acquisition": "cloud"}},
            "env": {"stable": {}, "drift": {"drift": {"temperature": 1.0}}},
            "adv": {"cpa": {}, "tvla": {"adversary": "tvla"}},
        },
    }


class TestScenarioSpec:
    def test_defaults_validate(self):
        ScenarioSpec()

    def test_round_trips_via_dict(self):
        cell = ScenarioSpec(
            name="x", target="unprotected", acquisition="cloud",
            drift=DriftSpec(voltage=0.5), adversary="tvla",
            n_traces=64, chunk_size=32, seed=3,
        )
        assert ScenarioSpec.from_dict(cell.to_dict()) == cell

    def test_tvla_cell_lowered_with_fixed_plaintext(self):
        campaign = ScenarioSpec(adversary="tvla").to_campaign()
        assert campaign.fixed_plaintext is not None
        assert ScenarioSpec(adversary="cpa").to_campaign().fixed_plaintext is None

    @pytest.mark.parametrize(
        "fields",
        [
            {"adversary": "dpa"},
            {"n_traces": 0},
            {"chunk_size": 0},
            {"target": "nonsense"},
            {"acquisition": "satellite"},
            {"dtype": "int8"},
            {"m_outputs": 1000},
            {"p_configs": 0},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**fields)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"tracess": 100})

    def test_name_excluded_from_digest(self):
        a = ScenarioSpec(name="a")
        b = ScenarioSpec(name="b")
        assert a.cell_digest() == b.cell_digest()

    @pytest.mark.parametrize(
        "fields",
        [
            {"target": "unprotected"},
            {"acquisition": "cloud"},
            {"drift": DriftSpec(temperature=1.0)},
            {"adversary": "tvla"},
            {"n_traces": 999},
            {"chunk_size": 123},
            {"seed": 77},
            {"noise_std": 3.5},
            {"plan_seed": 5},
            {"dtype": "float32"},
        ],
    )
    def test_digest_sensitive_to_every_field(self, fields):
        assert ScenarioSpec(**fields).cell_digest() != ScenarioSpec().cell_digest()


class TestMatrixExpansion:
    def test_cross_product_size(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(smoke_matrix_doc()))
        matrix = load_matrix(path)
        assert matrix.n_cells == 8
        assert len(matrix.expand()) == 8

    def test_cells_sorted_by_digest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(smoke_matrix_doc()))
        cells = load_matrix(path).expand()
        digests = [c.cell_digest() for c in cells]
        assert digests == sorted(digests)

    def test_cell_names_join_variant_names(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(smoke_matrix_doc()))
        names = {c.name for c in load_matrix(path).expand()}
        assert "scope/stable/cpa" in names
        assert "cloud/drift/tvla" in names

    def test_axis_reorder_same_matrix_digest(self, tmp_path):
        doc = smoke_matrix_doc()
        reordered = dict(doc)
        reordered["axes"] = dict(reversed(list(doc["axes"].items())))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(reordered))
        assert load_matrix(a).matrix_digest() == load_matrix(b).matrix_digest()

    def test_duplicate_cells_rejected(self):
        matrix = MatrixSpec(
            name="dup",
            base={"n_traces": 10, "chunk_size": 5},
            axes=(
                ("a", (("x", {}), ("y", {"seed": 0})),),
            ),
        )
        with pytest.raises(ConfigurationError, match="same campaign"):
            matrix.expand()

    def test_expansion_order_stable_across_hash_seeds(self, tmp_path):
        """The satellite contract: digest order beats PYTHONHASHSEED."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(smoke_matrix_doc()))
        script = (
            "import json, sys\n"
            "from repro.scenarios import load_matrix\n"
            "m = load_matrix(sys.argv[1])\n"
            "print(json.dumps([c.cell_digest() for c in m.expand()]))\n"
            "print(m.matrix_digest())\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(pathlib.Path(__file__).parents[2] / "src"),
                },
                cwd=str(pathlib.Path(__file__).parents[2]),
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestLoadMatrix:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_matrix(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not JSON"):
            load_matrix(path)

    def test_wrong_schema(self, tmp_path):
        doc = smoke_matrix_doc()
        doc["schema"] = "rftc-scenario-matrix/99"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="schema"):
            load_matrix(path)

    def test_empty_axes_rejected(self, tmp_path):
        doc = smoke_matrix_doc()
        doc["axes"] = {}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="axes"):
            load_matrix(path)

    def test_invalid_cell_rejected_at_load(self, tmp_path):
        doc = smoke_matrix_doc()
        doc["axes"]["adv"]["tvla"]["adversary"] = "nonsense"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError):
            load_matrix(path)

    def test_impossible_rftc_shape_rejected_at_load(self, tmp_path):
        doc = smoke_matrix_doc()
        doc["axes"]["adv"]["tvla"].update(target="rftc", m_outputs=1000)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="M must be"):
            load_matrix(path)

    def test_committed_example_is_valid(self):
        example = (
            pathlib.Path(__file__).parents[2] / "examples" / "matrix_smoke.json"
        )
        matrix = load_matrix(example)
        assert matrix.n_cells == 8
        acquisitions = {c.acquisition for c in matrix.expand()}
        targets = {c.target for c in matrix.expand()}
        drifts = {c.drift is not None and c.drift.enabled for c in matrix.expand()}
        assert acquisitions == {"scope", "cloud"}
        assert targets == {"unprotected", "rftc"}
        assert drifts == {True, False}


def test_cell_schema_tags_are_versioned():
    assert CELL_SCHEMA.endswith("/1")
    assert MATRIX_SCHEMA.endswith("/1")
