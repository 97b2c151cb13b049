import json
import math

import pytest

from kreinfield.cli import CONFIG_SCHEMA, main

ATOM_MODEL = {
    "kind": "scalar",
    "dim": 1,
    "alpha": 0.5,
    "mass": 1.0,
    "levy": {"drift": 0.1, "variance": 0.5, "atoms": [[1.0, 2.0]]},
}
GAUSS_MODEL = {
    "kind": "scalar",
    "dim": 1,
    "alpha": 0.5,
    "mass": 1.0,
    "levy": {"drift": 0.0, "variance": 0.7, "atoms": []},
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def stderr_doc(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# ---- config validation ----

def test_schema_is_valid_draft7():
    import jsonschema

    jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)


def test_malformed_config_exits_2_and_names_field(tmp_path, capsys):
    bad = {"model": dict(ATOM_MODEL, alpha=0.9)}
    rc = main(["bounds", "--config", write_cfg(tmp_path, bad), "--out", str(tmp_path)])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == "model.alpha"


def test_missing_required_key_names_field(tmp_path, capsys):
    bad = {"model": {k: v for k, v in ATOM_MODEL.items() if k != "mass"}}
    rc = main(["bounds", "--config", write_cfg(tmp_path, bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "mass" in stderr_doc(capsys)["message"]


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["bounds", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert stderr_doc(capsys)["error"] == "config"


def test_non_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("model: not json")
    rc = main(["bounds", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "JSON" in stderr_doc(capsys)["message"]


@pytest.mark.parametrize(
    "constant",
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
     pytest.param("1" + "0" * 400, id="int-1e400")])
def test_non_finite_constant_exits_2(tmp_path, capsys, constant):
    cfg = {
        "model": ATOM_MODEL,
        "tasks": {"wightman": {"tests": [
            {"slots": [{"center": [-1.0], "width": 1.0},
                       {"center": [1.0], "width": 1.0}]}
        ]}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"variance": 0.5', f'"variance": {constant}'))
    rc = main(["wightman", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert constant[:24] in doc["message"]
    assert not (tmp_path / "run").exists()


def test_dim_mismatch_is_config_error(tmp_path, capsys):
    cfg = {
        "model": ATOM_MODEL,
        "tasks": {"wightman": {"tests": [
            {"slots": [{"center": [0.0, 0.0], "width": 1.0},
                       {"center": [0.0], "width": 1.0}]}
        ]}},
    }
    rc = main(["wightman", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert stderr_doc(capsys)["field"] == "tasks.wightman.tests.0.slots.0.center"


def with_atoms(atoms):
    return dict(ATOM_MODEL, levy=dict(ATOM_MODEL["levy"], atoms=atoms))


@pytest.mark.parametrize("model, field", [
    (with_atoms([[0.0, 2.0]]), "model.levy.atoms.0"),  # zero jump size
    (with_atoms([[1.0, 2.0], [0.5, -1.0]]), "model.levy.atoms.1"),  # negative rate
    (dict(ATOM_MODEL, kind="vector"), "model.kind"),
])
def test_unsupported_model_is_config_error(tmp_path, capsys, model, field):
    cfg = {"model": model, "tasks": {"bounds": {"vector_slots": [[3, 0]]}}}
    rc = main(["bounds", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == field


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])


def test_missing_task_section_is_task_failure(tmp_path, capsys):
    cfg = {"model": ATOM_MODEL}
    rc = main(["wightman", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "tasks.wightman" in stderr_doc(capsys)["message"]


# ---- wightman pipeline and manifests ----

@pytest.fixture
def wightman_cfg(tmp_path):
    cfg = {
        "model": ATOM_MODEL,
        "seed": 5,
        "tasks": {"wightman": {"tests": [
            {"slots": [{"center": [0.2], "width": 1.0},
                       {"center": [-0.3], "width": 0.9, "freq": [0.5]}]},
            {"slots": [{"center": [0.0], "width": 1.0},
                       {"center": [0.1], "width": 1.1},
                       {"center": [-0.1], "width": 0.8}], "prefactor": 2.0},
        ]}},
    }
    return write_cfg(tmp_path, cfg)


def test_wightman_outputs_match_direct_eval(tmp_path, wightman_cfg):
    out = tmp_path / "out"
    rc = main(["wightman", "--config", wightman_cfg, "--out", str(out)])
    assert rc == 0

    rows = (out / "wightman.csv").read_text().splitlines()
    assert rows[0] == "test_index,order,real,imag"
    assert len(rows) == 3

    from kreinfield.green import GreenSpec
    from kreinfield.levy import LevyTriple
    from kreinfield.testfunctions import TensorTestFunction, TestFunction
    from kreinfield.wightman import truncated_momentum_eval

    spec = GreenSpec(1, 0.5, 1.0)
    triple = LevyTriple(0.1, 0.5, ((1.0, 2.0),))
    t0 = TensorTestFunction((
        TestFunction.gaussian((0.2,), 1.0),
        TestFunction.gaussian((-0.3,), 0.9, freq=(0.5,)),
    ))
    want = truncated_momentum_eval(t0, spec, triple)
    _, order, re_, im_ = rows[1].split(",")
    assert int(order) == 2
    assert complex(float(re_), float(im_)) == pytest.approx(want, rel=1e-12)

    records = [json.loads(line) for line in
               (out / "wightman_records.jsonl").read_text().splitlines()]
    assert {r["test_index"] for r in records} == {0, 1}
    for r in records:
        assert "tolerance" in r
        assert r["history"]


def test_manifest_lists_outputs_and_config_hash(tmp_path, wightman_cfg):
    import hashlib

    out = tmp_path / "out"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == produced
    raw = open(wightman_cfg, "rb").read()
    assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
    assert manifest["subcommand"] == "wightman"
    assert manifest["seed"] == 5
    assert manifest["status"] == "ok"
    assert "error" not in manifest
    for key in ("kreinfield", "python", "numpy", "scipy"):
        assert key in manifest["versions"]


def test_failed_run_writes_manifest_with_residual(tmp_path, wightman_cfg, capsys,
                                                  monkeypatch):
    import kreinfield.wightman
    from kreinfield.errors import QuadratureError

    def diverges(*args, **kwargs):
        raise QuadratureError("pair density did not stabilize", residual=0.125)

    monkeypatch.setattr(kreinfield.wightman, "truncated_momentum_eval", diverges)
    out = tmp_path / "out"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out)]) == 1
    err = stderr_doc(capsys)
    assert err["error"] == "task"
    assert err["residual"] == 0.125
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "task"
    assert manifest["residual"] == 0.125
    assert "did not stabilize" in manifest["message"]
    assert manifest["outputs"] == []


def test_non_finite_output_is_task_failure(tmp_path, wightman_cfg, capsys,
                                           monkeypatch):
    import kreinfield.wightman

    monkeypatch.setattr(kreinfield.wightman, "truncated_momentum_eval",
                        lambda *args, **kwargs: complex(math.nan, 0.0))
    out = tmp_path / "out"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out)]) == 1
    err = stderr_doc(capsys)
    assert err["error"] == "task"
    assert "wightman.csv" in err["message"]
    assert "residual" not in err
    assert not (out / "wightman.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_reruns_are_byte_identical_outside_manifest(tmp_path, wightman_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out1)]) == 0
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out2)]) == 0
    for name in ("wightman.csv", "wightman_records.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    for key in ("started_utc", "wall_seconds"):
        m1.pop(key), m2.pop(key)
    assert m1 == m2


def test_threads_flag_does_not_change_results(tmp_path, wightman_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out1)]) == 0
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out2),
                 "--threads", "1"]) == 0
    assert (out1 / "wightman.csv").read_bytes() == (out2 / "wightman.csv").read_bytes()


# ---- sampling determinism ----

def test_sample_seed_controls_output(tmp_path):
    cfg = {
        "model": ATOM_MODEL,
        "lattice": {"sites": 16, "spacing": 0.5},
        "seed": 9,
        "tasks": {"sample": {"n_samples": 200, "smear_centers": [[0.5]],
                             "smear_width": 0.8}},
    }
    path = write_cfg(tmp_path, cfg)
    outs = [tmp_path / n for n in ("a", "b", "c")]
    assert main(["sample", "--config", path, "--out", str(outs[0])]) == 0
    assert main(["sample", "--config", path, "--out", str(outs[1])]) == 0
    assert main(["sample", "--config", path, "--out", str(outs[2]), "--seed", "10"]) == 0
    rows = [(o / "sample.csv").read_bytes() for o in outs]
    assert rows[0] == rows[1]
    assert rows[0] != rows[2]
    m = json.loads((outs[2] / "manifest.json").read_text())
    assert m["seed"] == 10


def test_schwinger_table_within_errors(tmp_path):
    cfg = {
        "model": ATOM_MODEL,
        "lattice": {"sites": 32, "spacing": 0.25},
        "seed": 21,
        "tasks": {"schwinger": {"orders": [2], "n_samples": 2000,
                                "smear_centers": [[0.5], [-1.0]],
                                "smear_width": 0.8}},
    }
    out = tmp_path / "out"
    assert main(["schwinger", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, row = (out / "schwinger.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert int(vals["order"]) == 2
    assert float(vals["sigmas"]) < 5.0


# ---- task pipelines ----

def test_laplace_check_writes_gap_row(tmp_path):
    cfg = {
        "model": ATOM_MODEL,
        "lattice": {"sites": 64, "spacing": 0.25},
        "tasks": {"laplace_check": {"configs": [[[0.5], [1.25]]],
                                    "tolerance": 0.02}},
    }
    out = tmp_path / "out"
    assert main(["laplace-check", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, row = (out / "laplace_check.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["passed"] == "True"
    assert float(vals["gap"]) <= 0.02


def test_bounds_vector_constants(tmp_path):
    cfg = {"model": ATOM_MODEL,
           "tasks": {"bounds": {"vector_slots": [[3, 0]]}}}
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, row = (out / "bounds.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["family"] == "vector"
    assert float(vals["constant"]) == pytest.approx(2 * math.pi**2, rel=5e-3)
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["vector"][0]["order"] == 3


def test_bounds_scalar_factors_match_library(tmp_path):
    from kreinfield.green import GreenSpec
    from kreinfield.hssc import compute_scalar_factors

    cfg = {"model": ATOM_MODEL, "tasks": {"bounds": {"orders": [3]}}}
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    factors = doc["scalar_factors"]
    want = compute_scalar_factors(GreenSpec(1, 0.5, 1.0)).overlap_sup
    assert factors["overlap_sup"] == want
    assert "interior_max" not in factors and "boundary_max" not in factors
    assert doc["scalar"][0]["order"] == 3


def test_certify_gaussian_passes_exit_zero(tmp_path):
    cfg = {
        "model": GAUSS_MODEL,
        "seed": 11,
        "tasks": {"certify": {"n_max": 3,
                              "random_family": {"singles": 2, "doubles": 1,
                                                "triples": 1}}},
    }
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["model"]["quadratic"] is True
    assert "runtime_seconds" not in cert  # timing lives in the manifest
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certify_runtime_seconds"] >= 0.0


def test_certify_with_no_family_is_task_failure(tmp_path, capsys):
    cfg = {"model": GAUSS_MODEL, "tasks": {"certify": {"n_max": 2}}}
    rc = main(["certify", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert stderr_doc(capsys)["error"] == "task"


def test_krein_report_reduces_gram(tmp_path):
    cfg = {
        "model": ATOM_MODEL,
        "seed": 3,
        "tasks": {"krein": {"n_functions": 3, "monomials": [[], [0], [1, 2]],
                            "seminorm_scale": 50.0}},
    }
    out = tmp_path / "out"
    assert main(["krein", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "krein.json").read_text())
    assert doc["basis_size"] == 3
    assert doc["majorization"]["passed"] is True
    assert doc["krein"]["metric_self_inverse_defect"] <= 1e-10
    assert doc["krein"]["reconstruction_error"] <= 1e-9
    eig_rows = (out / "krein_eigenvalues.csv").read_text().splitlines()
    assert len(eig_rows) == 4


def test_cluster_rows_decay(tmp_path):
    cfg = {
        "model": dict(ATOM_MODEL, dim=2),
        "tasks": {"cluster": {"direction": [0.0, 1.0],
                              "lambdas": [0.0, 4.0],
                              "left": [{"center": [0.0, 0.0], "width": 1.0}],
                              "right": [{"center": [0.2, 0.1], "width": 0.9}]}},
    }
    out = tmp_path / "out"
    assert main(["cluster", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = (out / "cluster.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[1] < vals[0]


def test_cluster_timelike_direction_is_task_failure(tmp_path, capsys):
    cfg = {
        "model": dict(ATOM_MODEL, dim=2),
        "tasks": {"cluster": {"direction": [1.0, 0.0],
                              "lambdas": [0.0, 4.0],
                              "left": [{"center": [0.0, 0.0], "width": 1.0}],
                              "right": [{"center": [0.2, 0.1], "width": 0.9}]}},
    }
    rc = main(["cluster", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert stderr_doc(capsys)["error"] == "task"


def test_spectral_pass_and_fail_paths(tmp_path, capsys):
    off = {"slots": [{"center": [3.0], "width": 0.2, "freq": [0.0]},
                     {"center": [3.0], "width": 0.2, "freq": [0.0]}]}
    good_control = {"slots": [{"center": [-1.0], "width": 0.3},
                              {"center": [1.0], "width": 0.3}]}
    cfg = {"model": ATOM_MODEL,
           "tasks": {"spectral": {"off_support": [off], "control": good_control,
                                  "tolerance": 1e-8}}}
    out = tmp_path / "out"
    assert main(["spectral", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "spectral.json").read_text())
    assert doc["passed"] is True

    # a control with no overlap either cannot certify anything
    cfg["tasks"]["spectral"]["control"] = off
    rc = main(["spectral", "--config", write_cfg(tmp_path, cfg, "bad.json"),
               "--out", str(tmp_path / "out2")])
    assert rc == 1
    assert stderr_doc(capsys)["error"] == "task"
    manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["message"] == "spectral support check failed"
    assert set(manifest["outputs"]) == {"spectral.json", "spectral.csv"}


def test_non_finite_json_output_is_task_failure(tmp_path, capsys, monkeypatch):
    import kreinfield.wightman

    monkeypatch.setattr(
        kreinfield.wightman, "spectral_support_check",
        lambda *args, **kwargs: {"max_off_support": math.inf, "control": 1.0,
                                 "tolerance": 1e-8, "passed": True})
    slots = {"slots": [{"center": [0.0], "width": 1.0}]}
    cfg = {"model": ATOM_MODEL,
           "tasks": {"spectral": {"off_support": [slots], "control": slots}}}
    out = tmp_path / "out"
    rc = main(["spectral", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 1
    assert "spectral.json" in stderr_doc(capsys)["message"]
    assert not (out / "spectral.json").exists()
