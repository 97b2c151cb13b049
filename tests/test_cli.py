import csv
import json
import math

import pytest

from kreinfield import cli
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


WIGHTMAN_CFG = {
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
SAMPLE_CFG = {
    "model": ATOM_MODEL,
    "lattice": {"sites": 16, "spacing": 0.5},
    "seed": 9,
    "tasks": {"sample": {"n_samples": 200, "smear_centers": [[0.5]],
                         "smear_width": 0.8}},
}
SCHWINGER_CFG = {
    "model": ATOM_MODEL,
    "lattice": {"sites": 32, "spacing": 0.25},
    "seed": 21,
    "tasks": {"schwinger": {"orders": [2], "n_samples": 2000,
                            "smear_centers": [[0.5], [-1.0]],
                            "smear_width": 0.8}},
}
LAPLACE_CFG = {
    "model": ATOM_MODEL,
    "lattice": {"sites": 64, "spacing": 0.25},
    "tasks": {"laplace_check": {"configs": [[[0.5], [1.25]]],
                                "tolerance": 0.02}},
}
BOUNDS_CFG = {"model": ATOM_MODEL, "tasks": {"bounds": {"vector_slots": [[3, 0]]}}}
CERTIFY_CFG = {
    "model": GAUSS_MODEL,
    "seed": 11,
    "tasks": {"certify": {"n_max": 3,
                          "random_family": {"singles": 2, "doubles": 1,
                                            "triples": 1}}},
}
KREIN_CFG = {
    "model": ATOM_MODEL,
    "seed": 3,
    "tasks": {"krein": {"n_functions": 3, "monomials": [[], [0], [1, 2]],
                        "seminorm_scale": 50.0}},
}
CLUSTER_CFG = {
    "model": dict(ATOM_MODEL, dim=2),
    "tasks": {"cluster": {"direction": [0.0, 1.0],
                          "lambdas": [0.0, 4.0],
                          "left": [{"center": [0.0, 0.0], "width": 1.0}],
                          "right": [{"center": [0.2, 0.1], "width": 0.9}]}},
}
OFF_SUPPORT = {"slots": [{"center": [3.0], "width": 0.2, "freq": [0.0]},
                         {"center": [3.0], "width": 0.2, "freq": [0.0]}]}
SPECTRAL_CFG = {
    "model": ATOM_MODEL,
    "tasks": {"spectral": {"off_support": [OFF_SUPPORT],
                           "control": {"slots": [{"center": [-1.0], "width": 0.3},
                                                 {"center": [1.0], "width": 0.3}]},
                           "tolerance": 1e-8}},
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
    # the validator built once per process is of the class checked here
    validator = cli._config_validator()
    assert isinstance(validator, jsonschema.Draft7Validator)
    assert cli._config_validator() is validator


def test_malformed_config_exits_2_and_names_field(tmp_path, capsys):
    bad = {"model": dict(ATOM_MODEL, alpha=0.9)}
    rc = main(["bounds", "--config", write_cfg(tmp_path, bad), "--out", str(tmp_path)])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == "model.alpha"


def test_retired_bounds_gamma_exits_2(tmp_path, capsys):
    # the overlap ceiling's split exponent is a constant now, not a field
    bad = {"model": ATOM_MODEL, "tasks": {"bounds": {"orders": [3], "gamma": 0.25}}}
    rc = main(["bounds", "--config", write_cfg(tmp_path, bad), "--out", str(tmp_path)])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["field"] == "tasks.bounds"
    assert "'gamma'" in doc["message"]


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


def test_missing_task_section_is_config_error(tmp_path, capsys):
    cfg = {"model": ATOM_MODEL}
    rc = main(["wightman", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == "tasks.wightman"
    assert not (tmp_path / "run").exists()


def with_task(cfg, name, **changes):
    return dict(cfg, tasks={name: dict(cfg["tasks"][name], **changes)})


@pytest.mark.parametrize("command, cfg, field", [
    ("sample", {k: v for k, v in SAMPLE_CFG.items() if k != "lattice"}, "lattice"),
    ("schwinger", {k: v for k, v in SCHWINGER_CFG.items() if k != "lattice"}, "lattice"),
    ("laplace-check", {k: v for k, v in LAPLACE_CFG.items() if k != "lattice"},
     "lattice"),
    # mass * extent = 1 * 16 * 0.2 = 3.2, below the kernel's resolution guard 4
    ("sample", dict(SAMPLE_CFG, lattice={"sites": 16, "spacing": 0.2}), "lattice"),
    ("krein", with_task(KREIN_CFG, "krein", monomials=[[0], [1, 3]]),
     "tasks.krein.monomials.1"),
    ("cluster", with_task(CLUSTER_CFG, "cluster", left=[
        {"center": [0.0, 0.0], "width": 1.0, "freq": [0.5]}]),
     "tasks.cluster.left.0.freq"),
    ("laplace-check", with_task(LAPLACE_CFG, "laplace_check", configs=[[[1.25], [0.5]]]),
     "tasks.laplace_check.configs.0"),
    # the pair bridge below alpha = 1/2 is kept to d = 1
    ("laplace-check", dict(LAPLACE_CFG, model=dict(ATOM_MODEL, dim=2, alpha=0.35),
                           tasks={"laplace_check": {"configs": [[[0.5, 0.0],
                                                                 [1.25, 0.0]]]}}),
     "tasks.laplace_check.configs.0"),
    # hssc_certify checks no member above n_max
    ("certify", {"model": ATOM_MODEL, "tasks": {"certify": {"n_max": 2, "tests": [
        {"slots": [{"center": [0.2], "width": 0.9}] * 3}]}}}, "tasks.certify.n_max"),
    ("certify", {"model": ATOM_MODEL, "tasks": {"certify": {
        "n_max": 3, "random_family": {"quads": 1}}}}, "tasks.certify.n_max"),
    # pair_bound covers only alpha = 1/2 in d = 2
    ("certify", {"model": dict(ATOM_MODEL, dim=2, alpha=0.35), "tasks": {"certify": {
        "random_family": {"singles": 1}}}}, "model.alpha"),
    # vector bounds start at order 3, and the slot lies in 0..n
    ("bounds", {"model": ATOM_MODEL, "tasks": {"bounds": {
        "vector_slots": [[3, 0], [3, 5]]}}}, "tasks.bounds.vector_slots.1"),
    ("bounds", {"model": ATOM_MODEL, "tasks": {"bounds": {
        "vector_slots": [[2, 0]]}}}, "tasks.bounds.vector_slots.0"),
    # an empty section would write a header-only table
    ("bounds", {"model": ATOM_MODEL, "tasks": {"bounds": {}}}, "tasks.bounds"),
    # cluster_decay translates along spacelike rays only: a0^2 < |a|^2
    ("cluster", with_task(CLUSTER_CFG, "cluster", direction=[1.0, 0.0]),
     "tasks.cluster.direction"),
    # the random family's center scale is a constant now, not a field
    ("certify", with_task(CERTIFY_CFG, "certify", random_family={
        "singles": 1, "center_scale": 2.0}), "tasks.certify.random_family"),
    # an order above the number of smear centers has no subset to smear
    ("schwinger", with_task(SCHWINGER_CFG, "schwinger", orders=[2, 3]),
     "tasks.schwinger.orders"),
    # numpy reads a Philox key above 2^63 - 1 as a rounded float
    ("sample", dict(SAMPLE_CFG, seed=2**63), "seed"),
], ids=["sample-no-lattice", "schwinger-no-lattice", "laplace-check-no-lattice",
        "mass-extent-below-4", "krein-index-outside-pool", "cluster-freq-length",
        "laplace-check-decreasing-times", "laplace-check-d2-pair-below-half",
        "certify-test-above-n-max", "certify-quads-above-n-max",
        "certify-d2-alpha-below-half", "bounds-vector-slot-above-order",
        "bounds-vector-order-below-3", "bounds-empty", "cluster-timelike-direction",
        "certify-retired-center-scale", "schwinger-order-above-centers",
        "seed-above-int64"])
def test_config_the_handler_cannot_run_is_config_error(tmp_path, capsys, command,
                                                       cfg, field):
    rc = main([command, "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == field
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, field", [
    (["--threads", "0"], "threads"),
    (["--tolerance", "0"], "tolerance"),
    (["--tolerance", "-1"], "tolerance"),
    (["--tolerance", "inf"], "tolerance"),
    (["--tolerance", "nan"], "tolerance"),
    (["--seed", "-1"], "seed"),
    (["--seed", str(2**63)], "seed"),
    ([], "output_dir"),
], ids=["threads-0", "tolerance-0", "tolerance-negative", "tolerance-inf",
        "tolerance-nan", "seed-negative", "seed-above-int64", "no-output-dir"])
def test_flag_the_run_cannot_honour_is_config_error(tmp_path, capsys, monkeypatch,
                                                    flags, field):
    monkeypatch.chdir(tmp_path)
    out = [] if field == "output_dir" else ["--out", "run"]
    rc = main(["sample", "--config", write_cfg(tmp_path, SAMPLE_CFG), *out, *flags])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == field
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_only_the_running_subcommands_section_is_checked(tmp_path):
    # a krein monomial outside its pool is krein's config error, not wightman's
    cfg = dict(WIGHTMAN_CFG, tasks=dict(
        WIGHTMAN_CFG["tasks"], krein=dict(KREIN_CFG["tasks"]["krein"],
                                          monomials=[[0], [1, 3]])))
    out = tmp_path / "out"
    assert main(["wightman", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "wightman.csv").exists()


@pytest.mark.parametrize("tasks, field", [
    # krein's section lacks its required monomials: krein's schema error
    ({"krein": {"n_functions": 3}}, None),
    # an unknown section name and wightman's own section are still checked
    ({"krein": {"n_functions": 3}, "frobnicate": {}}, "tasks"),
    ({"krein": {"n_functions": 3}, "wightman": {"tests": []}}, "tasks.wightman.tests"),
], ids=["other-section-invalid", "unknown-section", "own-section-invalid"])
def test_schema_checks_only_the_running_subcommands_section(tmp_path, capsys, tasks,
                                                            field):
    cfg = dict(WIGHTMAN_CFG, tasks=dict(WIGHTMAN_CFG["tasks"], **tasks))
    out = tmp_path / "out"
    rc = main(["wightman", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    if field is None:
        assert rc == 0 and (out / "wightman.csv").exists()
    else:
        assert rc == 2
        assert stderr_doc(capsys)["field"] == field
        assert not out.exists()


def test_subcommands_match_schema_task_sections():
    # a handler without a section could never run; a section without one is dead
    sections = CONFIG_SCHEMA["properties"]["tasks"]["properties"]
    assert sorted(c.replace("-", "_") for c in cli.SUBCOMMANDS) == sorted(sections)


def with_dim(cfg, dim):
    return dict(cfg, model=dict(cfg["model"], dim=dim))


@pytest.mark.parametrize("command, cfg", [
    ("wightman", WIGHTMAN_CFG),
    ("laplace-check", with_task(LAPLACE_CFG, "laplace_check",
                                configs=[[[0.5, 0.0, 0.0], [1.25, 0.0, 0.0]]])),
    ("bounds", {"model": ATOM_MODEL, "tasks": {"bounds": {"orders": [3]}}}),
    ("certify", CERTIFY_CFG),
    ("krein", KREIN_CFG),
    ("cluster", CLUSTER_CFG),
    ("spectral", SPECTRAL_CFG),
])
def test_momentum_space_subcommands_reject_dim_above_two(tmp_path, capsys, command,
                                                         cfg):
    rc = main([command, "--config", write_cfg(tmp_path, with_dim(cfg, 3)),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == "model.dim"
    assert not (tmp_path / "run").exists()


# ---- wightman pipeline and manifests ----

@pytest.fixture
def wightman_cfg(tmp_path):
    return write_cfg(tmp_path, WIGHTMAN_CFG)


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


# each subcommand's config and outputs, in the order its handler returns them
SUBCOMMAND_RUNS = [
    ("sample", SAMPLE_CFG, ["sample.csv"]),
    ("schwinger", SCHWINGER_CFG, ["schwinger.csv"]),
    ("wightman", WIGHTMAN_CFG, ["wightman.csv", "wightman_records.jsonl"]),
    ("laplace-check", LAPLACE_CFG, ["laplace_check.csv"]),
    ("bounds", BOUNDS_CFG, ["bounds.csv", "bounds.json"]),
    ("certify", CERTIFY_CFG, ["certificate.json", "certify.csv"]),
    ("krein", KREIN_CFG, ["krein.json", "krein_eigenvalues.csv"]),
    ("cluster", CLUSTER_CFG, ["cluster.csv"]),
    ("spectral", SPECTRAL_CFG, ["spectral.json", "spectral.csv"]),
]


def test_manifest_lists_outputs_and_config_hash(tmp_path):
    import hashlib

    assert sorted(command for command, _, _ in SUBCOMMAND_RUNS) == sorted(cli.SUBCOMMANDS)
    for command, cfg, outputs in SUBCOMMAND_RUNS:
        path = write_cfg(tmp_path, cfg, f"{command}.json")
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
        raw = open(path, "rb").read()
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
        assert manifest["subcommand"] == command
        assert manifest["seed"] == cfg.get("seed", 0)
        assert manifest["status"] == "ok"
        assert "error" not in manifest
        assert sorted(manifest["versions"]) == ["kreinfield", "numpy", "python"]


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


def test_failed_refinement_writes_its_history(tmp_path, wightman_cfg, capsys,
                                             monkeypatch):
    import kreinfield.wightman
    from kreinfield.quadrature import refine

    rounds = {8: 1.0 + 0.5j, 16: 2.0 - 0.25j}

    def diverges(*args, **kwargs):
        return refine(rounds.get, (8, 16), 1e-9, 0.0, "forced")

    monkeypatch.setattr(kreinfield.wightman, "truncated_momentum_eval", diverges)
    out = tmp_path / "out"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out)]) == 1
    rows = [[8, 1.0, 0.5], [16, 2.0, -0.25]]
    assert stderr_doc(capsys)["history"] == rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["residual"] == pytest.approx(abs(rounds[16] - rounds[8]))
    assert manifest["history"] == rows


def test_task_failure_says_where_it_was_raised(tmp_path, wightman_cfg, capsys,
                                              monkeypatch):
    def deep(level):
        if level == 0:
            raise ValueError("forced")
        deep(level - 1)

    def handler(*args):
        deep(8)

    monkeypatch.setitem(cli._HANDLERS, "wightman", handler)
    out = tmp_path / "out"
    assert main(["wightman", "--config", wightman_cfg, "--out", str(out)]) == 1
    err = stderr_doc(capsys)
    assert err["message"] == "ValueError: forced"
    # the five innermost frames, innermost last, with the file's basename
    line = deep.__code__.co_firstlineno + 2
    assert err["where"] == [f"test_cli.py:{line + 1} in deep"] * 4 + [
        f"test_cli.py:{line} in deep"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["where"] == err["where"]
    # a config error names its field, not a place in the code
    assert main(["wightman", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2
    assert "where" not in stderr_doc(capsys)


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
    path = write_cfg(tmp_path, SAMPLE_CFG)
    outs = [tmp_path / n for n in ("a", "b", "c")]
    assert main(["sample", "--config", path, "--out", str(outs[0])]) == 0
    assert main(["sample", "--config", path, "--out", str(outs[1])]) == 0
    assert main(["sample", "--config", path, "--out", str(outs[2]), "--seed", "10"]) == 0
    rows = [(o / "sample.csv").read_bytes() for o in outs]
    assert rows[0] == rows[1]
    assert rows[0] != rows[2]
    m = json.loads((outs[2] / "manifest.json").read_text())
    assert m["seed"] == 10


TWO_ATOM_MODEL = dict(ATOM_MODEL, levy={"drift": 0.1, "variance": 0.5,
                                        "atoms": [[-0.7, 0.25], [1.0, 2.0]]})
TWO_ATOM_TASK = {"n_samples": 400, "smear_centers": [[0.5], [-1.0], [0.25]],
                 "smear_width": 0.8}


def _two_atom_cfg(task):
    return {"model": TWO_ATOM_MODEL, "lattice": {"sites": 32, "spacing": 0.25},
            "seed": 4, "tasks": task}


# the Monte Carlo columns, (moment, std_error) per subset or (mc, std_error)
# per order: a change to a stream, the draw order or the order of a sum
# moves them
@pytest.mark.parametrize("command, cfg, want", [
    pytest.param("sample", SAMPLE_CFG,
                 {"1": (2.09670331858711, 0.1306814449741249)}, id="sample"),
    pytest.param("schwinger", SCHWINGER_CFG,
                 {"2": (1.5144590695462945, 0.05839504274885925)}, id="schwinger"),
    pytest.param("sample", _two_atom_cfg({"sample": TWO_ATOM_TASK}), {
        "1": (2.062689906912118, 0.04110620361651538),
        "1-2": (5.791099748808649, 0.20207295164451003),
        "1-2-3": (20.457641828697867, 1.0630478600960973),
        "1-3": (6.6717316001286235, 0.21069811416527448),
        "2": (2.1318151709903947, 0.0577666592728233),
        "2-3": (6.025515831022825, 0.2127204752961983),
        "3": (2.0662884846528726, 0.0399255995073684),
    }, id="sample-two-atoms"),
    pytest.param("schwinger", _two_atom_cfg(
        {"schwinger": dict(TWO_ATOM_TASK, orders=[2, 3])}), {
        "2": (1.3938261122046303, 0.11286362641515806),
        "3": (0.011961532103313743, 0.349971677100502),
    }, id="schwinger-two-atoms"),
])
def test_monte_carlo_outputs_are_pinned(tmp_path, command, cfg, want):
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / f"{command}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if command == "sample":
        got = {r["subset"]: (float(r["moment"]), float(r["std_error"])) for r in rows}
    else:
        got = {r["order"]: (float(r["mc"]), float(r["std_error"])) for r in rows}
    assert got == want


@pytest.mark.parametrize("task", [
    {"sample": {"n_samples": 25, "n_batches": 20}},
    {"schwinger": {"orders": [2], "n_samples": 20, "n_batches": 40}},
    {"schwinger": {"orders": [2], "n_samples": 30}},  # the default 20 batches
], ids=["sample-25-by-20", "schwinger-20-by-40", "schwinger-30-by-default"])
def test_n_batches_must_divide_n_samples(tmp_path, capsys, task):
    (name, sect), = task.items()
    sect = dict(sect, smear_centers=[[0.5], [-1.0]], smear_width=0.8)
    cfg = {"model": ATOM_MODEL, "lattice": {"sites": 16, "spacing": 0.5},
           "tasks": {name: sect}}
    rc = main([name, "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == f"tasks.{name}.n_batches"
    assert not (tmp_path / "run").exists()


def test_schwinger_table_within_errors(tmp_path):
    out = tmp_path / "out"
    assert main(["schwinger", "--config", write_cfg(tmp_path, SCHWINGER_CFG),
                 "--out", str(out)]) == 0
    header, row = (out / "schwinger.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert int(vals["order"]) == 2
    assert float(vals["sigmas"]) < 5.0


# ---- task pipelines ----

def test_laplace_check_writes_gap_row(tmp_path):
    out = tmp_path / "out"
    assert main(["laplace-check", "--config", write_cfg(tmp_path, LAPLACE_CFG),
                 "--out", str(out)]) == 0
    header, row = (out / "laplace_check.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["passed"] == "True"
    assert float(vals["gap"]) <= 0.02


def test_laplace_gap_bound_ignores_quadrature_tolerance(tmp_path):
    # the README's minimal config: the gap is held to tasks.laplace_check.tolerance,
    # and quadrature.tolerance does not replace it
    cfg = dict(LAPLACE_CFG, seed=7, quadrature={"tolerance": 1e-9})
    out = tmp_path / "out"
    assert main(["laplace-check", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, row = (out / "laplace_check.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["tolerance"]) == 0.02
    assert vals["passed"] == "True"


def test_bounds_vector_constants(tmp_path):
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_cfg(tmp_path, BOUNDS_CFG),
                 "--out", str(out)]) == 0
    header, row = (out / "bounds.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["family"] == "vector"
    assert float(vals["constant"]) == pytest.approx(2 * math.pi**2, rel=5e-3)
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["vector"][0]["order"] == 3
    # vector slots do not read the scalar model, so its dimension is free
    out4 = tmp_path / "out4"
    assert main(["bounds", "--config", write_cfg(tmp_path, with_dim(BOUNDS_CFG, 4)),
                 "--out", str(out4)]) == 0
    assert (out4 / "bounds.csv").read_text() == (out / "bounds.csv").read_text()


def test_bounds_scalar_factors_match_library(tmp_path):
    from kreinfield.green import GreenSpec
    from kreinfield.hssc import compute_scalar_factors

    cfg = {"model": ATOM_MODEL, "tasks": {"bounds": {"orders": [3]}}}
    out = tmp_path / "out"
    assert main(["bounds", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    factors = doc["scalar_factors"]
    want = compute_scalar_factors(GreenSpec(1, 0.5, 1.0))
    for name in ("overlap_sup", "energy_sup", "spatial", "overlap_ceiling"):
        assert factors[name] == getattr(want, name)
    assert factors["energy_history"] == list(want.energy_history)
    assert "interior_max" not in factors and "boundary_max" not in factors
    assert "gamma" not in factors
    assert doc["scalar"][0]["order"] == 3


def test_certify_gaussian_passes_exit_zero(tmp_path):
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, CERTIFY_CFG),
                 "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["model"]["quadratic"] is True
    assert "runtime_seconds" not in cert  # timing lives in the manifest
    assert "gamma" not in cert
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certify_runtime_seconds"] >= 0.0
    # the per-order rows, then the pair row: 5 of the 10 pairs i <= j are
    # above the degree cap 3
    with open(out / "certify.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["order", "count", "worst_ratio", "min_margin", "skipped"]
    assert [row[0] for row in rows] == ["2", "3", "pairs"]
    assert [row[-1] for row in rows[:-1]] == ["0", "0"]
    pairs = cert["pairwise"]
    assert rows[-1][1:] == [str(pairs["count"]), repr(pairs["worst_ratio"]),
                            repr(pairs["min_margin"]), str(pairs["skipped"])]
    assert pairs["skipped"] == 5


def test_certify_zero_seminorm_member_exits_zero(tmp_path):
    # a zero-amplitude member has seminorm 0 and W = 0: each of its pair
    # rows reads 0 <= 0, ratio 0, where the ratio used to be inf
    cfg = {"model": GAUSS_MODEL, "tasks": {"certify": {"n_max": 2, "tests": [
        {"slots": [{"center": [0.2], "width": 0.9, "amplitude": 0.0}]},
        {"slots": [{"center": [-0.3], "width": 1.0}]}]}}}
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    text = (out / "certificate.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    cert = json.loads(text)
    assert cert["passed"] is True
    assert cert["pairwise"]["count"] == 3
    assert cert["pairwise"]["skipped"] == 0
    assert 0.0 < cert["pairwise"]["worst_ratio"] < 1.0


def test_certify_with_no_family_is_config_error(tmp_path, capsys):
    cfg = {"model": GAUSS_MODEL, "tasks": {"certify": {"n_max": 2}}}
    rc = main(["certify", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = stderr_doc(capsys)
    assert doc["error"] == "config"
    assert doc["field"] == "tasks.certify"
    assert not (tmp_path / "out").exists()


def test_certificate_that_does_not_pass_still_writes_its_outputs(tmp_path, capsys,
                                                                 monkeypatch):
    import kreinfield.hssc

    cert = {"passed": False, "runtime_seconds": 0.5,
            "per_order": [{"order": 2, "count": 1, "worst_ratio": 1.5,
                           "min_margin": -0.25}],
            "pairwise": {"count": 1, "worst_ratio": 1.5, "min_margin": -0.25,
                         "skipped": 0}}
    monkeypatch.setattr(kreinfield.hssc, "hssc_certify",
                        lambda *args, **kwargs: dict(cert))
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, CERTIFY_CFG),
                 "--out", str(out)]) == 1
    assert stderr_doc(capsys)["error"] == "task"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["message"] == "certificate did not pass"
    assert manifest["outputs"] == ["certificate.json", "certify.csv"]
    assert json.loads((out / "certificate.json").read_text())["passed"] is False
    with open(out / "certify.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == [["2", "1", "1.5", "-0.25", "0"],
                                            ["pairs", "1", "1.5", "-0.25", "0"]]


def test_krein_report_reduces_gram(tmp_path):
    out = tmp_path / "out"
    assert main(["krein", "--config", write_cfg(tmp_path, KREIN_CFG),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "krein.json").read_text())
    assert doc["basis_size"] == 3
    assert doc["majorization"]["passed"] is True
    assert doc["krein"]["metric_self_inverse_defect"] <= 1e-10
    assert doc["krein"]["reconstruction_error"] <= 1e-9
    eig_rows = (out / "krein_eigenvalues.csv").read_text().splitlines()
    assert len(eig_rows) == 4


def test_cluster_rows_decay(tmp_path):
    out = tmp_path / "out"
    assert main(["cluster", "--config", write_cfg(tmp_path, CLUSTER_CFG),
                 "--out", str(out)]) == 0
    rows = (out / "cluster.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[1] < vals[0]


def test_spectral_pass_and_fail_paths(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectral", "--config", write_cfg(tmp_path, SPECTRAL_CFG),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "spectral.json").read_text())
    assert doc["passed"] is True

    # a control with no overlap either cannot certify anything
    cfg = with_task(SPECTRAL_CFG, "spectral", control=OFF_SUPPORT)
    rc = main(["spectral", "--config", write_cfg(tmp_path, cfg, "bad.json"),
               "--out", str(tmp_path / "out2")])
    assert rc == 1
    assert stderr_doc(capsys)["error"] == "task"
    manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["message"] == "spectral support check failed"
    assert manifest["outputs"] == ["spectral.json", "spectral.csv"]


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


def test_cli_import_loads_neither_numpy_nor_jsonschema():
    # the handlers import the library in their bodies, so --help and a
    # config error stay fast
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = ("import sys, kreinfield.cli\n"
            "print(sorted(m for m in ('numpy', 'jsonschema') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    # scipy is a test oracle only: no subcommand and no manifest imports it
    import os
    import subprocess
    import sys
    from pathlib import Path

    argvs = [[command, "--config", write_cfg(tmp_path, cfg, f"{command}.json"),
              "--out", str(tmp_path / command)] for command, cfg, _ in SUBCOMMAND_RUNS]
    code = ("import json, sys\n"
            "from kreinfield.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == f"{[0] * len(argvs)} False"
