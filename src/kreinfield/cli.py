"""Batch driver: validated experiment configs in, tables and manifests out.

Every subcommand reads one JSON config (schema below), runs a pipeline, and
writes its results as CSV tables and JSON documents plus a ``manifest.json``
recording the config hash, effective seed, package versions, the produced
files and the run's status.  Numeric outputs are deterministic for a fixed
config and seed; only the manifest carries timestamps and runtimes.  A
non-finite number is never written: the run fails instead.

Exit codes: 0 success, 1 task failure, 2 configuration error.  Once the
output directory is known, a failed task still writes the manifest, with
status "failed", the error kind and message, and, for a quadrature that did
not converge, its residual and the [p, real, imag] rows of the refinement
rounds it ran.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from .errors import QuadratureError

CONFIG_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["model"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["kind", "dim", "alpha", "mass", "levy"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["scalar"]},
                "dim": {"type": "integer", "minimum": 1, "maximum": 4},
                "alpha": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 0.5},
                "mass": {"type": "number", "exclusiveMinimum": 0.0},
                "levy": {
                    "type": "object",
                    "required": ["drift", "variance", "atoms"],
                    "additionalProperties": False,
                    "properties": {
                        "drift": {"type": "number"},
                        "variance": {"type": "number", "minimum": 0.0},
                        "atoms": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
        "lattice": {
            "type": "object",
            "required": ["sites", "spacing"],
            "additionalProperties": False,
            "properties": {
                "sites": {"type": "integer", "minimum": 2},
                "spacing": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0.0}
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "tasks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sample": {
                    "type": "object",
                    "required": ["n_samples", "smear_centers", "smear_width"],
                    "additionalProperties": False,
                    "properties": {
                        "n_samples": {"type": "integer", "minimum": 20},
                        "n_batches": {"type": "integer", "minimum": 2},
                        "smear_centers": {
                            "type": "array",
                            "minItems": 1,
                            "maxItems": 6,
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                        "smear_width": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
                "schwinger": {
                    "type": "object",
                    "required": ["orders", "n_samples", "smear_centers", "smear_width"],
                    "additionalProperties": False,
                    "properties": {
                        "orders": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "integer", "minimum": 2, "maximum": 6},
                        },
                        "n_samples": {"type": "integer", "minimum": 20},
                        "n_batches": {"type": "integer", "minimum": 2},
                        "smear_centers": {
                            "type": "array",
                            "minItems": 1,
                            "maxItems": 6,
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                        "smear_width": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
                "wightman": {
                    "type": "object",
                    "required": ["tests"],
                    "additionalProperties": False,
                    "properties": {
                        "tests": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/tensor"},
                        }
                    },
                },
                "laplace_check": {
                    "type": "object",
                    "required": ["configs"],
                    "additionalProperties": False,
                    "properties": {
                        "configs": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "items": {"type": "array", "items": {"type": "number"}},
                            },
                        },
                        "tolerance": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
                "bounds": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "orders": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 3, "maximum": 12},
                        },
                        "vector_slots": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
                "certify": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "n_max": {"type": "integer", "minimum": 2, "maximum": 6},
                        "tests": {
                            "type": "array",
                            "items": {"$ref": "#/definitions/tensor"},
                        },
                        "random_family": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "singles": {"type": "integer", "minimum": 0},
                                "doubles": {"type": "integer", "minimum": 0},
                                "triples": {"type": "integer", "minimum": 0},
                                "quads": {"type": "integer", "minimum": 0},
                                "center_scale": {
                                    "type": "number",
                                    "exclusiveMinimum": 0.0,
                                },
                            },
                        },
                    },
                },
                "krein": {
                    "type": "object",
                    "required": ["n_functions", "monomials"],
                    "additionalProperties": False,
                    "properties": {
                        "n_functions": {"type": "integer", "minimum": 1, "maximum": 8},
                        "monomials": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "maxItems": 3,
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                        "seminorm_scale": {
                            "type": "number",
                            "exclusiveMinimum": 0.0,
                        },
                        "search_candidates": {"type": "integer", "minimum": 0},
                    },
                },
                "cluster": {
                    "type": "object",
                    "required": ["direction", "lambdas", "left", "right"],
                    "additionalProperties": False,
                    "properties": {
                        "direction": {
                            "type": "array",
                            "minItems": 2,
                            "items": {"type": "number"},
                        },
                        "lambdas": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "number", "minimum": 0.0},
                        },
                        "left": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/slot"},
                        },
                        "right": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/slot"},
                        },
                    },
                },
                "spectral": {
                    "type": "object",
                    "required": ["off_support", "control"],
                    "additionalProperties": False,
                    "properties": {
                        "off_support": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/tensor"},
                        },
                        "control": {"$ref": "#/definitions/tensor"},
                        "tolerance": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
            },
        },
    },
    "definitions": {
        "slot": {
            "type": "object",
            "required": ["center", "width"],
            "additionalProperties": False,
            "properties": {
                "center": {"type": "array", "items": {"type": "number"}},
                "width": {"type": "number", "exclusiveMinimum": 0.0},
                "freq": {"type": "array", "items": {"type": "number"}},
                "amplitude": {"type": "number"},
            },
        },
        "tensor": {
            "type": "object",
            "required": ["slots"],
            "additionalProperties": False,
            "properties": {
                "slots": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/definitions/slot"},
                },
                "prefactor": {"type": "number"},
            },
        },
    },
}

SUBCOMMANDS = (
    "sample",
    "schwinger",
    "wightman",
    "laplace-check",
    "bounds",
    "certify",
    "krein",
    "cluster",
    "spectral",
)


def _fail(
    kind: str,
    message: str,
    field: Optional[str] = None,
    residual: Optional[float] = None,
    history: Optional[list] = None,
) -> dict:
    doc: Dict[str, object] = {"error": kind, "message": message}
    if field is not None:
        doc["field"] = field
    if residual is not None:
        doc["residual"] = residual if math.isfinite(residual) else None
    if history is not None:
        doc["history"] = [[p] + [v if math.isfinite(v) else None for v in vals]
                          for p, *vals in history]
    print(json.dumps(doc), file=sys.stderr)
    return doc


class _CheckFailed(Exception):
    """A task ran to the end and wrote its outputs, but its check failed."""


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite(convert: Callable[[str], float]) -> Callable[[str], float]:
    """A JSON number parser that rejects literals overflowing a float (1e999)."""
    def parse(text: str) -> float:
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text[:24]}")
        return convert(text)
    return parse


@functools.lru_cache(maxsize=None)
def _config_validator():
    """The validator of CONFIG_SCHEMA, built once per process.

    ``jsonschema.validate`` would check the schema against its metaschema
    and build a validator on every call; the schema's own check is a test.
    """
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _load_config(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail("config", f"cannot read config: {exc}")
        return None, None
    try:
        cfg = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant,
                         parse_float=_finite(float), parse_int=_finite(int))
    except ValueError as exc:  # bad encoding, bad syntax or a non-finite number
        _fail("config", f"config is not valid JSON: {exc}")
        return None, None
    from jsonschema.exceptions import best_match

    exc = best_match(_config_validator().iter_errors(cfg))
    if exc is not None:  # the error jsonschema.validate would raise
        field = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        _fail("config", exc.message, field=field)
        return None, None
    bad = _semantic_check(cfg)
    if bad is not None:
        _fail("config", bad[1], field=bad[0])
        return None, None
    return cfg, hashlib.sha256(raw).hexdigest()


def _semantic_check(cfg: dict):
    """Constraints the schema cannot express: (field, message) or None."""
    from .levy import LevyTriple

    try:  # the model objects' own checks, e.g. a zero jump size
        for i, atom in enumerate(cfg["model"]["levy"]["atoms"]):
            field = f"model.levy.atoms.{i}"
            LevyTriple(atoms=(atom,))
        field = "model"
        _model_objects(cfg)
    except ValueError as exc:  # DomainError is a ValueError
        return field, str(exc)
    dim = cfg["model"]["dim"]
    tasks = cfg.get("tasks") or {}

    def point(field, p):
        if len(p) != dim:
            return field, f"expected {dim} coordinates, got {len(p)}"
        return None

    def slots(field, doc):
        for j, s in enumerate(doc["slots"]):
            bad = point(f"{field}.slots.{j}.center", s["center"])
            if bad:
                return bad
            if s.get("freq") is not None and len(s["freq"]) != dim:
                return f"{field}.slots.{j}.freq", f"expected {dim} components"
        return None

    for name in ("sample", "schwinger"):
        sect = tasks.get(name)
        if sect:
            for i, c in enumerate(sect["smear_centers"]):
                bad = point(f"tasks.{name}.smear_centers.{i}", c)
                if bad:
                    return bad
            # the jackknife needs equal batches; a remainder also catches
            # n_batches > n_samples
            n_batches, n_samples = sect.get("n_batches", 20), sect["n_samples"]
            if n_samples % n_batches:
                return (f"tasks.{name}.n_batches",
                        f"n_batches {n_batches} must divide n_samples {n_samples}")
    if "schwinger" in tasks:
        sect = tasks["schwinger"]
        if max(sect["orders"]) > len(sect["smear_centers"]):
            return "tasks.schwinger.orders", "an order exceeds the number of smear centers"
    for name, key in (("wightman", "tests"), ("spectral", "off_support"),
                      ("certify", "tests")):
        sect = tasks.get(name)
        for i, doc in enumerate((sect or {}).get(key, [])):
            bad = slots(f"tasks.{name}.{key}.{i}", doc)
            if bad:
                return bad
    if "spectral" in tasks:
        bad = slots("tasks.spectral.control", tasks["spectral"]["control"])
        if bad:
            return bad
    for i, pts in enumerate(tasks.get("laplace_check", {}).get("configs", [])):
        for j, p in enumerate(pts):
            bad = point(f"tasks.laplace_check.configs.{i}.{j}", p)
            if bad:
                return bad
    if "cluster" in tasks:
        sect = tasks["cluster"]
        bad = point("tasks.cluster.direction", sect["direction"])
        if bad:
            return bad
        for side in ("left", "right"):
            for i, s in enumerate(sect[side]):
                bad = point(f"tasks.cluster.{side}.{i}.center", s["center"])
                if bad:
                    return bad
    return None


def _model_objects(cfg: dict):
    from .green import GreenSpec
    from .levy import LevyTriple

    m = cfg["model"]
    spec = GreenSpec(m["dim"], m["alpha"], m["mass"])
    lv = m["levy"]
    triple = LevyTriple(
        drift=lv["drift"],
        variance=lv["variance"],
        atoms=tuple((float(s), float(r)) for s, r in lv["atoms"]),
    )
    return spec, triple


def _lattice(cfg: dict):
    from .lattice import Lattice

    sect = cfg.get("lattice")
    if sect is None:
        raise ValueError("this subcommand needs a lattice section in the config")
    return Lattice(cfg["model"]["dim"], sect["sites"], sect["spacing"])


def _slot_function(doc: dict, dim: int):
    from .testfunctions import TestFunction

    center = tuple(float(x) for x in doc["center"])
    if len(center) != dim:
        raise ValueError("slot center does not match the model dimension")
    freq = doc.get("freq")
    if freq is not None:
        freq = tuple(float(x) for x in freq)
    return TestFunction.gaussian(
        center, float(doc["width"]), amplitude=doc.get("amplitude", 1.0), freq=freq
    )


def _tensor_function(doc: dict, dim: int):
    from .testfunctions import TensorTestFunction

    factors = tuple(_slot_function(s, dim) for s in doc["slots"])
    return TensorTestFunction(factors, prefactor=doc.get("prefactor", 1.0))


def _write_csv(path: str, header: List[str], rows: List[list]) -> None:
    for i, row in enumerate(rows):
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise ValueError(
                    f"{os.path.basename(path)}: non-finite value {cell} in row {i}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(path: str, doc, **kwargs) -> str:
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:  # NaN or infinity somewhere in doc
        raise ValueError(f"{os.path.basename(path)}: {exc}") from None


def _write_json(path: str, doc) -> None:
    text = _json_text(path, doc, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_jsonl(path: str, records: List[dict]) -> None:
    lines = [_json_text(path, rec) + "\n" for rec in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _task_section(cfg: dict, name: str) -> dict:
    tasks = cfg.get("tasks") or {}
    sect = tasks.get(name)
    if sect is None:
        raise ValueError(f"config has no tasks.{name} section")
    return sect


# -- subcommand handlers ----------------------------------------------------------


def _run_sample(cfg, args, out, files):
    from .euclidean import estimate_moment_table
    from .green import green_alpha_lattice
    from .lattice import sample_function
    from .testfunctions import TestFunction

    spec, triple = _model_objects(cfg)
    lat = _lattice(cfg)
    task = _task_section(cfg, "sample")
    kernel = green_alpha_lattice(lat, spec)
    weights = [
        sample_function(
            lat, TestFunction.gaussian(tuple(c), task["smear_width"])
        ).values.real
        for c in task["smear_centers"]
    ]
    table = estimate_moment_table(
        lat,
        kernel,
        weights,
        triple,
        task["n_samples"],
        args.effective_seed,
        n_batches=task.get("n_batches", 20),
    )
    rows = [
        ["-".join(map(str, key)), est.value, est.std_error, est.n_samples]
        for key, est in sorted(table.items())
    ]
    path = os.path.join(out, "sample.csv")
    _write_csv(path, ["subset", "moment", "std_error", "n_samples"], rows)
    files.append(path)


def _run_schwinger(cfg, args, out, files):
    from .euclidean import estimate_schwinger_mc
    from .green import green_alpha_lattice
    from .lattice import sample_function
    from .schwinger import smeared_truncated_correlator
    from .testfunctions import TestFunction

    spec, triple = _model_objects(cfg)
    lat = _lattice(cfg)
    task = _task_section(cfg, "schwinger")
    tests = [
        TestFunction.gaussian(tuple(c), task["smear_width"])
        for c in task["smear_centers"]
    ]
    weights = [sample_function(lat, t).values.real for t in tests]
    rows = []
    for n in task["orders"]:
        if n > len(tests):
            raise ValueError(f"order {n} exceeds the number of smear centers")
        analytic = smeared_truncated_correlator(lat, spec, triple, tests[:n])
        mc = estimate_schwinger_mc(
            lat,
            green_alpha_lattice(lat, spec),
            weights[:n],
            triple,
            task["n_samples"],
            args.effective_seed,
            n_batches=task.get("n_batches", 20),
        )
        diff = abs(mc.value - analytic)
        sigmas = diff / mc.std_error if mc.std_error > 0 else float("inf")
        rows.append([n, analytic, mc.value, mc.std_error, diff, sigmas])
    path = os.path.join(out, "schwinger.csv")
    _write_csv(
        path, ["order", "analytic", "mc", "std_error", "abs_diff", "sigmas"], rows
    )
    files.append(path)


def _run_wightman(cfg, args, out, files):
    from .quadrature import collect
    from .wightman import truncated_momentum_eval

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "wightman")
    rows = []
    records = []
    for idx, doc in enumerate(task["tests"]):
        tensor = _tensor_function(doc, spec.dim)
        with collect() as rec:
            val = truncated_momentum_eval(tensor, spec, triple, args.tolerance)
        rows.append([idx, tensor.n_points, val.real, val.imag])
        for entry in rec:
            entry["test_index"] = idx
            records.append(entry)
    path = os.path.join(out, "wightman.csv")
    _write_csv(path, ["test_index", "order", "real", "imag"], rows)
    files.append(path)
    jpath = os.path.join(out, "wightman_records.jsonl")
    _write_jsonl(jpath, records)
    files.append(jpath)


def _run_laplace_check(cfg, args, out, files):
    import numpy as np

    from .wightman import laplace_bridge_check

    spec, triple = _model_objects(cfg)
    lat = _lattice(cfg)
    task = _task_section(cfg, "laplace_check")
    tol = args.tolerance or task.get("tolerance", 5e-3)
    rows = []
    for pts in task["configs"]:
        arr = np.asarray(pts, dtype=float)
        rep = laplace_bridge_check(arr, spec, triple, lat)
        rows.append([len(pts), rep.lhs, rep.rhs, rep.gap, tol, rep.gap <= tol])
    path = os.path.join(out, "laplace_check.csv")
    _write_csv(path, ["order", "lattice", "momentum", "gap", "tolerance", "passed"], rows)
    files.append(path)
    if not all(r[-1] for r in rows):
        raise _CheckFailed("a bridge gap exceeded its tolerance")


def _run_bounds(cfg, args, out, files):
    from .hssc import (
        bound_integral_scalar,
        bound_integral_vector,
        compute_scalar_factors,
    )

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "bounds")
    orders = task.get("orders", [])
    vector_slots = task.get("vector_slots", [])
    rows = []
    doc: Dict[str, object] = {"scalar": [], "vector": []}
    if orders:
        factors = compute_scalar_factors(spec)
        doc["scalar_factors"] = factors.as_dict()
        for n in orders:
            rep = bound_integral_scalar(n, spec, triple, factors)
            rows.append(["scalar", n, "", rep.constant])
            doc["scalar"].append(rep.as_dict())
    for n, j in vector_slots:
        rep = bound_integral_vector(n, j)
        rows.append(["vector", n, j, rep.constant])
        doc["vector"].append(rep.as_dict())
    path = os.path.join(out, "bounds.csv")
    _write_csv(path, ["family", "order", "slot", "constant"], rows)
    files.append(path)
    jpath = os.path.join(out, "bounds.json")
    _write_json(jpath, doc)
    files.append(jpath)


def _random_family(spec, block: dict, seed: int):
    import numpy as np

    from .testfunctions import TensorTestFunction, TestFunction

    rng = np.random.default_rng(seed)
    scale = block.get("center_scale", 1.2)

    def one(n):
        factors = []
        for _ in range(n):
            center = tuple(rng.uniform(-scale, scale, size=spec.dim))
            width = float(rng.uniform(0.8, 1.2))
            freq = tuple(rng.uniform(-0.6, 0.6, size=spec.dim))
            factors.append(TestFunction.gaussian(center, width, freq=freq))
        return TensorTestFunction(tuple(factors))

    fam = []
    for count, n in (
        (block.get("singles", 0), 1),
        (block.get("doubles", 0), 2),
        (block.get("triples", 0), 3),
        (block.get("quads", 0), 4),
    ):
        fam.extend(one(n) for _ in range(count))
    return fam


def _run_certify(cfg, args, out, files):
    from .hssc import hssc_certify

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "certify")
    family = [_tensor_function(doc, spec.dim) for doc in task.get("tests", [])]
    if "random_family" in task:
        family.extend(_random_family(spec, task["random_family"], args.effective_seed))
    if not family:
        raise ValueError("certify needs tests and/or a random_family block")
    cert = hssc_certify(
        spec, triple, family, n_max=task.get("n_max", 4), tol=args.tolerance
    )
    runtime = cert.pop("runtime_seconds")  # timestamps live in the manifest only
    path = os.path.join(out, "certificate.json")
    _write_json(path, cert)
    files.append(path)
    rows = [
        [row["order"], row["count"], row["worst_ratio"], row["min_margin"]]
        for row in cert["per_order"]
    ]
    cpath = os.path.join(out, "certify.csv")
    _write_csv(cpath, ["order", "count", "worst_ratio", "min_margin"], rows)
    files.append(cpath)
    args.manifest_extra["certify_runtime_seconds"] = runtime
    if not cert["passed"]:
        raise _CheckFailed("certificate did not pass")


def _run_krein(cfg, args, out, files):
    import numpy as np

    from .hssc import (
        SchwartzNormSpec,
        build_gram_pair,
        krein_reduce,
        majorization_check,
        schwartz_norm,
        search_indefinite_gram,
    )
    from .testfunctions import TestFunction

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "krein")
    rng = np.random.default_rng(args.effective_seed)
    pool = []
    for _ in range(task["n_functions"]):
        center = tuple(rng.uniform(-1.2, 1.2, size=spec.dim))
        width = float(rng.uniform(0.7, 1.2))
        freq = tuple(rng.uniform(-0.8, 0.8, size=spec.dim))
        pool.append(TestFunction.gaussian(center, width, freq=freq))
    monos = []
    for idxs in task["monomials"]:
        if any(i >= len(pool) for i in idxs):
            raise ValueError("monomial index outside the function pool")
        monos.append(tuple(pool[i] for i in idxs))
    nspec = SchwartzNormSpec(0, 2 * spec.dim)
    scale = task.get("seminorm_scale", 1.0)

    def seminorm(mono):
        out_ = scale
        for g in mono:
            out_ *= schwartz_norm(g, nspec)
        return out_

    pair = build_gram_pair(spec, triple, monos, seminorm, tol=args.tolerance)
    eigs = np.linalg.eigvalsh(pair.form)
    report: Dict[str, object] = {
        "basis_size": len(monos),
        "form_eigenvalues": [float(x) for x in eigs],
        "majorant_diagonal": [float(x) for x in np.diag(pair.majorant).real],
    }
    check = majorization_check(pair)
    report["majorization"] = {"ratio": check.ratio, "passed": check.passed}
    if check.passed:
        res = krein_reduce(pair)
        eye = np.eye(len(res.metric))
        report["krein"] = {
            "degenerate_dim": res.degenerate_dim,
            "metric_self_inverse_defect": float(
                np.linalg.norm(res.metric @ res.metric - eye, 2)
            ),
            "reconstruction_error": res.reconstruction_error,
            "remajorization_ratio": res.remajorization_ratio,
        }
    n_cand = task.get("search_candidates", 0)
    if n_cand:
        report["indefinite_search"] = search_indefinite_gram(
            spec, triple, n_candidates=n_cand, seed=args.effective_seed,
            tol=args.tolerance,
        )
    path = os.path.join(out, "krein.json")
    _write_json(path, report)
    files.append(path)
    rows = [[i, float(x)] for i, x in enumerate(eigs)]
    cpath = os.path.join(out, "krein_eigenvalues.csv")
    _write_csv(cpath, ["index", "eigenvalue"], rows)
    files.append(cpath)


def _run_cluster(cfg, args, out, files):
    from .wightman import cluster_decay

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "cluster")
    left = [_slot_function(doc, spec.dim) for doc in task["left"]]
    right = [_slot_function(doc, spec.dim) for doc in task["right"]]
    rows = cluster_decay(
        left,
        right,
        task["direction"],
        task["lambdas"],
        spec,
        triple,
        tol=args.tolerance or 1e-9,
    )
    path = os.path.join(out, "cluster.csv")
    _write_csv(path, ["lambda", "abs_value"], [[l, v] for l, v in rows])
    files.append(path)


def _run_spectral(cfg, args, out, files):
    from .wightman import spectral_support_check

    spec, triple = _model_objects(cfg)
    task = _task_section(cfg, "spectral")
    off = [_tensor_function(doc, spec.dim) for doc in task["off_support"]]
    control = _tensor_function(task["control"], spec.dim)
    tol = args.tolerance or task.get("tolerance", 1e-8)
    result = spectral_support_check(spec, triple, off, control, tol=tol)
    path = os.path.join(out, "spectral.json")
    _write_json(path, result)
    files.append(path)
    cpath = os.path.join(out, "spectral.csv")
    _write_csv(
        cpath,
        ["max_off_support", "control", "tolerance", "passed"],
        [[result["max_off_support"], result["control"], result["tolerance"],
          result["passed"]]],
    )
    files.append(cpath)
    if not result["passed"]:
        raise _CheckFailed("spectral support check failed")


_HANDLERS: Dict[str, Callable] = {
    "sample": _run_sample,
    "schwinger": _run_schwinger,
    "wightman": _run_wightman,
    "laplace-check": _run_laplace_check,
    "bounds": _run_bounds,
    "certify": _run_certify,
    "krein": _run_krein,
    "cluster": _run_cluster,
    "spectral": _run_spectral,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinfield",
        description="Random-field laboratory batch driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="cap BLAS/OpenMP worker pools (results are unaffected)",
        )
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="override quadrature tolerance",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            _fail("config", "--threads must be at least one", field="threads")
            return 2
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(args.threads)

    cfg, digest = _load_config(args.config)
    if cfg is None:
        return 2
    if args.tolerance is not None and args.tolerance <= 0:
        _fail("config", "--tolerance must be positive", field="tolerance")
        return 2
    if args.tolerance is None:
        args.tolerance = (cfg.get("quadrature") or {}).get("tolerance")
    args.effective_seed = (
        args.seed if args.seed is not None else cfg.get("seed", 0)
    )
    out = args.out or cfg.get("output_dir")
    if out is None:
        _fail("config", "no output directory (--out or output_dir)", field="output_dir")
        return 2
    os.makedirs(out, exist_ok=True)
    args.manifest_extra = {}

    files: List[str] = []
    t0 = time.time()
    error: Optional[dict] = None
    try:
        _HANDLERS[args.command](cfg, args, out, files)
    except Exception as exc:  # noqa: BLE001 - boundary: map to exit code 1
        message = str(exc) if isinstance(exc, _CheckFailed) else (
            f"{type(exc).__name__}: {exc}")
        if isinstance(exc, QuadratureError):
            error = _fail("task", message, residual=exc.residual,
                          history=exc.history)
        else:
            error = _fail("task", message)

    from . import __version__

    import numpy
    import scipy

    manifest = {
        "subcommand": args.command,
        "config_path": os.path.abspath(args.config),
        "config_sha256": digest,
        "status": "ok" if error is None else "failed",
        "seed": args.effective_seed,
        "tolerance": args.tolerance,
        "outputs": [os.path.basename(f) for f in files],
        "versions": {
            "kreinfield": __version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t0)),
        "wall_seconds": time.time() - t0,
    }
    manifest.update(args.manifest_extra)
    manifest.update(error or {})
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
