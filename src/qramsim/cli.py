"""Experiment runner: schema-validated configs, seeded reproducible runs,
machine-readable JSON/CSV output.

Exit codes: 0 ok, 2 config error, 3 budget or cap exceeded, 4 numerical
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

import jsonschema
import numpy as np

from . import boolfn, classical
from .boolfn import DataTable, SignedDataTable
from .device import (
    EncodingNoise,
    coherent_rotation_device,
    custom_kraus_device,
    dead_router_device,
    dephasing_device,
    global_depolarizing_device,
    noiseless_device,
    noisy_resource_state,
)
from .distill import (
    DEFAULT_COPY_BUDGET,
    CopySource,
    iterated_swap_test,
    qpca_recursive,
    qpca_simple,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvariantViolation,
    PreconditionError,
    SizeCapError,
)
from .qcore import check_register_cap, fidelity_pure, resource_state
from .rngutil import derive_rng
from .teleport import (
    DistillerSpec,
    ProtocolConfig,
    choi_gap,
    estimate_costs,
    run_protocol,
)
from .twirlset import twirled_state

COMMANDS = ("resource-state", "twirl-spectrum", "distill", "teleport-run",
            "protocol", "update-rule", "bench-classical", "costs")

# largest ``teleport-run`` trial count: the outcome draw holds one int64 per
# trial and peaks near 160 MB at this cap
TELEPORT_TRIALS_CAP = 10**7


def _load_schema(name: str) -> dict:
    path = resources.files("qramsim.schemas") / name
    return json.loads(path.read_text())


def validate_config(command: str, config: dict) -> None:
    schema = _load_schema("config.schema.json")
    key = command.replace("-", "_")
    sub = dict(schema["$defs"][key])
    sub["$defs"] = schema["$defs"]
    jsonschema.validate(config, sub)


def validate_result(payload: dict) -> None:
    schema = _load_schema("result.schema.json")
    jsonschema.validate(payload, schema)
    sub = dict(schema["$defs"][payload["command"]])
    jsonschema.validate(payload, sub)


# ---------------------------------------------------------------------------
# Config interpretation helpers.

def _build_dataset(spec: dict, n: int, seed: int, b: int = 0):
    """The command's dataset on n address bits and b data bits (b > 0 only
    for the ``protocol`` command)."""
    if "file" in spec:
        table = boolfn.load_table(spec["file"])
        if table.n != n or getattr(table, "b", 0) != b:
            raise PreconditionError(f"dataset file does not match n={n}, b={b}")
        return table
    if "bits" in spec:
        if b:
            raise PreconditionError("inline bits only supported for b = 0")
        table = DataTable.from_string(spec["bits"])
        if table.n != n:
            raise PreconditionError("dataset bits do not match n")
        return table
    rng = derive_rng(spec.get("random_seed", seed), 0xDA7A)
    if b:
        return SignedDataTable.random(n, b, rng)
    return DataTable.random(n, rng)


def _build_device(spec: dict | None, n: int):
    if spec is None:
        return None
    kind = spec["type"]
    if kind == "noiseless":
        return noiseless_device(n)
    if kind == "dead_router":
        return dead_router_device(n, spec.get("addresses", []))
    if kind == "global_depolarizing":
        return global_depolarizing_device(n, spec["p"])
    if kind == "dephasing":
        return dephasing_device(n, spec["p"])
    if kind == "coherent":
        return coherent_rotation_device(n, spec["theta"])
    if kind == "kraus_file":
        try:
            with np.load(spec["path"]) as data:
                kraus = list(data["kraus"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(
                f"{spec['path']} is not an .npz archive with a 'kraus' array") from exc
        return custom_kraus_device(n, kraus)
    raise PreconditionError(f"unknown device type {kind!r}")


def _build_encoding(spec: dict | None, n: int):
    if spec is None:
        return None
    w = spec["identity_weight"]
    if spec.get("tail", "depolarizing") == "depolarizing":
        return EncodingNoise.depolarizing(n, 1.0 - w)
    rng = derive_rng(spec.get("tail_seed", 0), 0xE2C)
    return EncodingNoise.random_tail(n, w, rng)


def _build_distiller(spec: dict | None) -> DistillerSpec:
    if spec is None or spec["kind"] == "none":
        return DistillerSpec()
    return DistillerSpec(kind=spec["kind"], eps_dist=spec.get("eps_dist", 0.1),
                         gamma=spec.get("gamma"))


# ---------------------------------------------------------------------------
# Commands. Each takes the validated config and the effective seed.

def cmd_resource_state(config: dict, seed: int) -> dict:
    n = config["n"]
    table = _build_dataset(config["dataset"], n, seed)
    device = _build_device(config.get("device"), n)
    rho = noisy_resource_state(device, table)
    fid = fidelity_pure(rho, resource_state(table))
    spectrum = sorted(float(v) for v in np.linalg.eigvalsh(rho.matrix))[::-1]
    return {"command": "resource-state", "seed": seed, "n": n,
            "fidelity": fid, "spectrum": spectrum}


def cmd_twirl_spectrum(config: dict, seed: int) -> dict:
    n = config["n"]
    table = _build_dataset(config["dataset"], n, seed)
    device = _build_device(config["device"], n)
    encoding = _build_encoding(config.get("encoding"), n)
    mode = config["mode"]
    res = twirled_state(table, device, mode=mode,
                        num_samples=config.get("num_samples"),
                        seed=seed if mode == "mc" else None,
                        encoding=encoding)
    psi = resource_state(table)
    lam = fidelity_pure(res.state, psi)
    residual = float(np.abs(res.state.matrix @ psi.amplitudes
                            - lam * psi.amplitudes).max())
    eigs = sorted(float(v) for v in np.linalg.eigvalsh(res.state.matrix))[::-1]
    return {"command": "twirl-spectrum", "seed": seed, "eigenvalues": eigs,
            "resource_eigenvalue": lam, "residual": residual,
            "num_samples": res.num_samples}


def cmd_distill(config: dict, seed: int) -> dict:
    spec = config["distiller"]
    budget = config.get("budget", DEFAULT_COPY_BUDGET)
    if "spectrum" in config:
        src = CopySource.from_spectrum(config["spectrum"])
    else:
        n = config["n"]
        table = _build_dataset(config["dataset"], n, seed)
        device = _build_device(config.get("device"), n)
        rho = noisy_resource_state(device, table)
        src = CopySource.from_density(rho.matrix)
    rng = derive_rng(seed, 0x0D15)
    kind = spec["kind"]
    if kind == "swap_test":
        rep = iterated_swap_test(src, spec.get("k", 4), rng, budget=budget)
    elif kind == "qpca_simple":
        rep = qpca_simple(src, spec["gamma"], spec["eps_dist"], budget=budget)
    elif kind == "qpca_recursive":
        rep = qpca_recursive(src, spec["gamma"], spec["alpha"],
                             spec["eps_dist"], rng, budget=budget)
    else:
        raise PreconditionError(f"distiller {kind!r} has nothing to run")
    payload = json.loads(rep.to_json())
    payload["seed"] = seed
    return {"command": "distill", "seed": seed, "report": payload}


def cmd_teleport_run(config: dict, seed: int) -> dict:
    n = config["n"]
    if config["trials"] > TELEPORT_TRIALS_CAP:
        raise SizeCapError(f"teleport-run capped at {TELEPORT_TRIALS_CAP} trials")
    table = _build_dataset(config["dataset"], n, seed)
    device = _build_device(config.get("device"), n)
    resource = noisy_resource_state(device, table)
    rng = derive_rng(seed, 0x7E1E)
    # outcome m of the |+>^n probe rho has probability
    # sum_x rho[x, x] phi[x xor m, x xor m] = tr(phi) / d = 1/d, as the
    # probe's diagonal is 1/d everywhere
    d = 1 << n
    draws = np.bincount(rng.choice(d, size=config["trials"], p=np.full(d, 1.0 / d)),
                        minlength=d)
    counts = {format(m, "x"): int(c) for m, c in enumerate(draws) if c}
    return {"command": "teleport-run", "seed": seed,
            "outcome_counts": counts, "choi_gap": choi_gap(resource, table)}


def cmd_protocol(config: dict, seed: int) -> dict:
    n = config["n"]
    b = config.get("b", 0)
    check_register_cap(n + b)           # before any table of b data bits is built
    table = _build_dataset(config["dataset"], n, seed, b=b)
    twirl = config.get("twirl", {"mode": "off"})
    cfg = ProtocolConfig(
        n=n, b=b,
        device=_build_device(config.get("device"), n + b),
        encoding=_build_encoding(config.get("encoding"), n + b),
        twirl_mode=twirl["mode"],
        twirl_samples=twirl.get("num_samples"),
        distiller=_build_distiller(config.get("distiller")),
        seed=seed,
        branch_mode=config["branch_mode"],
        copy_budget=config.get("copy_budget", DEFAULT_COPY_BUDGET),
    )
    if cfg.branch_mode == "enumerate_branches":
        record, trace = run_protocol(table, cfg)
        return {"command": "protocol", "seed": seed, "mode": cfg.branch_mode,
                "choi_gap": record.choi_gap, "rounds": record.rounds_used,
                "trace": json.loads(trace.to_json())}
    trials = config.get("trials", 1)
    rows = []
    successes = 0
    last_trace = None
    for trial in range(trials):
        action, trace = run_protocol(table, cfg, trial=trial)
        successes += int(action.matches)
        rows.append({"trial": trial, "matches": action.matches,
                     "max_deviation": action.max_deviation,
                     "rounds": len(trace.rounds),
                     "copies": trace.total_copies,
                     "degrees_decreasing": trace.strictly_decreasing_degrees()})
        last_trace = trace
    return {"command": "protocol", "seed": seed, "mode": cfg.branch_mode,
            "success_rate": successes / trials, "trials": rows,
            "trace": json.loads(last_trace.to_json())}


# The update-rule engines by config name. Each reads its function from
# ``classical`` when called, so a rebound module attribute is the one that
# runs; the circuit engine simulates a shallow circuit built beforehand.
_UR_ENGINES = {
    "naive": lambda g, m, circ: classical.ur_naive(g, m),
    "fwht": lambda g, m, circ: classical.ur_via_fwht(g, m),
    "circuit": lambda g, m, circ: classical.simulate_circuit(circ, g, m),
}


def _run_engine(engine: str, g: DataTable, m: int, circ=None) -> tuple[DataTable, int]:
    """The updated table from one engine, and the call's wall time in ns."""
    start = time.perf_counter_ns()
    out = _UR_ENGINES[engine](g, m, circ)
    return out, time.perf_counter_ns() - start


def cmd_update_rule(config: dict, seed: int) -> dict:
    n = config["n"]
    table = _build_dataset(config["dataset"], n, seed)
    m = config["m"]
    engines = config.get("engines", ["naive", "fwht"])
    outputs = {}
    for engine in engines:
        circ = classical.build_shallow_ur_circuit(n) if engine == "circuit" else None
        outputs[engine] = _run_engine(engine, table, m, circ)[0].to_hex()
    values = set(outputs.values())
    return {"command": "update-rule", "seed": seed, "outputs": outputs,
            "all_equal": len(values) == 1}


def cmd_bench_classical(config: dict, seed: int) -> dict:
    engines = config.get("engines", ["naive", "fwht"])
    rows = []
    for n in config["sizes"]:
        rng = derive_rng(seed, n)
        table = DataTable.random(n, rng)
        m = int(rng.integers(1 << n))
        for engine in engines:
            depth = width = wire = circ = None
            if engine == "circuit":
                if n > classical.CIRCUIT_N_CAP:
                    continue
                circ = classical.build_shallow_ur_circuit(n)
                met = classical.circuit_metrics(circ)
                depth, width = met["depth"], met["width"]
                wire = met["total_wire_length_1d"]
            wall = _run_engine(engine, table, m, circ)[1]
            rows.append({"n": n, "engine": engine, "wall_ns": int(wall),
                         "depth": depth, "width": width, "wire_length": wire})
    return {"command": "bench-classical", "seed": seed, "rows": rows}


def cmd_costs(config: dict, seed: int) -> dict:
    rows = []
    for n in config["n"]:
        for b in config["b"]:
            for fid in config["fidelity"]:
                for eps in config["eps"]:
                    est = estimate_costs(n, b, fid, eps)
                    rows.append({"n": n, "b": b, "fidelity": fid, "eps": eps,
                                 "queries": est.queries, "gates": est.gates,
                                 "nonclifford": est.nonclifford})
    return {"command": "costs", "seed": seed, "rows": rows}


_HANDLERS = {
    "resource-state": cmd_resource_state,
    "twirl-spectrum": cmd_twirl_spectrum,
    "distill": cmd_distill,
    "teleport-run": cmd_teleport_run,
    "protocol": cmd_protocol,
    "update-rule": cmd_update_rule,
    "bench-classical": cmd_bench_classical,
    "costs": cmd_costs,
}


def _to_csv(payload: dict) -> str:
    rows = payload.get("rows")
    if payload["command"] == "protocol" and "trace" in payload:
        lines = ["round,degree,m_hex,copies,overlap"]
        for r in payload["trace"]["rounds"]:
            lines.append(f"{r['round']},{r['degree']},{r['m_hex'] or ''},"
                         f"{r['copies']},{r['overlap']}")
        return "\n".join(lines) + "\n"
    if rows is None:
        raise PreconditionError("csv output unavailable for this command")
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _seed(text: str) -> int:
    """A seed in [0, 2^64), the range of a Philox key word, where none alias."""
    if not 0 <= int(text) < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} outside [0, 2^64)")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qramsim",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=_seed, default=None, help="override seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
        validate_config(args.command, config)
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    try:
        payload = _HANDLERS[args.command](config, seed)
        if args.format == "json":
            validate_result(payload)
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = _to_csv(payload)
    except (PreconditionError, DimensionMismatchError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SizeCapError, BudgetExceededError) as exc:
        print(f"budget/cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, FloatingPointError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 4
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
