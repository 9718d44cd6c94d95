"""End-to-end CLI runs: schema validation, determinism, exit codes."""

import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qramsim import cli
from qramsim.cli import main, validate_result
from qramsim.device import DeadRouterNoise
from qramsim.rngutil import derive_rng


def run_cli(tmp_path, command, config, fmt="json", seed=None, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / f"out-{command}-{fmt}.txt"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path),
            "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_path.read_text() if out_path.exists() else ""


def test_resource_state_noiseless(tmp_path):
    code, text = run_cli(tmp_path, "resource-state",
                         {"n": 2, "dataset": {"bits": "0110"}})
    assert code == 0
    payload = json.loads(text)
    assert payload["fidelity"] == pytest.approx(1.0)
    validate_result(payload)


def test_resource_state_dead_router(tmp_path):
    code, text = run_cli(tmp_path, "resource-state",
                         {"n": 2, "dataset": {"bits": "0111"},
                          "device": {"type": "dead_router", "addresses": [1]}})
    assert code == 0
    assert json.loads(text)["fidelity"] == pytest.approx(0.625)


def test_bad_schema_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, "resource-state",
                      {"n": 2, "dataset": {"bits": "0110"}, "bogus": 1})
    assert code == 2


def test_missing_config_exit_code(tmp_path):
    code = main(["resource-state", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_cap_exit_code(tmp_path):
    # the exact twirl is closed form for every register the schema admits
    code, text = run_cli(tmp_path, "twirl-spectrum",
                         {"n": 3, "dataset": {"random_seed": 1},
                          "device": {"type": "noiseless"}, "mode": "exact"})
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert payload["num_samples"] == 86016
    code, _ = run_cli(tmp_path, "protocol",
                      {"n": 6, "b": 1, "dataset": {"random_seed": 1},
                       "branch_mode": "enumerate_branches"}, name="cap.json")
    assert code == 3  # branch enumeration above its qubit cap
    table = tmp_path / "huge.qramtbl"
    table.write_text("QRAMTBL v1 n=36 b=0\n00\n")
    code, _ = run_cli(tmp_path, "resource-state",
                      {"n": 3, "dataset": {"file": str(table)}}, name="huge.json")
    assert code == 3  # a dataset file whose header exceeds the classical cap


def test_determinism_same_seed(tmp_path):
    cfg = {"n": 2, "dataset": {"random_seed": 7},
           "device": {"type": "dead_router", "addresses": [2]},
           "mode": "mc", "num_samples": 500}
    _, first = run_cli(tmp_path, "twirl-spectrum", cfg, seed=11)
    _, second = run_cli(tmp_path, "twirl-spectrum", cfg, seed=11, name="cfg2.json")
    assert first == second
    _, third = run_cli(tmp_path, "twirl-spectrum", cfg, seed=12, name="cfg3.json")
    assert first != third


def test_distill_command_swap_test(tmp_path):
    cfg = {"distiller": {"kind": "swap_test", "k": 3},
           "spectrum": [0.9, 0.06, 0.03, 0.01]}
    code, text = run_cli(tmp_path, "distill", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert payload["report"]["success"] is True
    assert payload["report"]["overlap"] > 0.98


def test_distill_command_qpca(tmp_path):
    spectrum = [0.3, 0.04] + [0.66 / 30] * 30
    cfg = {"distiller": {"kind": "qpca_simple", "gamma": 0.3, "eps_dist": 0.2},
           "spectrum": spectrum}
    code, text = run_cli(tmp_path, "distill", cfg)
    assert code == 0
    payload = json.loads(text)
    assert payload["report"]["overlap"] >= 0.8
    assert payload["report"]["success_probability"] >= 0.1


def test_teleport_run_command(tmp_path):
    cfg = {"n": 2, "dataset": {"random_seed": 3}, "trials": 64}
    code, text = run_cli(tmp_path, "teleport-run", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert sum(payload["outcome_counts"].values()) == 64
    assert payload["choi_gap"] == pytest.approx(0.0, abs=1e-9)


def test_teleport_run_register_cap(tmp_path):
    # outcomes come from the closed form, so the largest schema-valid
    # register runs without a 2n-qubit joint state and reports its gap
    cfg = {"n": 6, "dataset": {"random_seed": 3}, "trials": 1000}
    code, text = run_cli(tmp_path, "teleport-run", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert sum(payload["outcome_counts"].values()) == 1000
    assert set(payload["outcome_counts"]) <= {format(m, "x") for m in range(64)}
    assert 0.0 <= payload["choi_gap"] <= 1e-12


def test_protocol_command_enumeration(tmp_path):
    cfg = {"n": 3, "dataset": {"random_seed": 5},
           "branch_mode": "enumerate_branches"}
    code, text = run_cli(tmp_path, "protocol", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert payload["choi_gap"] <= 1e-10
    assert payload["rounds"] <= 3


def test_protocol_command_trajectory_csv(tmp_path):
    cfg = {"n": 2, "dataset": {"random_seed": 2}, "branch_mode": "trajectory",
           "trials": 5}
    code, text = run_cli(tmp_path, "protocol", cfg)
    assert code == 0
    payload = json.loads(text)
    assert payload["success_rate"] == 1.0
    code, text = run_cli(tmp_path, "protocol", cfg, fmt="csv", name="cfg4.json")
    assert code == 0
    header, *rows = text.splitlines()
    assert header == "round,degree,m_hex,copies,overlap"
    rounds = payload["trace"]["rounds"]
    assert rounds and len(rows) == len(rounds)
    for row, r in zip(rows, rounds):
        assert row.split(",")[:3] == [str(r["round"]), str(r["degree"]), r["m_hex"]]


def test_protocol_command_bbit_enumeration(tmp_path):
    cfg = {"n": 2, "b": 1, "dataset": {"random_seed": 4},
           "branch_mode": "enumerate_branches"}
    code, text = run_cli(tmp_path, "protocol", cfg)
    assert code == 0
    payload = json.loads(text)
    assert payload["choi_gap"] <= 1e-10
    assert payload["rounds"] <= 3


def test_protocol_command_noisy_trajectories(tmp_path):
    cfg = {"n": 2,
           "dataset": {"random_seed": 6},
           "device": {"type": "dead_router", "addresses": [1]},
           "encoding": {"identity_weight": 0.98, "tail": "random",
                        "tail_seed": 42},
           "twirl": {"mode": "mc", "num_samples": 2000},
           "distiller": {"kind": "swap_test", "eps_dist": 0.05},
           "branch_mode": "trajectory",
           "trials": 5, "seed": 3}
    code, text = run_cli(tmp_path, "protocol", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert 0.0 <= payload["success_rate"] <= 1.0
    assert all(t["degrees_decreasing"] for t in payload["trials"])


def test_update_rule_command_cross_engines(tmp_path):
    cfg = {"n": 4, "dataset": {"random_seed": 9}, "m": 5,
           "engines": ["naive", "fwht", "circuit"]}
    code, text = run_cli(tmp_path, "update-rule", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert payload["all_equal"] is True
    assert set(payload["outputs"]) == {"naive", "fwht", "circuit"}


def test_bench_classical_csv(tmp_path):
    cfg = {"sizes": [4, 8], "engines": ["naive", "fwht", "circuit"]}
    code, text = run_cli(tmp_path, "bench-classical", cfg, fmt="csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,engine,wall_ns,depth,width,wire_length"
    assert len(lines) == 1 + 6


def test_costs_command(tmp_path):
    cfg = {"n": [4, 16], "b": [0, 512], "fidelity": [0.5, 1.0], "eps": [0.01]}
    code, text = run_cli(tmp_path, "costs", cfg)
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    row = next(r for r in payload["rows"]
               if r["n"] == 16 and r["b"] == 512 and r["fidelity"] == 0.5)
    assert row["nonclifford"] == pytest.approx(16**2 * 528 / 0.02)
    perfect = next(r for r in payload["rows"] if r["fidelity"] == 1.0)
    assert perfect["queries"] == 0


def test_dataset_file_round_trip_through_cli(tmp_path):
    from qramsim.boolfn import DataTable, save_table
    import numpy as np
    table = DataTable.random(3, np.random.default_rng(1))
    path = tmp_path / "table.qramtbl"
    save_table(table, path)
    cfg = {"n": 3, "dataset": {"file": str(path)}}
    code, text = run_cli(tmp_path, "resource-state", cfg)
    assert code == 0
    assert json.loads(text)["fidelity"] == pytest.approx(1.0)


# every command but ``protocol`` runs on a plain table; each of these ran a
# signed dataset into an AttributeError and left with a traceback
PLAIN_TABLE_CONFIGS = {
    "resource-state": {},
    "twirl-spectrum": {"device": {"type": "noiseless"}, "mode": "exact"},
    "distill": {"distiller": {"kind": "swap_test", "k": 1}},
    "teleport-run": {"trials": 5},
    "update-rule": {"m": 1},
}


@pytest.mark.parametrize("command", sorted(PLAIN_TABLE_CONFIGS))
def test_signed_dataset_file_refused_by_plain_table_commands(tmp_path, capsys, command):
    from qramsim.boolfn import SignedDataTable, save_table
    import numpy as np
    path = tmp_path / "signed.qramtbl"
    save_table(SignedDataTable.random(2, 1, np.random.default_rng(1)), path)
    cfg = {"n": 2, "dataset": {"file": str(path)}, **PLAIN_TABLE_CONFIGS[command]}
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "does not match n=2, b=0" in err


def test_mc_twirl_sample_cap_exit_code(tmp_path, capsys, monkeypatch):
    from qramsim import twirlset

    def refuse(*args):
        raise AssertionError("an over-cap sample count reached the draws")

    monkeypatch.setattr(twirlset, "_twirled_state_mc", refuse)
    cfg = {"n": 3, "dataset": {"random_seed": 1}, "device": {"type": "noiseless"},
           "mode": "mc", "num_samples": twirlset.MC_SAMPLE_CAP + 1}
    code, _ = run_cli(tmp_path, "twirl-spectrum", cfg)
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


def test_dataset_file_must_match_protocol_b(tmp_path, capsys):
    from qramsim.boolfn import SignedDataTable, save_table
    import numpy as np
    path = tmp_path / "signed.qramtbl"
    save_table(SignedDataTable.random(2, 1, np.random.default_rng(2)), path)
    cfg = {"n": 2, "dataset": {"file": str(path)}, "branch_mode": "enumerate_branches"}
    assert run_cli(tmp_path, "protocol", {**cfg, "b": 1})[0] == 0
    for b in (0, 2):
        assert run_cli(tmp_path, "protocol", {**cfg, "b": b})[0] == 2
    # the dataset has no b of its own: the command's b is the only one
    inline = {"n": 2, "dataset": {"random_seed": 1, "b": 1}}
    assert run_cli(tmp_path, "resource-state", inline)[0] == 2
    assert "Traceback" not in capsys.readouterr().err


# schema-valid before the per-kind requirements: each ran into a KeyError or
# an IndexError and left with a traceback
MISSING_PARAMETER_CONFIGS = {
    "global_depolarizing_without_p": ("protocol", {"device": {"type": "global_depolarizing"}}),
    "dephasing_without_p": ("protocol", {"device": {"type": "dephasing"}}),
    "coherent_without_theta": ("protocol", {"device": {"type": "coherent"}}),
    "kraus_file_without_path": ("protocol", {"device": {"type": "kraus_file"}}),
    "qpca_simple_without_gamma": ("distill", {"distiller": {"kind": "qpca_simple",
                                                            "eps_dist": 0.2}}),
    "qpca_recursive_without_alpha": ("distill", {"distiller": {
        "kind": "qpca_recursive", "gamma": 0.3, "eps_dist": 0.2}}),
}


@pytest.mark.parametrize("name", sorted(MISSING_PARAMETER_CONFIGS))
def test_missing_kind_parameter_is_config_error(tmp_path, capsys, name):
    command, extra = MISSING_PARAMETER_CONFIGS[name]
    if command == "protocol":
        config = {"n": 2, "dataset": {"random_seed": 1}, "branch_mode": "trajectory",
                  "twirl": {"mode": "exact"}, **extra}
    else:
        config = {"spectrum": [0.9, 0.05, 0.03, 0.02], **extra}
    code, _ = run_cli(tmp_path, command, config)
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_protocol_max_rounds_is_config_error(tmp_path, capsys):
    # the degree bound fixes the round count, so no config may set it
    config = {"n": 3, "dataset": {"random_seed": 1}, "branch_mode": "trajectory",
              "max_rounds": 3}
    assert run_cli(tmp_path, "protocol", config)[0] == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "max_rounds" in err


def test_protocol_invalid_state_is_invariant_exit(tmp_path, capsys, monkeypatch):
    # a noise model whose output has trace 2 stops the protocol with exit 4
    real = DeadRouterNoise.on_states
    monkeypatch.setattr(DeadRouterNoise, "on_states", lambda self, psi: 2 * real(self, psi))
    config = {"n": 2, "dataset": {"bits": "0001"}, "branch_mode": "trajectory",
              "device": {"type": "dead_router", "addresses": [1]}}
    assert run_cli(tmp_path, "protocol", config) == (4, "")
    err = capsys.readouterr().err
    assert "Traceback" not in err and "numerical invariant violation" in err


def test_protocol_qpca_simple_defaults_gamma(tmp_path):
    # the protocol takes gamma from each resource's spectrum
    cfg = {"n": 2, "dataset": {"random_seed": 1}, "branch_mode": "enumerate_branches",
           "device": {"type": "dead_router", "addresses": [1]},
           "twirl": {"mode": "exact"}, "distiller": {"kind": "qpca_simple"}}
    code, text = run_cli(tmp_path, "protocol", cfg)
    assert code == 0
    validate_result(json.loads(text))


@pytest.mark.parametrize("command, config", [
    ("costs", {"n": [], "b": [0], "fidelity": [0.9], "eps": [0.1]}),
    ("bench-classical", {"sizes": [14], "engines": ["circuit"]}),
])
def test_csv_without_rows_is_empty(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config, fmt="csv")
    assert code == 0
    assert text == ""
    code, text = run_cli(tmp_path, command, config, name="json.json")
    assert code == 0
    assert json.loads(text)["rows"] == []


SHIPPED_CONFIGS = {"protocol_noiseless_n3": "protocol",
                   "protocol_noisy_trajectories": "protocol",
                   "distill_qpca_simple": "distill",
                   "bench_classical": "bench-classical"}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_configs_byte_stable(tmp_path, name):
    # two runs in one process give the same bytes; only bench-classical's
    # wall_ns timings may differ
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    texts = []
    for run in range(2):
        out = tmp_path / f"{run}.json"
        assert main([SHIPPED_CONFIGS[name], "--config", str(config), "--out", str(out)]) == 0
        texts.append(re.sub(r'"wall_ns": \d+', '"wall_ns": 0', out.read_text()))
    assert texts[0] == texts[1]
    assert ('"wall_ns"' in texts[0]) == (name == "bench_classical")


PINNED = Path(__file__).resolve().parent / "shipped_outputs"


def assert_payload_close(got, want, path="$"):
    """Non-float fields equal, floats within 1e-12."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_payload_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_payload_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, path
    else:
        assert got == want, path


@pytest.mark.parametrize("name", ["distill_qpca_simple", "protocol_noiseless_n3",
                                  "protocol_noisy_trajectories"])
def test_shipped_configs_match_pinned_output(tmp_path, name):
    # the payloads recorded in tests/shipped_outputs keep each shipped
    # config's result fixed from one change to the next
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    out = tmp_path / "out.json"
    assert main([SHIPPED_CONFIGS[name], "--config", str(config), "--out", str(out)]) == 0
    assert_payload_close(json.loads(out.read_text()),
                         json.loads((PINNED / f"{name}.json").read_text()))


@pytest.mark.parametrize("n", [15, 24])
def test_update_rule_fwht_engine_at_large_n(tmp_path, n):
    # the fwht engine's entries need 2n + 2 bits, past a 32-bit width at n = 15
    code, text = run_cli(tmp_path, "update-rule",
                         {"n": n, "dataset": {"random_seed": 1}, "m": 3})
    assert code == 0
    payload = json.loads(text)
    validate_result(payload)
    assert payload["all_equal"] is True
    assert set(payload["outputs"]) == {"naive", "fwht"}


def _kraus_file_config(path):
    return {"n": 1, "dataset": {"random_seed": 1}, "branch_mode": "trajectory",
            "device": {"type": "kraus_file", "path": str(path)}}


def test_kraus_file_load_errors_are_config_errors(tmp_path, capsys):
    import numpy as np
    no_kraus = tmp_path / "other.npz"
    np.savez(no_kraus, other=np.eye(2))
    not_npz = tmp_path / "plain.txt"
    not_npz.write_text("not an archive\n")
    plain_npy = tmp_path / "kraus.npy"
    np.save(plain_npy, np.eye(2)[None])
    for path in (no_kraus, not_npz, plain_npy):
        code, _ = run_cli(tmp_path, "protocol", _kraus_file_config(path))
        assert code == 2, path
        err = capsys.readouterr().err
        assert "Traceback" not in err and "'kraus' array" in err
        assert len(err.strip().splitlines()) == 1
    good = tmp_path / "good.npz"
    np.savez(good, kraus=np.eye(2)[None])
    assert run_cli(tmp_path, "protocol", _kraus_file_config(good))[0] == 0


def _swap_test_config(k):
    return {"distiller": {"kind": "swap_test", "k": k}, "spectrum": [0.6, 0.4],
            "budget": 10**24}


@pytest.mark.parametrize("k", [61, 63])
def test_swap_test_copy_count_past_int64_is_cap_error(tmp_path, capsys, k):
    # k = 61 wrapped to a negative copy count reported as a success, and
    # k >= 63 ran numpy into ValueError: n <= 0
    code, text = run_cli(tmp_path, "distill", _swap_test_config(k))
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err and "exceeds int64" in err
    assert len(err.strip().splitlines()) == 1


def test_swap_test_copy_count_below_int64_unchanged(tmp_path):
    code, text = run_cli(tmp_path, "distill", _swap_test_config(60))
    assert code == 0
    report = json.loads(text)["report"]
    assert report["copies"] == 5764607317266933056
    assert report["steps"] == 4675539097076546361
    assert report["success"] is True


@pytest.mark.parametrize("fidelity", [1e-300, 1e-160])
def test_costs_outside_float_range_is_cap_error(tmp_path, capsys, fidelity):
    # 1e-300 squared is 0.0 (ZeroDivisionError); 1e-160 wrote Infinity,
    # which is not JSON
    cfg = {"n": [4], "b": [0], "fidelity": [fidelity], "eps": [0.1]}
    code, text = run_cli(tmp_path, "costs", cfg)
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err and "float range" in err
    assert len(err.strip().splitlines()) == 1


def test_protocol_huge_b_is_cap_error_before_any_table(tmp_path, capsys):
    # b = 10^30 used to build a random table of 2^(n + b) entries first and
    # never returned; the register cap now refuses it at once
    start = time.perf_counter()
    code, text = run_cli(tmp_path, "protocol",
                         {"n": 2, "b": 10**30, "dataset": {"random_seed": 1},
                          "branch_mode": "trajectory"})
    assert time.perf_counter() - start < 1.0
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err and "exceeds cap" in err


def test_teleport_run_trials_cap(tmp_path, capsys, monkeypatch):
    # 10^15 trials ran numpy out of memory with a traceback (exit 1); the
    # cap refuses them before the draw
    cfg = {"n": 3, "dataset": {"random_seed": 1}, "trials": 10**15}
    tracemalloc.start()
    code, text = run_cli(tmp_path, "teleport-run", cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and text == ""
    assert peak < 4 << 20
    err = capsys.readouterr().err
    assert "Traceback" not in err and "trials" in err
    # the counts up to the cap are those of the uncapped draw
    monkeypatch.setattr(cli, "TELEPORT_TRIALS_CAP", 1000)
    code, text = run_cli(tmp_path, "teleport-run", dict(cfg, trials=1000))
    assert code == 0
    counts = json.loads(text)["outcome_counts"]
    draws = np.bincount(derive_rng(0, 0x7E1E).choice(8, size=1000, p=np.full(8, 1 / 8)),
                        minlength=8)
    assert counts == {format(m, "x"): int(c) for m, c in enumerate(draws) if c}
    assert run_cli(tmp_path, "teleport-run", dict(cfg, trials=1001))[0] == 3


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 3])
def test_seed_outside_64_bits_is_refused(tmp_path, capsys, seed):
    # a seed keys Philox modulo 2^64, so 2^64 + 3 ran as 3 and -1 as 2^64 - 1
    cfg = {"n": 3, "dataset": {"random_seed": 1}, "trials": 10}
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "teleport-run", cfg, seed=seed)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    if seed >= 0:
        for key, config in (("seed", dict(cfg, seed=seed)),
                            ("random_seed", dict(cfg, dataset={"random_seed": seed}))):
            assert run_cli(tmp_path, "teleport-run", config)[0] == 2, key
        tail = {"n": 3, "dataset": {"random_seed": 1}, "branch_mode": "trajectory",
                "encoding": {"identity_weight": 0.9, "tail": "random", "tail_seed": seed}}
        assert run_cli(tmp_path, "protocol", tail)[0] == 2


def test_largest_seed_runs(tmp_path):
    cfg = {"n": 3, "dataset": {"random_seed": (1 << 64) - 1}, "trials": 10,
           "seed": (1 << 64) - 1}
    assert run_cli(tmp_path, "teleport-run", cfg)[0] == 0
    assert run_cli(tmp_path, "teleport-run", cfg, seed=(1 << 64) - 1)[0] == 0
