"""End-to-end runs of every subcommand plus the failure exits."""

import json
import math

import pytest

from issnet import cli
from issnet.comparison import linear
from issnet.gains import FiniteIndexSet, GainGraph, graph_to_json


def _read(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


# gains-check ------------------------------------------------------------


def test_gains_check_passes_on_the_cycle(run_cli):
    code, out = run_cli("gains-check",
                        {"network": "catalog:uniform-2-cycle", "seed": 3})
    assert code == 0
    payload = _read(out, "gains_check.json")
    assert payload["passed"] is True
    assert payload["seed"] == 3
    assert payload["window"] == [1, 2]
    assert payload["structure"]["zero_diagonal"] is True
    assert payload["structure"]["assumption1_finite"] is True
    assert payload["sgc"]["holds"] is True
    assert payload["falsify"]["witness"] is None
    assert payload["cycles"]["n_cycles"] == 1
    assert payload["cycles"]["passed"] is True


def test_gains_check_fails_on_a_unit_cycle(run_cli, capsys):
    # sampled deficits off the exact equalizer ray stay positive, so the
    # exhaustive cycle enumeration is the gate that must catch this graph
    g = GainGraph(FiniteIndexSet((0, 1)),
                  entries={(0, 1): linear(1.25), (1, 0): linear(0.8)})
    code, out = run_cli("gains-check", {"graph": graph_to_json(g), "seed": 1})
    assert code == 1
    err = capsys.readouterr().err
    assert "gains check failed" in err and "cycle" in err
    payload = _read(out, "gains_check.json")
    assert payload["passed"] is False
    assert payload["structure"]["assumption1_finite"] is True
    assert payload["cycles"]["passed"] is False
    assert payload["cycles"]["worst_margin"] == pytest.approx(0.0, abs=1e-12)


def test_seed_flag_overrides_config(run_cli):
    conf = {"network": "catalog:uniform-2-cycle", "seed": 3}
    code, out = run_cli("gains-check", conf, seed=4)
    assert code == 0
    assert _read(out, "gains_check.json")["seed"] == 4


# simulate ---------------------------------------------------------------


def test_simulate_with_probes_and_sweep(run_cli):
    code, out = run_cli("simulate", {
        "network": "catalog:counterexample-chain",
        "window": 10,
        "x0": 1.0,
        "horizon": 5.0,
        "dt": 0.01,
        "probe_times": [5.0],
        "sweep_sizes": [10, 50],
    })
    assert code == 0
    assert (out / "trajectory.csv").read_text().startswith("t,i,value\n")
    summary = _read(out, "simulate_summary.json")
    assert summary["window_size"] == 10
    assert summary["blowup"] is None
    assert summary["final_sup_norm"] == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert summary["probes"][0]["sup_norm"] == pytest.approx(
        math.exp(-0.5), abs=1e-6)
    assert summary["sweep"]["sizes"] == [10, 50]
    assert summary["sweep"]["final_sups"] == pytest.approx(
        [math.exp(-0.5), math.exp(-0.1)], abs=1e-6)


def test_simulate_reports_blowup(run_cli, capsys):
    net = {
        "time_domain": {"kind": "discrete"},
        "index_set": {"kind": "finite", "labels": [0]},
        "subsystems": [{"i": 0, "expr": "2*x"}],
    }
    code, out = run_cli("simulate", {"network": net, "window": [0],
                                     "x0": 1.0, "horizon": 60})
    assert code == 1
    assert "blow-up" in capsys.readouterr().err
    summary = _read(out, "simulate_summary.json")
    assert summary["blowup"] is not None
    assert summary["blowup"]["value"] > summary["blowup"]["bound"]


# certify ----------------------------------------------------------------


CERT_CONF = {
    "network": "catalog:uniform-2-cycle",
    "ensemble": {"horizon": 40, "n_random": 2},
    "radii": [0.5, 1.0],
    "depth": 6,
    "seed": 5,
    "emit_uniform": True,
}


def test_certify_emits_valid_certificates(run_cli):
    code, out = run_cli("certify", CERT_CONF)
    assert code == 0
    payload = _read(out, "certificate.json")
    assert payload["seed"] == 5
    assert payload["window"] == [1, 2]
    assert payload["ugs"]["valid"] is True
    assert payload["noniss"]["valid"] is True
    assert payload["uniform"]["valid"] is True
    assert set(payload["noniss"]["surfaces"]) == {"1", "2"}


def test_certify_is_deterministic(run_cli):
    _, out_a = run_cli("certify", CERT_CONF, out="certA")
    _, out_b = run_cli("certify", CERT_CONF, out="certB")
    a = (out_a / "certificate.json").read_bytes()
    b = (out_b / "certificate.json").read_bytes()
    assert a == b


def test_certify_failure_names_the_reproducer(run_cli, capsys):
    conf = dict(CERT_CONF)
    conf["ensemble"] = {"horizon": 4, "n_random": 2}
    conf["depth"] = 10
    code, out = run_cli("certify", conf)
    assert code == 1
    err = capsys.readouterr().err
    assert "certification failed" in err
    assert "seed" in err
    payload = _read(out, "certificate.json")
    assert "error" in payload and payload["seed"] == 5


# trace-theorem1 ---------------------------------------------------------


def test_trace_checks_every_cell(run_cli):
    code, out = run_cli("trace-theorem1", {
        "network": "catalog:nonuniform-discrete-chain",
        "window": 6,
        "ensemble": {"horizon": 300, "n_random": 2},
        "radii": [1.0],
        "bands": [1, 2],
        "seed": 2,
    })
    assert code == 0
    payload = _read(out, "proof_trace.json")
    assert len(payload["entries"]) == 3       # two bands plus the small cell
    assert payload["check"]["all_passed"] is True
    rows = payload["check"]["rows"]
    assert [row["k"] for row in rows] == [1, 2, None]
    assert rows[2]["q"] == pytest.approx(0.25)
    for row in rows:
        assert row["component_margin"] >= -1e-6
        assert row["norm_margin"] >= -1e-6
    csv = (out / "proof_trace.csv").read_text().splitlines()
    assert csv[0] == "r,k,i,tail_start,y_hat"
    assert len(csv) == 1 + 3 * 4 * 6


def test_trace_needs_a_gain_graph(run_cli, capsys):
    net = {
        "time_domain": {"kind": "discrete"},
        "index_set": {"kind": "finite", "labels": [0]},
        "subsystems": [{"i": 0, "expr": "0.5*x"}],
    }
    code, _out = run_cli("trace-theorem1", {
        "network": net, "window": [0],
        "ensemble": {"horizon": 20}, "seed": 1,
    })
    assert code == 2
    assert "gain graph" in capsys.readouterr().err


# subnetwork -------------------------------------------------------------


def test_subnetwork_certifies_a_chain_prefix(run_cli):
    code, out = run_cli("subnetwork", {
        "network": "catalog:nonuniform-discrete-chain",
        "subset": [0, 1, 2, 3],
        "ensemble": {"horizon": 80, "n_random": 2},
        "radii": [0.5, 1.0],
        "depth": 6,
        "seed": 9,
    })
    assert code == 0
    payload = _read(out, "subnetwork.json")
    assert payload["subset"] == [0, 1, 2, 3]
    assert payload["gains"]["passed"] is True
    assert payload["gains"]["witness_found"] is False
    assert payload["certificate"]["noniss"]["valid"] is True
    assert payload["uniform"]["valid"] is True


def test_subnetwork_requires_a_subset(run_cli, capsys):
    code, _ = run_cli("subnetwork", {
        "network": "catalog:nonuniform-discrete-chain",
        "ensemble": {"horizon": 40}, "seed": 1,
    })
    assert code == 2
    assert "subset" in capsys.readouterr().err


# config and argument errors ---------------------------------------------


def test_missing_config_file_is_a_config_error(capsys):
    assert cli.main(["gains-check", "--config", "/no/such/file.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unparseable_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_missing_seed_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("gains-check", {"network": "catalog:uniform-2-cycle"})
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_needs_a_network(run_cli, capsys):
    code, _ = run_cli("simulate", {"horizon": 5})
    assert code == 2
    assert "network" in capsys.readouterr().err


def test_unknown_catalog_entry_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("gains-check", {"network": "catalog:nope", "seed": 1})
    assert code == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_out_of_range_catalog_parameter_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("gains-check",
                      {"network": "catalog:uniform-2-cycle?a=2", "seed": 1})
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["simulate"]) == 2
    capsys.readouterr()
