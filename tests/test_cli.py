"""End-to-end runs of every subcommand plus the failure exits."""

import hashlib
import json
import math

import numpy as np
import pytest

from issnet import cli
from issnet.catalog import instantiate
from issnet.comparison import linear
from issnet.gains import FiniteIndexSet, GainGraph, graph_to_json
from issnet.network import simulate, write_trajectory_csv
from issnet.smallgain import estimate_uniform_sgc
from issnet.systems import InputSignal


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


TIGHT_XI = {"kind": "linear", "params": {"a": 1.2}, "class": "Kinf"}


def test_gains_check_finds_the_tight_bound_witness(run_cli):
    code, out = run_cli("gains-check", {
        "network": "catalog:uniform-2-cycle", "seed": 0,
        "falsify": {"xi": TIGHT_XI, "budget": 2000},
    })
    assert code == 1
    witness = _read(out, "gains_check.json")["falsify"]["witness"]
    assert witness["samples_used"] <= 2000


@pytest.mark.parametrize("budget", [0, -5, "abc", 2.5, True])
def test_falsify_budget_must_be_a_positive_integer(run_cli, capsys, budget):
    # an empty budget used to screen nothing and report the graph as passed
    code, out = run_cli("gains-check", {
        "network": "catalog:uniform-2-cycle", "seed": 0,
        "falsify": {"xi": TIGHT_XI, "budget": budget},
    })
    assert code == 2
    assert "falsify.budget" in capsys.readouterr().err
    assert not (out / "gains_check.json").exists()


@pytest.mark.parametrize("budget", [0, -5, "abc"])
def test_subnetwork_falsify_budget_must_be_a_positive_integer(run_cli, capsys,
                                                              budget):
    code, _ = run_cli("subnetwork", {
        "network": "catalog:nonuniform-discrete-chain",
        "subset": [0, 1, 2, 3], "ensemble": {"horizon": 40}, "seed": 1,
        "falsify_budget": budget,
    })
    assert code == 2
    assert "falsify_budget" in capsys.readouterr().err


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


def test_simulate_reports_a_sweep_blowup(run_cli, capsys):
    # this escaped as an ArithmeticError traceback with only trajectory.csv
    # written; the run from x0 = 0 stays at 0, the sweep's from 1 blows up
    conf = {
        "network": {
            "time_domain": {"kind": "discrete"},
            "index_set": {"kind": "finite", "labels": [0, 1]},
            "subsystems": [{"i": 0, "expr": "3*x + 0.1*w[0]",
                            "neighbors": [1]},
                           {"i": 1, "expr": "3*x"}],
        },
        "horizon": 40,
    }
    code, plain = run_cli("simulate", conf)
    assert code == 0
    code, out = run_cli("simulate", dict(conf, sweep_sizes=[1, 2]))
    assert code == 1
    assert capsys.readouterr().err \
        == "truncation sweep failed: window 1 blew up at t=26\n"
    assert (out / "trajectory.csv").read_bytes() \
        == (plain / "trajectory.csv").read_bytes()
    assert _read(out, "simulate_summary.json") \
        == _read(plain, "simulate_summary.json")


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


# sha256 of the result files of the criterion-2 certify and criterion-4
# trace configs (at their gate seeds and one more), of a discrete certify
# run with the collapsed uniform certificate, of gains-check on the
# 300-window diffusive chain (the falsifier's widest blocks), of a discrete
# simulate with a window sweep, of a continuous simulate with a vector
# input and of a subnetwork run; any change to the numerics or the writers
# shows here
CHAIN50 = {
    "network": "catalog:counterexample-chain",
    "window": 50,
    "ensemble": {"horizon": 240.0, "dt": 0.1, "n_random": 3},
    "radii": [0.5, 1.0, 2.0],
    "depth": 6,
}
CHAIN64 = {
    "network": "catalog:nonuniform-discrete-chain",
    "window": 64,
    "ensemble": {"horizon": 2000, "n_random": 2},
    "radii": [0.5, 1.0, 2.0],
    "bands": [1, 2, 3, 4, 5, 6],
    "xi": {"kind": "linear", "params": {"a": 2.0}, "class": "Kinf"},
}
TRACE_CSV = ("b4161a4a866524046e54d57398502a9d"
             "e2d09eb0cd26240ccf596d7f961d38b2")
GOLDEN = [
    ("certify", "certify", dict(CHAIN50, seed=12),
     {"certificate.json": "e9d6ae8d128549e85c53eb558a328b9f"
                          "e2dbc0afda3a423022939dfbe11ed1a7"}),
    ("trace-theorem1", "trace-theorem1", dict(CHAIN64, seed=4),
     {"proof_trace.json": "f6a0500e13a88b29d158e607743817a3"
                          "9210f0027031e64a2dfdb35cf7f3a7cf",
      "proof_trace.csv": TRACE_CSV}),
    ("gains-check", "gains-check", {
        "network": "catalog:linear-diffusive-chain",
        "window": 300,
        "seed": 3,
    }, {"gains_check.json": "7958e301a5cef2b23f3d8167b0094639"
                            "3097a8fb212c3f742f0950ef3097467d"}),
    ("certify-chain50-seed13", "certify", dict(CHAIN50, seed=13),
     {"certificate.json": "6f5d575d878ce2353b34d016373612ae"
                          "b9a991b15057885af7a0cd0d50763211"}),
    ("trace-chain64-seed5", "trace-theorem1", dict(CHAIN64, seed=5),
     {"proof_trace.json": "ca486ad18f5823008e04462777501fa3"
                          "f67788e9f235ca483b81f8525c3bc003",
      "proof_trace.csv": TRACE_CSV}),
    ("certify-uniform-discrete", "certify", {
        "network": "catalog:nonuniform-discrete-chain",
        "window": 8,
        "ensemble": {"horizon": 200, "n_random": 2},
        "radii": [0.5, 1.0, 2.0],
        "depth": 6,
        "seed": 9,
        "emit_uniform": True,
    }, {"certificate.json": "dbd827657ab1124d93b60d682a411339"
                            "61d275c27502b748ef902262959b5e35"}),
    ("simulate-discrete-sweep", "simulate", {
        "network": "catalog:nonuniform-discrete-chain",
        "window": 8,
        "x0": 1.0,
        "horizon": 40,
        "probe_times": [10, 40],
        "input": {"breaks": [0.0, 5.0, 12.0], "values": [0.2, -0.1, 0.0]},
        "sweep_sizes": [4, 8, 16],
        "sweep_x0": 0.5,
    }, {"trajectory.csv": "457654e536de5a8d3ac9ca3b15a26baf"
                          "0cfb11d29b0844771dccaac641835b98",
        "simulate_summary.json": "0990a9c4b45c621b05bd15e207a55ba7"
                                 "af6f9062dfdb1b4ddb1270796c2840bb"}),
    ("simulate-continuous-vector-input", "simulate", {
        "network": "catalog:linear-diffusive-chain",
        "window": 4,
        "x0": [1.0, -0.5, 0.25, 0.0],
        "horizon": 2.0,
        "dt": 0.05,
        "probe_times": [1.0],
        "input": {"breaks": [0.0, 0.3, 1.1],
                  "values": [[0.1, 0.0, -0.2, 0.3], [0.0, 0.5, 0.0, -0.1],
                             [0.0, 0.0, 0.0, 0.0]]},
    }, {"trajectory.csv": "0cdba2219199813b1f9f0a4c11fdf8a3"
                          "ec17da9646fac1b7f008d9979885c3cb",
        "simulate_summary.json": "1f84e88647c0652c66441a6333581c24"
                                 "d3acf872905c78ce4e7699bf3cc04067"}),
    ("subnetwork-chain-prefix", "subnetwork", {
        "network": "catalog:nonuniform-discrete-chain",
        "subset": [0, 1, 2, 3],
        "ensemble": {"horizon": 80, "n_random": 2},
        "radii": [0.5, 1.0],
        "depth": 6,
        "seed": 9,
    }, {"subnetwork.json": "88b00a85acf08a095697cac68c40e5d5"
                           "d505a5d0df2108df80c574e197079e1e"}),
]


@pytest.mark.parametrize("command,conf,digests", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_result_files_match_golden_digests(run_cli, command, conf, digests):
    code, out = run_cli(command, conf)
    assert code == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


BLOWUP_NET = {
    "time_domain": {"kind": "discrete"},
    "index_set": {"kind": "finite", "labels": [0]},
    "subsystems": [{"i": 0, "expr": "2*x"}],
}
# the same pins for runs that exit 1: every file written, the exit code and
# the one stderr line; a certify CertificationError, a trace that cannot
# derive xi, a gains-check witness, a simulate blow-up and a subnetwork
# whose gain checks fail
FAILURE_GOLDEN = [
    ("certify-unattained-level", "certify",
     dict(CERT_CONF, ensemble={"horizon": 4, "n_random": 2}, depth=10),
     "certification failed: level 5 not attained for component 1 at radius "
     "0.5 within horizon 4 (seed 5)",
     {"certificate.json": "317db6c83a4fd3e3c4626c65eebbf52d"
                          "c05837df23aa50bde7be83d7738bf41d"}),
    ("trace-underived-xi", "trace-theorem1", {
        "network": "catalog:uniform-2-cycle?a=0.5&c=0.6",
        "ensemble": {"horizon": 40, "n_random": 1},
        "radii": [1.0],
        "bands": [1],
        "seed": 2,
        "xi": "derived",
    }, "trace failed: small-gain estimate failed on the window; cannot "
       "derive a monotone bound curve (seed 2)",
     {"proof_trace.json": "2cf9f8bfabe2cdb5eca7b1ca312e2825"
                          "86b0c302f1e198d5e334a78986e329d0"}),
    ("gains-check-witness", "gains-check", {
        "network": "catalog:uniform-2-cycle",
        "seed": 0,
        "falsify": {"xi": TIGHT_XI, "budget": 2000},
    }, "gains check failed (monotone-bound witness of norm 0.01); seed 0, "
       "details in gains_check.json",
     {"gains_check.json": "4c780b43050f7933d1bdbed70d49c897"
                          "06834fcc76f3f5eb6f769050051216eb"}),
    ("simulate-blowup", "simulate",
     {"network": BLOWUP_NET, "window": [0], "x0": 1.0, "horizon": 60},
     "trajectory blow-up at t=40 (|x| reached 1.09951e+12, bound 1e+12)",
     {"trajectory.csv": "aa15b61f3cabedb608927f2246ff362a"
                        "af9ce58b1399e8f1bf29d15192b8a2a3",
      "simulate_summary.json": "48b8abb987994dc399799f3454b98ef7"
                               "5ef0e06ceddd6599a50da9e2be3bb011"}),
    ("subnetwork-failed-gains", "subnetwork", {
        "network": "catalog:uniform-2-cycle?a=0.5&c=0.6",
        "subset": [1, 2],
        "ensemble": {"horizon": 40, "n_random": 2},
        "radii": [0.5, 1.0],
        "depth": 4,
        "seed": 3,
    }, "subnetwork checks failed (seed 3); see subnetwork.json",
     {"subnetwork.json": "180f5d5efc61cfb62295ce16c5f5c57a"
                         "75d4eb4e4ce037f0c2affcedab602444"}),
]


@pytest.mark.parametrize("command,conf,line,digests",
                         [g[1:] for g in FAILURE_GOLDEN],
                         ids=[g[0] for g in FAILURE_GOLDEN])
def test_failure_files_match_golden_digests(run_cli, capsys, command, conf,
                                            line, digests):
    code, out = run_cli(command, conf)
    assert code == 1
    assert capsys.readouterr().err == line + "\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


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


def test_trace_resolves_xi_before_stepping(run_cli, capsys, monkeypatch):
    # a bad xi used to exit 2 only after every band cell had been stepped
    calls = []
    step = cli.compute_band_cells

    def counted(*a, **k):
        calls.append(a)
        return step(*a, **k)

    monkeypatch.setattr(cli, "compute_band_cells", counted)
    code, out = run_cli("trace-theorem1", {
        "network": "catalog:nonuniform-discrete-chain", "window": 6,
        "ensemble": {"horizon": 300, "n_random": 2}, "radii": [1.0],
        "bands": [1, 2], "seed": 2, "xi": "bogus",
    })
    assert code == 2
    assert "config error: unknown xi spec 'bogus'" in capsys.readouterr().err
    assert calls == []
    assert not (out / "proof_trace.json").exists()


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


def test_subnetwork_resolves_every_key_before_the_gains(run_cli, capsys,
                                                       monkeypatch):
    # a bad certify key used to exit 2 only after the gains checks had run
    calls = []

    def counted(*a, **k):
        calls.append(a)
        return estimate_uniform_sgc(*a, **k)

    monkeypatch.setattr(cli, "estimate_uniform_sgc", counted)
    code, out = run_cli("subnetwork", {
        "network": "catalog:linear-diffusive-chain",
        "subset": list(range(12)), "ensemble": {"horizon": 4.0},
        "radii": "bad", "seed": 1,
    })
    assert code == 2
    assert "config error: radii" in capsys.readouterr().err
    assert calls == []
    assert not (out / "subnetwork.json").exists()


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


@pytest.mark.parametrize("window, message", [
    ([0, 99], "outside the index set"),
    ([1, 1, 2], "distinct"),
    ([], "nonempty"),
])
def test_bad_window_label_list_is_a_config_error(run_cli, capsys, window, message):
    code, _ = run_cli("simulate", {"network": "catalog:uniform-2-cycle",
                                   "window": window, "horizon": 1.0})
    assert code == 2
    assert message in capsys.readouterr().err


def test_zero_window_on_an_infinite_index_set_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("simulate", {"network": "catalog:nonuniform-discrete-chain",
                                   "window": 0, "horizon": 5})
    assert code == 2
    assert "window size must be positive" in capsys.readouterr().err


def test_subset_label_outside_the_index_set_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("subnetwork", {"network": "catalog:uniform-2-cycle",
                                     "subset": [1, 99], "seed": 1,
                                     "ensemble": {"horizon": 5}})
    assert code == 2
    assert "outside the index set" in capsys.readouterr().err


SMALL_CERT = {
    "network": "catalog:counterexample-chain",
    "window": 3,
    "ensemble": {"horizon": 2.0, "dt": 0.1, "n_random": 1},
    "radii": [0.5, 1.0],
    "depth": 2,
    "seed": 1,
}


def _with(conf, **changes):
    out = json.loads(json.dumps(conf))
    for key, value in changes.items():
        if key.startswith("ensemble."):
            out["ensemble"][key.split(".", 1)[1]] = value
        else:
            out[key] = value
    return out


# each of these exited 1 with a traceback, or ran and exited 0 or 1
@pytest.mark.parametrize("key, value", [
    ("ensemble.horizon", "abc"),
    ("ensemble.dt", 0),
    ("ensemble.dt", -0.1),
    ("ensemble.n_random", "abc"),
    ("ensemble.n_random", -2),
    ("ensemble.input_pieces", "abc"),
    ("ensemble.input_pieces", 0),
    ("depth", -1),
    ("depth", "x"),
    ("radii", []),
    ("radii", [-1.0, 1.0]),
    ("tol_abs", "x"),
    ("gamma_hat", {"kind": "linear", "params": {"a": -1.0}}),
    ("emit_uniform", "yes"),
], ids=str)
def test_bad_certify_config_is_a_config_error(run_cli, capsys, key, value):
    code, out = run_cli("certify", _with(SMALL_CERT, **{key: value}))
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("key, value", [
    ("bands", [-1]),
    ("bands", []),
    ("small_cap", -1.0),
    ("tail_fractions", [0.5, 1.2]),
    ("radii", [0.0]),
    ("tol", "x"),
    ("xi", {"kind": "nope"}),
], ids=str)
def test_bad_trace_config_is_a_config_error(run_cli, capsys, key, value):
    conf = {"network": "catalog:nonuniform-discrete-chain", "window": 3,
            "ensemble": {"horizon": 40, "n_random": 1}, "radii": [1.0],
            "bands": [1], "seed": 1}
    code, _ = run_cli("trace-theorem1", _with(conf, **{key: value}))
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err


def test_bad_falsify_curve_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("gains-check", {"network": "catalog:uniform-2-cycle",
                                      "seed": 1, "falsify": {"xi": "tight"}})
    assert code == 2
    assert "config error: falsify.xi" in capsys.readouterr().err


@pytest.mark.parametrize("n_random", ["abc", -3])
def test_bad_sgc_sample_count_is_a_config_error(run_cli, capsys, n_random):
    code, out = run_cli("gains-check", {"network": "catalog:uniform-2-cycle",
                                        "seed": 1,
                                        "sgc": {"n_random": n_random}})
    assert code == 2
    assert "config error: sgc.n_random" in capsys.readouterr().err
    assert not (out / "gains_check.json").exists()


def test_non_integer_subset_label_is_a_config_error(run_cli, capsys):
    code, _ = run_cli("subnetwork", {"network": "catalog:nonuniform-discrete-chain",
                                     "subset": ["x"], "seed": 1,
                                     "ensemble": {"horizon": 40}})
    assert code == 2
    assert "config error: subset" in capsys.readouterr().err


LABEL_BASES = {
    "simulate": {"network": "catalog:uniform-2-cycle", "horizon": 3},
    "gains-check": {"network": "catalog:uniform-2-cycle", "seed": 1},
    "subnetwork": {"network": "catalog:uniform-2-cycle", "seed": 1,
                   "ensemble": {"horizon": 5}},
}


# each of these ran on labels the config never named: int() read "50" as
# (5, 0), 1.5 as 1 and true as 1, and a size above a finite index set took
# all of its labels
@pytest.mark.parametrize("command, changes", [
    ("simulate", {"network": "catalog:nonuniform-discrete-chain",
                  "window": "50"}),
    ("simulate", {"window": [1.5, 2.7]}),
    ("simulate", {"window": [True, 2]}),
    ("simulate", {"window": 5}),
    ("gains-check", {"window": 5}),
    ("subnetwork", {"subset": "12"}),
    ("subnetwork", {"subset": [1.5, 2.7]}),
    ("subnetwork", {"subset": [True, 2]}),
], ids=str)
def test_labels_must_be_json_integers_of_the_index_set(run_cli, capsys,
                                                       command, changes):
    conf = dict(LABEL_BASES[command], **changes)
    key = next(k for k in changes if k != "network")
    code, out = run_cli(command, conf)
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


INLINE_NET = {
    "time_domain": {"kind": "discrete"},
    "index_set": {"kind": "finite", "labels": [0]},
    "subsystems": [{"i": 0, "expr": "0.5*x"}],
}


# each of these escaped as a TypeError or AttributeError traceback
@pytest.mark.parametrize("changes", [
    {"subsystems": [5]},
    {"time_domain": 5},
    {"index_set": 5},
    {"subsystems": [{"i": 0, "expr": 5}]},
], ids=str)
def test_wrong_typed_inline_network_is_a_config_error(run_cli, capsys,
                                                      changes):
    code, out = run_cli("simulate", {"network": dict(INLINE_NET, **changes),
                                     "window": [0], "horizon": 2})
    assert code == 2
    assert "config error: cannot build the network" in capsys.readouterr().err
    assert not out.exists()


def test_network_path_that_is_a_directory_is_a_config_error(run_cli, tmp_path,
                                                            capsys):
    code, out = run_cli("simulate", {"network": str(tmp_path), "window": [0],
                                     "horizon": 2})
    assert code == 2
    assert "config error: cannot build the network" in capsys.readouterr().err


@pytest.mark.parametrize("out", [5, "", ["out"]], ids=str)
def test_out_must_be_a_nonempty_string(tmp_path, capsys, out):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"network": "catalog:uniform-2-cycle",
                               "horizon": 3, "out": out}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "config error: out" in capsys.readouterr().err


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"network": "catalog:nonuniform-discrete-chain",
                               "window": 4, "horizon": 5}))
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--threads", "2"]
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["simulate"]) == 2
    capsys.readouterr()


# config values resolved before anything runs ----------------------------


@pytest.mark.parametrize("changes", [
    {"horizon": "abc"},
    {"dt": 0},
    {"input": "zero"},
    {"input": {"kind": "constant", "level": "x"}},
    {"sweep_sizes": [3, 2]},
    {"probe_times": ["x"]},
    {"x0": [1.0, 0.0]},
    {"x0": "abc"},
    {"sweep_sizes": [1, 5], "network": "catalog:uniform-2-cycle", "window": 2},
    {"input": {"breaks": [0.0], "values": [[1.0, 2.0]]}},
    {"sweep_sizes": [2, 3], "input": {"breaks": [0.0], "values": [[1.0] * 3]}},
], ids=str)
def test_bad_simulate_config_is_a_config_error(run_cli, capsys, changes):
    conf = {"network": "catalog:counterexample-chain", "window": 3,
            "horizon": 1.0, "dt": 0.1}
    conf.update(changes)
    code, out = run_cli("simulate", conf)
    assert code == 2
    assert f"config error: {next(iter(changes))}" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


BAD_GAIN = {"index_set": {"kind": "finite", "labels": [1, 2]},
            "edges": [{"i": 1, "j": 2, "gain": {"kind": "nope"}}]}


BAD_GAINS_CHECK_CONFIGS = [
    ({"seed": "abc"}, "seed"),
    ({"sgc": {"radii": "x"}}, "sgc.radii"),
    ({"sgc": {"radii": [0.0, 1.0]}}, "sgc.radii"),
    ({"sgc": {"radii": [1.0, 1.0]}}, "sgc.radii"),
    ({"sgc": 5}, "sgc"),
    ({"falsify": 5}, "falsify"),
    ({"graph": {"index_set": {"kind": "bogus"}}}, "graph"),
    ({"graph": {"index_set": 5}}, "graph"),
    ({"graph": BAD_GAIN}, "graph"),
    ({"cycles": "no"}, "cycles"),
    ({"r_grid": "x"}, "r_grid"),
    ({"r_grid": [-1, 1]}, "r_grid"),
    ({"window": True}, "window"),
]


# name each case by its config change alone
@pytest.mark.parametrize("changes, key", [
    pytest.param(changes, key, id=str(changes))
    for changes, key in BAD_GAINS_CHECK_CONFIGS])
def test_bad_gains_check_config_is_a_config_error(run_cli, capsys, changes,
                                                  key):
    conf = {"network": "catalog:uniform-2-cycle", "seed": 1}
    conf.update(changes)
    code, out = run_cli("gains-check", conf)
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (out / "gains_check.json").exists()


@pytest.mark.parametrize("changes", [
    {"seed": "abc"},
    {"r_grid": "x"},
    {"r_grid": [-1, 1]},
], ids=str)
def test_bad_subnetwork_config_is_a_config_error(run_cli, capsys, changes):
    conf = {"network": "catalog:nonuniform-discrete-chain",
            "subset": [0, 1, 2], "ensemble": {"horizon": 40}, "seed": 1}
    conf.update(changes)
    code, out = run_cli("subnetwork", conf)
    assert code == 2
    assert f"config error: {next(iter(changes))}" in capsys.readouterr().err
    assert not (out / "subnetwork.json").exists()


def test_gains_check_uses_the_given_r_grid(run_cli):
    code, out = run_cli("gains-check", {"network": "catalog:uniform-2-cycle",
                                        "seed": 1, "r_grid": [0, 1, 2]})
    assert code == 0
    # the stored cycle gains are (c / (1 - a)) id = 0.5 id
    assert _read(out, "gains_check.json")["structure"]["assumption1_sup"] \
        == [0.0, 0.5, 1.0]


# paths of the commands not run above -------------------------------------


@pytest.mark.parametrize("spec, signal", [
    ({"kind": "zero"}, InputSignal.zero()),
    ({"kind": "constant", "level": 0.5}, InputSignal.constant(0.5)),
    ({"breaks": [0.0, 3.0], "values": [1.0, -0.5]},
     InputSignal([0.0, 3.0], [1.0, -0.5])),
], ids=["zero", "constant", "signal"])
def test_simulate_reads_each_input_kind(run_cli, tmp_path, spec, signal):
    net, _ = instantiate("uniform-2-cycle")
    code, out = run_cli("simulate", {"network": "catalog:uniform-2-cycle",
                                     "x0": [1.0, 0.0], "horizon": 8,
                                     "input": spec})
    assert code == 0
    want = tmp_path / "want.csv"
    write_trajectory_csv(simulate(net, (1, 2), np.array([1.0, 0.0]), signal,
                                  8), want)
    assert (out / "trajectory.csv").read_bytes() == want.read_bytes()


def test_certify_reports_a_failed_holdout_validation(run_cli, capsys):
    # a negative tolerance demands a margin no holdout member can show
    code, out = run_cli("certify", dict(CERT_CONF, tol_abs=-10.0))
    assert code == 1
    err = capsys.readouterr().err
    assert "failed holdout validation" in err and "seed 5" in err
    payload = _read(out, "certificate.json")
    assert payload["noniss"]["valid"] is False
    assert payload["uniform"]["valid"] is False


TRACE_CONF = {
    "network": "catalog:nonuniform-discrete-chain",
    "window": 6,
    "ensemble": {"horizon": 300, "n_random": 2},
    "radii": [1.0],
    "bands": [1, 2],
    "seed": 2,
}


def test_trace_with_a_derived_xi(run_cli):
    code, out = run_cli("trace-theorem1", dict(TRACE_CONF, xi="derived"))
    assert code == 0
    payload = _read(out, "proof_trace.json")
    net, _ = instantiate("nonuniform-discrete-chain")
    xi = estimate_uniform_sgc(net.graph, net.window(6), seed=2).xi_hat
    for row, entry in zip(payload["check"]["rows"], payload["entries"]):
        # every external gain of the chain is the identity
        assert row["norm_margin"] == float(xi(row["level"])) \
            - max(entry["y_hat"][-1])


def test_trace_exits_1_when_the_inequality_fails(run_cli, capsys):
    tiny = {"kind": "linear", "params": {"a": 0.01}, "class": "Kinf"}
    code, out = run_cli("trace-theorem1", dict(TRACE_CONF, xi=tiny))
    assert code == 1
    assert "small-gain inequality failed on 3 of 3 cells" \
        in capsys.readouterr().err
    assert _read(out, "proof_trace.json")["check"]["all_passed"] is False


def test_subnetwork_exits_1_when_the_gains_fail(run_cli, capsys):
    # c / (1 - a) = 1.2: the stored cycle gain exceeds the identity
    code, out = run_cli("subnetwork", {
        "network": "catalog:uniform-2-cycle?a=0.5&c=0.6",
        "subset": [1, 2], "ensemble": {"horizon": 40, "n_random": 2},
        "radii": [0.5, 1.0], "depth": 4, "seed": 3,
    })
    assert code == 1
    assert "subnetwork checks failed" in capsys.readouterr().err
    gains = _read(out, "subnetwork.json")["gains"]
    assert gains["passed"] is False and gains["cycles_passed"] is False
