"""The window rule: every library entry point that takes a window rejects
a bad one with the index set's ValueError, before it steps a network or
applies the gain operator."""

import numpy as np
import pytest

from issnet.catalog import instantiate
from issnet.certify import EnsembleConfig, build_ensemble
from issnet.comparison import linear
from issnet.gains import (CHECK_GRID, apply_batch, apply_gain_operator,
                          check_graph, iterate, restrict)
from issnet.network import (NetworkSpec, simulate, simulate_ensemble,
                            subnetwork, truncation_sweep)
from issnet.smallgain import (estimate_uniform_sgc, falsify_mbi,
                              finite_cycle_check)
from issnet.systems import InputSignal

# uniform-2-cycle has the labels 1 and 2; (1, 2, 2) once gave the reference
# operator [1.5, 0, 0.5] and the kernel [1.5, 0.5, 0.5], and (True, 2) and
# (1.0, 2) hash like the cached plan of (1, 2)
BAD_WINDOWS = [
    ((), "nonempty"),
    ((1, 1), "distinct"),
    ((1, 2, 2), "distinct"),
    ((1, 99), "outside the index set"),
    (5, "exceeds the 2 labels"),
    ((True, 2), "integers"),
    ((1.0, 2), "integers"),
    ((1.5,), "integers"),
]


def _width(window):
    return window if isinstance(window, int) else len(window)


ZERO = InputSignal.zero()
ENTRY_POINTS = {
    "apply_gain_operator": lambda net, w: apply_gain_operator(
        net.graph, np.ones(_width(w)), w),
    "apply_batch": lambda net, w: apply_batch(
        net.graph, np.ones((1, _width(w))), w),
    "iterate": lambda net, w: iterate(net.graph, np.ones(_width(w)), 2, w),
    "check_graph": lambda net, w: check_graph(net.graph, CHECK_GRID, w),
    "estimate_uniform_sgc": lambda net, w: estimate_uniform_sgc(net.graph, w),
    "falsify_mbi": lambda net, w: falsify_mbi(net.graph, w, linear(2.0),
                                              budget=10),
    "finite_cycle_check": lambda net, w: finite_cycle_check(net.graph, w),
    "restrict": lambda net, w: restrict(net.graph, w),
    "simulate": lambda net, w: simulate(net, w, 1.0, ZERO, 2.0),
    "simulate_ensemble": lambda net, w: simulate_ensemble(
        net, w, [(1.0, ZERO)], 2.0),
    "subnetwork": lambda net, w: subnetwork(net, w),
    "build_ensemble": lambda net, w: build_ensemble(
        net, w, [(1.0, 0.0)], EnsembleConfig(2.0, n_random=1), 0),
}


def _counted_two_cycle(calls):
    """uniform-2-cycle with every gain row lookup, subsystem lookup and
    coupled-map build counted; operator application and stepping both
    start with one of them."""
    net, _ = instantiate("uniform-2-cycle")

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    net.graph.row = counted("row", net.graph.row)
    return NetworkSpec(net.name, net.time_domain, net.index_set,
                       counted("subsystem", net.subsystem_fn), net.graph,
                       counted("fast_factory", net.fast_factory))


@pytest.mark.parametrize("window, message", BAD_WINDOWS, ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_window_first(entry, window, message):
    calls = []
    net = _counted_two_cycle(calls)
    ENTRY_POINTS[entry](net, (1, 2))      # a valid window runs, and the
    assert calls                          # counters see its work
    calls.clear()
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](net, window)
    assert calls == []


def test_truncation_sweep_checks_every_size_before_stepping():
    calls = []
    net = _counted_two_cycle(calls)
    with pytest.raises(ValueError, match="exceeds the 2 labels"):
        truncation_sweep(net, (1, 5), 1.0, ZERO, 2.0)
    assert calls == []
