"""Simulation and numerical stability certification for interconnections
of nonlinear subsystems.

The package splits into layers that can be used independently:

comparison   scalar gain/decay curves, their algebra, and decay surfaces
systems      signals, scalar subsystems, integration, transition axioms
gains        gain graphs and the max-type gain operator
smallgain    small-gain estimation, falsification, cycle screens
network      coupled simulation on finite working windows
certify      stability envelopes, attainment tables, certificates, traces
catalog      benchmark networks with closed-form oracles
cli          the ``issnet`` command-line entry point
"""

from .comparison import (KLSurface, ScalarCurve, check_class, compose,
                         curve_from_json, curve_max, curve_sum, curve_to_json,
                         default_grid, expdecay, fit_monotone_envelope,
                         identity, kl_from_decay_table, linear,
                         make_strictly_increasing, max_surface, power, pwl,
                         saturating, scale, surface_from_json, surface_to_json,
                         zero_curve)
from .systems import (DISCRETE, BlowUp, InputSignal, SubsystemSpec, TimeDomain,
                      Trajectory, check_axioms, continuous,
                      integrate_ode)
from .gains import (FiniteIndexSet, GainGraph, GeneratorIndexSet,
                    apply_batch, apply_gain_operator, check_graph,
                    graph_from_json, graph_to_json, iterate, restrict)
from .smallgain import (MBIWitness, SGCReport, dist_to_cone,
                        estimate_uniform_sgc, falsify_mbi, finite_cycle_check,
                        invert_k_curve, operator_deficit)
from .network import (NetworkSpec, NetworkSystem, NetworkTrajectory,
                      SweepReport, simulate, simulate_ensemble, subnetwork,
                      truncation_sweep, write_trajectory_csv)
from .certify import (AttainmentTable, BandEntry, CertificationError,
                      EnsembleConfig, Holdout, LabeledRun,
                      NonUniformISSCertificate,
                      ProofTrace, UGSCertificate, UniformISSCertificate,
                      build_ensemble, build_fit_and_holdout,
                      build_nonuniform_iss, compute_band_limsups,
                      estimate_attainment_times, fit_ugs, tail_limsup_estimate,
                      trace_to_csv, verify_sg_inequality)
from . import catalog

__version__ = "0.1.0"
