"""Metamorphic relations: bench runs whose answers must not change, or must
change in a known way, when the input changes in a way that cannot matter.

None of them needs a reference answer, so they catch stamp, sign and
companion-model faults that a run compared with itself cannot (Chen et al.,
2018).  Each relation holds bit for bit, statistics included:

- (a) time scaling: the frequency times k and every gate overlap
  capacitance (CGDO, CGSO, CGBO) over k, for k a power of two, so the step
  is h/k and each companion conductance alpha*C is the same number;
- (b) polarity mirror: the two model cards swap NMOS and PMOS and negate
  their VTO, and the supplies and the input amplitude are negated.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amps.netlist import parse_netlist
from amps.rectifier import VDD, VSS, BenchConfig, build_bench_netlist
from amps.solver import SolverOptions, build_graph, solve_transient

OPTS = SolverOptions()

configs = st.builds(
    lambda exponent, temp: BenchConfig(frequency=10.0**exponent, temp=temp, periods=2,
                                       steps_per_period=40),
    st.floats(min_value=3.0, max_value=8.0), st.floats(min_value=-20.0, max_value=100.0))


def transient(text: str, cfg: BenchConfig):
    """Every node voltage and branch current of the bench netlist ``text``
    at ``cfg``'s temperature and ``.TRAN``."""
    return solve_transient(build_graph(parse_netlist(text), cfg.temp), cfg.tran(), OPTS)


@settings(max_examples=5, deadline=None)
@given(configs)
def test_time_scaling_by_a_power_of_two_changes_only_the_time_base(cfg):
    base = transient(build_bench_netlist(cfg), cfg)
    for k in (2, 4, 1024):
        fast = BenchConfig(frequency=cfg.frequency * k, temp=cfg.temp, periods=cfg.periods,
                           steps_per_period=cfg.steps_per_period)
        text = re.sub(r"\b(CG[DSB]O) = (\S+)", lambda m: f"{m[1]} = {float(m[2]) / k!r}",
                      build_bench_netlist(fast))
        got = transient(text, fast)
        assert got.names() == base.names()
        for a, b in zip(got.waveforms, base.waveforms, strict=True):
            assert a.values.tobytes() == b.values.tobytes(), a.name
            assert (a.times * k).tobytes() == b.times.tobytes()
        assert got.stats == {**base.stats, "tstep": base.stats["tstep"] / k}


@settings(max_examples=5, deadline=None)
@given(configs)
def test_polarity_mirror_negates_every_column(cfg):
    text = build_bench_netlist(cfg)
    amp = cfg.amplitude_pp / 2.0
    mirrored = text
    for old, new in ((f"VDD vdd 0 DC {VDD!r}", f"VDD vdd 0 DC {-VDD!r}"),
                     (f"VSS vss 0 DC {VSS!r}", f"VSS vss 0 DC {-VSS!r}"),
                     (f"SIN(0 {amp!r} ", f"SIN(0 {-amp!r} "),
                     ("CMOSN NMOS", "CMOSN PMOS"), ("CMOSP PMOS", "CMOSP NMOS")):
        assert text.count(old) == 1, old
        mirrored = mirrored.replace(old, new)
    mirrored = re.sub(r"\bVTO = (\S+)", lambda m: f"VTO = {-float(m[1])!r}", mirrored)
    base, got = transient(text, cfg), transient(mirrored, cfg)
    assert got.names() == base.names()
    for a, b in zip(got.waveforms, base.waveforms, strict=True):
        assert np.array_equal(a.values, -b.values), a.name
        assert a.times.tobytes() == b.times.tobytes()
    assert got.stats == base.stats
