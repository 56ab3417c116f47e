"""The call shapes that perfbench/tracer.py's observers read.

The tracer wraps library functions from outside the library and reads
some of their arguments by position and some fields of their results by
name.  These checks name the shape a refactor broke, where a traced
benchmark run would stop with a bare KeyError or AttributeError.
"""

import dataclasses
import inspect

from lightspan.additive import GreedyState, Spanner, greedy_complete
from lightspan.graph import ShortestPaths, shortest_paths
from lightspan.oracle import LightnessResult
from lightspan.sampled import wmax_spanner
from lightspan.steiner import Backbone
from lightspan.transform import ScaledInstance


def params(fn):
    return list(inspect.signature(fn).parameters)


def fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_positional_arguments_the_tracer_reads():
    assert params(greedy_complete)[2] == "terminals", (
        "tracer.py reads greedy_complete's third argument as the terminal set")
    assert params(wmax_spanner)[1] == "terminals", (
        "tracer.py reads wmax_spanner's second argument as the terminal set")
    assert params(shortest_paths)[:2] == ["g", "source"], (
        "tracer.py reads shortest_paths' arguments as (g, source)")


def test_result_fields_the_tracer_reads():
    for cls, name in ((GreedyState, "insertions"), (Backbone, "s_prime"),
                      (Backbone, "unsatisfied_pairs"), (Spanner, "meta"),
                      (LightnessResult, "mode")):
        assert name in fields(cls), (
            f"tracer.py reads {cls.__name__}.{name} from a traced result")
    assert callable(getattr(ShortestPaths, "reached", None)), (
        "tracer.py counts settled vertices by ShortestPaths.reached()")
    assert hasattr(ScaledInstance, "g_prime_s"), (
        "tracer.py reads the spliced vertex count as ScaledInstance.g_prime_s.n")
