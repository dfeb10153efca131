"""The traced benchmark run wraps package functions by name at run time;
every name it patches must still resolve, or ``--trace 1`` breaks."""
import os
import sys

import numpy as np
import pytest

from defield.cli import build_parser
from defield.defanalysis import partition_regions
from defield.grids import GridGeometry, Mask
from defield.registration import RegistrationParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, PERFBENCH)
    try:
        import traced
        yield traced
    finally:
        sys.path.remove(PERFBENCH)


def test_every_patch_target_resolves(traced):
    names = [(target, attr) for target, attrs in traced.PATCHES for attr in attrs]
    assert len(names) == 26
    missing = [f"{getattr(t, '__name__', t)}.{a}" for t, a in names
               if not callable(getattr(t, a, None))]
    assert missing == []
    # the classify replay swaps this one in for the manifest loader
    assert callable(traced.cli.load_manifest)


def test_default_config_gives_registration_params(traced):
    params = traced.cli.PipelineConfig().registration_params()
    assert type(params) is RegistrationParams
    assert params == RegistrationParams()


def test_benchmark_argvs_parse_and_week_index_is_accepted(traced):
    """The benchmark's stage command lines parse with the package's CLI, and
    its output check can still pass week_index= (the stats-chain workload
    runs `regions --week`)."""
    parser = build_parser()
    assert parser.parse_args(traced.wl.classify_argv("in", "out")).cfg_workers == "1"
    pair = traced.wl.Pair("p00", 1, "v0.vol", "v1.vol", "m0.vol", "m1.vol",
                          "gt_forward01.vol", "gt_jacobian01.vol")
    stages = traced.wl.chain_argvs(pair, "out")
    assert [stage for stage, _ in stages] == ["jacobian", "regions", "stats"]
    for stage, argv in stages:
        assert parser.parse_args(argv).func.__name__ == f"cmd_{stage}"
    assert parser.parse_args(stages[1][1]).week == 1
    g = GridGeometry((4, 4, 4))
    a = Mask(g, np.ones(g.dims, dtype=np.uint8))
    assert partition_regions(a, a, week_index=1).week_index == 1
