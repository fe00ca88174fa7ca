import pytest

from spotplan import (
    ScalingSource,
    bundled_aws_catalog,
    bundled_simulated_catalog,
    default_saturation_table,
)


@pytest.fixture(scope="session")
def simulated_catalog():
    return bundled_simulated_catalog()


@pytest.fixture(scope="session")
def aws_catalog():
    return bundled_aws_catalog()


@pytest.fixture(scope="session")
def sat_table():
    return default_saturation_table()


@pytest.fixture()
def scaling_source():
    return ScalingSource()


def _gpu(name, price, eflops):
    return {"name": name, "kind": "gpu", "od_price": price, "spot_price": price,
            "network_gbps": 10, "eflops": eflops}


@pytest.fixture(
    params=[
        # eflops / price overflows for "v"; the other two GPUs are fine.
        ({"instances": [_gpu("v", "1e-10", 1e300), _gpu("big", "1", 1e301), _gpu("cheap", "1e-20", 1)]},
         "instance 'v': eflops / spot_price is not a finite float (1e+300 / 1e-10)"),
        # 1e-400 is a positive Decimal but 0.0 as a float.
        ({"instances": [_gpu("tiny", "1e-400", 1)]},
         "instance 'tiny': eflops / spot_price is not a finite float (1.0 / 0.0)"),
    ],
    ids=["overflow", "underflow"],
)
def non_finite_flopp(request):
    """A catalog document with a GPU whose FLOPP is not a finite float, and the refusal."""
    return request.param
