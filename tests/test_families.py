import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairnoise import families
from fairnoise.errors import InputError


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((families.random_dp_instance, families.random_eopp_instance)),
    st.integers(0, 64),
    st.integers(0, 2**32 - 1),
)
def test_generators_raise_only_input_error(generator, max_atoms, seed):
    try:
        dist, h = generator(np.random.default_rng(seed), max_atoms=max_atoms)
    except InputError:
        return
    assert dist.groups == ("A", "B")


def test_eopp_generator_rejects_too_few_atoms():
    with pytest.raises(InputError, match="max_atoms"):
        families.random_eopp_instance(np.random.default_rng(0), max_atoms=9)
    dist, _ = families.random_eopp_instance(np.random.default_rng(0), max_atoms=10)
    assert len(dist.atoms) <= 10
