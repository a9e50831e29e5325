import random

import pytest
from hypothesis import strategies as st

from fca_spaces import FormalContext, ninapro_abc, ninapro_grasp, build_lattice


def rows_of(ctx):
    """Context incidence as a list of attribute-index frozensets, one per object."""
    rows = [set() for _ in ctx.objects]
    for g, m in ctx.incidence:
        rows[g].add(m)
    return [frozenset(r) for r in rows]


def make_context(bit_rows, n_attr):
    objects = tuple(f"g{i}" for i in range(len(bit_rows)))
    attributes = tuple(f"m{j}" for j in range(n_attr))
    incidence = frozenset(
        (g, m) for g, row in enumerate(bit_rows) for m in row
    )
    return FormalContext(objects, attributes, incidence)


@st.composite
def contexts(draw, max_objects=8, max_attributes=8, min_objects=0, min_attributes=0):
    n_obj = draw(st.integers(min_objects, max_objects))
    n_attr = draw(st.integers(min_attributes, max_attributes))
    bit_rows = [
        draw(st.frozensets(st.integers(0, n_attr - 1))) if n_attr else frozenset()
        for _ in range(n_obj)
    ]
    return make_context(bit_rows, n_attr)


@st.composite
def tall_contexts(draw):
    """40 to 80 objects over 3 to 5 attributes: at most 32 distinct rows, so
    most objects share their row with another."""
    n_attr = draw(st.integers(3, 5))
    n_obj = draw(st.integers(40, 80))
    row = st.frozensets(st.integers(0, n_attr - 1))
    return make_context(draw(st.lists(row, min_size=n_obj, max_size=n_obj)), n_attr)


def random_context(rng: random.Random, max_objects=8, max_attributes=8):
    n_obj = rng.randint(0, max_objects)
    n_attr = rng.randint(0, max_attributes)
    density = rng.random()
    bit_rows = [
        frozenset(m for m in range(n_attr) if rng.random() < density)
        for _ in range(n_obj)
    ]
    return make_context(bit_rows, n_attr)


@pytest.fixture(scope="session")
def abc_ctx():
    return ninapro_abc()


@pytest.fixture(scope="session")
def abc_lat(abc_ctx):
    return build_lattice(abc_ctx)


@pytest.fixture(scope="session")
def grasp_ctx():
    return ninapro_grasp()


@pytest.fixture(scope="session")
def grasp_lat(grasp_ctx):
    return build_lattice(grasp_ctx)
