import time

import pytest

from clineshoot import IntegratorConfig, find_all_clines, proposition_1, proposition_2
from clineshoot.shooting import build_gamma


@pytest.fixture(scope="session")
def default_cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def prop1():
    return proposition_1()


@pytest.fixture(scope="session")
def prop2():
    return proposition_2()


# The two full searches are the expensive shared artifacts of the suite;
# run each once and keep the wall time for the runtime criteria.

@pytest.fixture(scope="session")
def prop1_search(prop1, default_cfg):
    t0 = time.perf_counter()
    result = find_all_clines(prop1.problem, default_cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def prop2_search(prop2, default_cfg):
    t0 = time.perf_counter()
    result = find_all_clines(prop2.problem, default_cfg)
    return result, time.perf_counter() - t0


# The direct 2001-column sweeps at the default step, swept once each.

@pytest.fixture(scope="session")
def prop1_gamma(prop1, default_cfg):
    return build_gamma(prop1.problem, default_cfg)


@pytest.fixture(scope="session")
def prop2_gamma(prop2, default_cfg):
    return build_gamma(prop2.problem, default_cfg)


@pytest.fixture(scope="session")
def chosen_search():
    """problem -> find_all_clines at the step it chooses, run once per problem."""
    cache = {}

    def search(p):
        key = p.to_json()
        if key not in cache:
            cache[key] = find_all_clines(p)
        return cache[key]

    return search
