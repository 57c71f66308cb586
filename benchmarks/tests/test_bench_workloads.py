"""Workload generation is a pure function of the seed."""
import pytest
import yaml

from workloads import NAMES, generate


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_config(name):
    first, second = generate(name, 7), generate(name, 7)
    assert first == second
    assert first.config_text() == second.config_text()
    assert first.argv("c.yaml", "o.csv") == second.argv("c.yaml", "o.csv")


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_different_config(name):
    texts = {generate(name, seed).config_text() + " ".join(generate(name, seed).args)
             for seed in range(5)}
    assert len(texts) == 5


@pytest.mark.parametrize("name", NAMES)
def test_config_round_trips_through_yaml(name):
    workload = generate(name, 3)
    assert yaml.safe_load(workload.config_text()) == workload.config


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        generate("nope", 1)
