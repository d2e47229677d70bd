"""The sharded-simulation tests run the scenario-spec tests' ``small_spec``."""

from tests.workloads.conftest import make_small_spec, small_spec  # noqa: F401
