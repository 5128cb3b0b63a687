"""Shared pytest configuration for the tier-1 suite."""


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running example or scenario")
