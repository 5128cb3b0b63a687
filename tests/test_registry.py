"""The shared plugin registry, checked on every kind that uses it."""

import pytest

from repro.errors import MappingError, ServingError
from repro.mapping.passes.core import PASSES
from repro.serving.batching import BATCHERS
from repro.serving.faults import FAULT_POLICIES
from repro.serving.platform import PLATFORMS
from repro.serving.scheduler import SCHEDULERS

# registry, a built-in key, its error class, whether re-registering the
# class a name already holds is a no-op.
KINDS = [
    pytest.param(PLATFORMS, "cpu", ServingError, True, id="platform"),
    pytest.param(SCHEDULERS, "fifo", ServingError, True, id="scheduler"),
    pytest.param(BATCHERS, "none", ServingError, True, id="batcher"),
    pytest.param(FAULT_POLICIES, "none", ServingError, True, id="fault-policy"),
    pytest.param(PASSES, "plan_gates", MappingError, False, id="mapping-pass"),
]


@pytest.mark.parametrize("registry, builtin, error, same_class_ok", KINDS)
def test_registry_rules(registry, builtin, error, same_class_ok):
    names = registry.names()
    assert builtin in names

    with pytest.raises(error, match="unknown") as unknown:
        registry.get("no-such-key")
    assert str(unknown.value).endswith(f"registered: {', '.join(names)}")

    with pytest.raises(error, match="factory must return"):
        registry.make(lambda: object())
    with pytest.raises(error, match="by name"):
        registry.make(registry.create(builtin), bogus=1)
    with pytest.raises(error, match=f"{registry.base.__name__} subclass"):
        registry.register("test-wrong-base")(dict)

    registry.unregister("test-never-registered")
    assert registry.names() == names

    probe = type("Probe", (registry.base,), {})
    registry.register("test-probe")(probe)
    try:
        assert probe.name == "test-probe"
        assert registry.get("test-probe") is probe
        if same_class_ok:
            registry.register("test-probe")(probe)
        else:
            with pytest.raises(error, match="already registered"):
                registry.register("test-probe")(probe)
        impostor = type("Impostor", (registry.base,), {})
        with pytest.raises(error, match="already registered"):
            registry.register("test-probe")(impostor)
        assert registry.get("test-probe") is probe
    finally:
        registry.unregister("test-probe")
    assert registry.names() == names
