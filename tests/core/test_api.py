"""Tests for the Section 7 operator API (HermesService)."""

import pytest

from repro.core import GuaranteeSpec, HermesConfig, HermesService, priority_at_least
from repro.switchsim import FlowMod
from repro.tcam import Action, Rule, dell_8132f, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


@pytest.fixture
def service():
    svc = HermesService()
    svc.register_switch("edge-1", pica8_p3290())
    svc.register_switch("edge-2", dell_8132f())
    return svc


class TestCreateTCAMQoS:
    def test_returns_handle_with_burst_rate(self, service):
        handle = service.CreateTCAMQoS("edge-1", GuaranteeSpec.milliseconds(5))
        assert handle.shadow_id > 0
        assert handle.max_burst_rate > 0
        assert 0 < handle.overhead < 0.05
        assert handle.switch_id == "edge-1"

    def test_descriptors_are_unique(self, service):
        first = service.CreateTCAMQoS("edge-1", GuaranteeSpec.milliseconds(5))
        second = service.CreateTCAMQoS("edge-2", GuaranteeSpec.milliseconds(5))
        assert first.shadow_id != second.shadow_id

    def test_unknown_switch_raises(self, service):
        with pytest.raises(KeyError):
            service.CreateTCAMQoS("nope", GuaranteeSpec.milliseconds(5))

    def test_infeasible_guarantee_raises(self, service):
        with pytest.raises(ValueError):
            service.CreateTCAMQoS("edge-1", GuaranteeSpec(1e-9))

    def test_created_installer_enforces_predicate(self, service):
        handle = service.CreateTCAMQoS(
            "edge-1", GuaranteeSpec.milliseconds(5), priority_at_least(100)
        )
        installer = service.installer(handle.shadow_id)
        high = installer.apply(FlowMod.add(rule("10.0.0.0/8", 200)))
        low = installer.apply(FlowMod.add(rule("11.0.0.0/8", 5)))
        assert high.used_guaranteed_path
        assert not low.used_guaranteed_path

    def test_shared_config_is_not_aliased(self, service):
        config = HermesConfig()
        first = service.CreateTCAMQoS(
            "edge-1", GuaranteeSpec.milliseconds(5), config=config
        )
        second = service.CreateTCAMQoS(
            "edge-2", GuaranteeSpec.milliseconds(10), config=config
        )
        service.ModQoSConfig(second.shadow_id, GuaranteeSpec.milliseconds(1))
        installer = service.installer(first.shadow_id)
        assert installer.config.guarantee == GuaranteeSpec.milliseconds(5)
        assert installer.shadow.capacity == first.shadow_capacity
        assert config == HermesConfig()

    def test_duplicate_switch_registration_rejected(self, service):
        with pytest.raises(ValueError):
            service.register_switch("edge-1", pica8_p3290())


class TestModAndDelete:
    def test_mod_qos_config_resizes(self, service):
        handle = service.CreateTCAMQoS("edge-1", GuaranteeSpec.milliseconds(5))
        assert service.ModQoSConfig(handle.shadow_id, GuaranteeSpec.milliseconds(1))
        updated = service.handle(handle.shadow_id)
        assert updated.shadow_capacity < handle.shadow_capacity
        assert updated.overhead < handle.overhead

    def test_mod_qos_match_swaps_predicate(self, service):
        handle = service.CreateTCAMQoS("edge-1", GuaranteeSpec.milliseconds(5))
        assert service.ModQoSMatch(handle.shadow_id, priority_at_least(500))
        installer = service.installer(handle.shadow_id)
        result = installer.apply(FlowMod.add(rule("10.0.0.0/8", 5)))
        assert not result.used_guaranteed_path

    def test_delete_qos_drains_and_stops_guaranteeing(self, service):
        handle = service.CreateTCAMQoS("edge-1", GuaranteeSpec.milliseconds(5))
        installer = service.installer(handle.shadow_id)
        installer.apply(FlowMod.add(rule("10.0.0.0/8", 50)))
        assert service.DeleteQoS(handle.shadow_id)
        assert installer.shadow.occupancy == 0  # drained into main
        late = installer.apply(FlowMod.add(rule("11.0.0.0/8", 50)))
        assert not late.used_guaranteed_path
        with pytest.raises(KeyError):
            service.installer(handle.shadow_id)

    def test_mutations_on_unknown_descriptor_return_false(self, service):
        assert not service.DeleteQoS(999)
        assert not service.ModQoSConfig(999, GuaranteeSpec.milliseconds(5))
        assert not service.ModQoSMatch(999, priority_at_least(1))


class TestQoSOverheads:
    def test_matches_direct_computation(self, service):
        from repro.core import asic_overhead

        overhead = service.QoSOverheads("edge-1", GuaranteeSpec.milliseconds(5))
        assert overhead == pytest.approx(
            asic_overhead(pica8_p3290(), GuaranteeSpec.milliseconds(5))
        )

    def test_looser_guarantee_allows_bigger_shadow(self, service):
        tight = service.QoSOverheads("edge-2", GuaranteeSpec.milliseconds(1))
        loose = service.QoSOverheads("edge-2", GuaranteeSpec.milliseconds(10))
        assert tight < loose or tight == pytest.approx(loose)
        assert service.QoSOverheads("edge-2", GuaranteeSpec.milliseconds(5)) <= loose

    def test_snake_case_aliases(self, service):
        handle = service.create_tcam_qos("edge-1", GuaranteeSpec.milliseconds(5))
        assert service.mod_qos_match(handle.shadow_id, priority_at_least(1))
        assert service.qos_overheads("edge-1", GuaranteeSpec.milliseconds(5)) > 0
        assert service.delete_qos(handle.shadow_id)
