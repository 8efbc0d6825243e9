"""The operator-facing QoS interface (Section 7 of the paper).

The paper exposes five calls::

    int    CreateTCAMQoS(SwitchID, perf-guarantee, match-predicate);
    bool   DeleteQoS(ShadowID)
    bool   ModQoSConfig(ShadowID, perf-guarantee)
    bool   ModQoSMatch(ShadowID, match-predicate)
    double QoSOverheads(SwitchID, perf-guarantee, match-predicate)

:class:`HermesService` provides these verbatim (plus snake_case aliases).
``CreateTCAMQoS`` carves the switch's TCAM, instantiates a
:class:`~repro.core.hermes.HermesInstaller`, and returns a descriptor whose
:attr:`~QoSHandle.max_burst_rate` is the Equation 2 rate the Gate Keeper will
admit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from ..tcam.timing import EmpiricalTimingModel
from .gatekeeper import MatchPredicate, match_all
from .guarantees import GuaranteeSpec, asic_overhead
from .hermes import HermesConfig, HermesInstaller


@dataclass(frozen=True)
class QoSHandle:
    """What ``CreateTCAMQoS`` returns.

    Attributes:
        shadow_id: the descriptor for later Mod/Delete calls.
        switch_id: the switch this QoS lives on.
        max_burst_rate: rules/second the Gate Keeper admits (Equation 2).
        shadow_capacity: entries carved for the shadow slice.
        overhead: fraction of TCAM capacity the shadow consumes.
    """

    shadow_id: int
    switch_id: str
    max_burst_rate: float
    shadow_capacity: int
    overhead: float


class HermesService:
    """Registry of switches and the QoS configurations installed on them."""

    def __init__(self) -> None:
        self._timings: Dict[str, EmpiricalTimingModel] = {}
        self._rngs: Dict[str, Optional[np.random.Generator]] = {}
        self._installers: Dict[int, HermesInstaller] = {}
        self._handles: Dict[int, QoSHandle] = {}
        self._descriptor_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Switch registry
    # ------------------------------------------------------------------
    def register_switch(
        self,
        switch_id: str,
        timing: EmpiricalTimingModel,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Make a switch (identified by its timing model) configurable.

        Raises:
            ValueError: when the switch id is already registered.
        """
        if switch_id in self._timings:
            raise ValueError(f"switch {switch_id!r} already registered")
        self._timings[switch_id] = timing
        self._rngs[switch_id] = rng

    def installer(self, shadow_id: int) -> HermesInstaller:
        """The live Hermes instance behind a descriptor.

        Raises:
            KeyError: for unknown or deleted descriptors.
        """
        return self._installers[shadow_id]

    def handle(self, shadow_id: int) -> QoSHandle:
        """The handle originally returned for a descriptor."""
        return self._handles[shadow_id]

    # ------------------------------------------------------------------
    # The paper's five calls
    # ------------------------------------------------------------------
    def CreateTCAMQoS(  # noqa: N802 — paper-verbatim name
        self,
        switch_id: str,
        perf_guarantee: GuaranteeSpec,
        match_predicate: MatchPredicate = match_all,
        config: Optional[HermesConfig] = None,
    ) -> QoSHandle:
        """Carve the switch and start Hermes with the requested guarantee.

        Raises:
            KeyError: for an unregistered switch.
            ValueError: when the guarantee is infeasible on the hardware.
        """
        timing = self._timings[switch_id]
        # A copy: the installer rewrites its guarantee on ModQoSConfig, and
        # one caller's config may seed several QoS instances.
        hermes_config = replace(
            config if config is not None else HermesConfig(),
            guarantee=perf_guarantee,
        )
        installer = HermesInstaller(
            timing,
            config=hermes_config,
            predicate=match_predicate,
            rng=self._rngs[switch_id],
        )
        shadow_id = next(self._descriptor_counter)
        handle = QoSHandle(
            shadow_id=shadow_id,
            switch_id=switch_id,
            max_burst_rate=installer.supported_rate(),
            shadow_capacity=installer.shadow.capacity,
            overhead=installer.shadow.capacity / timing.capacity,
        )
        self._installers[shadow_id] = installer
        self._handles[shadow_id] = handle
        return handle

    def DeleteQoS(self, shadow_id: int) -> bool:  # noqa: N802
        """Tear down a QoS: drain the shadow and stop guaranteeing.

        Returns False for unknown descriptors (paper signature is boolean).
        """
        installer = self._installers.pop(shadow_id, None)
        self._handles.pop(shadow_id, None)
        if installer is None:
            return False
        installer.rule_manager.migrate(installer._now)
        installer.set_predicate(lambda _rule: False)
        return True

    def ModQoSConfig(self, shadow_id: int, perf_guarantee: GuaranteeSpec) -> bool:  # noqa: N802
        """Re-size an existing QoS for a new guarantee."""
        installer = self._installers.get(shadow_id)
        if installer is None:
            return False
        installer.reconfigure_guarantee(perf_guarantee)
        handle = self._handles[shadow_id]
        self._handles[shadow_id] = QoSHandle(
            shadow_id=shadow_id,
            switch_id=handle.switch_id,
            max_burst_rate=installer.supported_rate(),
            shadow_capacity=installer.shadow.capacity,
            overhead=installer.shadow.capacity / installer.timing.capacity,
        )
        return True

    def ModQoSMatch(self, shadow_id: int, match_predicate: MatchPredicate) -> bool:  # noqa: N802
        """Change which rules a QoS guarantees."""
        installer = self._installers.get(shadow_id)
        if installer is None:
            return False
        installer.set_predicate(match_predicate)
        return True

    def QoSOverheads(  # noqa: N802
        self,
        switch_id: str,
        perf_guarantee: GuaranteeSpec,
        match_predicate: MatchPredicate = match_all,
    ) -> float:
        """Preview the TCAM overhead of a guarantee without installing it.

        The predicate does not change the shadow size (sizing depends only
        on the latency bound), but is accepted for signature fidelity and
        future predicate-aware sizing.

        Raises:
            KeyError: for an unregistered switch.
            ValueError: when the guarantee is infeasible.
        """
        del match_predicate  # sizing is predicate-independent today
        return asic_overhead(self._timings[switch_id], perf_guarantee)

    # Pythonic aliases.
    create_tcam_qos = CreateTCAMQoS
    delete_qos = DeleteQoS
    mod_qos_config = ModQoSConfig
    mod_qos_match = ModQoSMatch
    qos_overheads = QoSOverheads
