"""Switch substrate: control messages, installers, pipeline, agent, channel."""

from .agent import AgentDownError, AgentStats, CompletedAction, SwitchAgent
from .channel import (
    Channel,
    ChannelConfig,
    ChannelStats,
    NaiveChannel,
    ResilientChannel,
    SendOutcome,
)
from .installer import DirectInstaller, RuleInstaller
from .messages import FlowMod, FlowModCommand, FlowModResult
from .pipeline import (
    LookupTable,
    MissBehavior,
    Pipeline,
    PipelineStage,
    PipelineVerdict,
)

__all__ = [
    "AgentDownError",
    "AgentStats",
    "Channel",
    "ChannelConfig",
    "ChannelStats",
    "CompletedAction",
    "DirectInstaller",
    "FlowMod",
    "FlowModCommand",
    "FlowModResult",
    "LookupTable",
    "MissBehavior",
    "NaiveChannel",
    "Pipeline",
    "PipelineStage",
    "PipelineVerdict",
    "ResilientChannel",
    "RuleInstaller",
    "SendOutcome",
    "SwitchAgent",
]
