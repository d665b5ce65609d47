"""Multi-requestor, multi-channel system simulation.

``repro.system`` scales the single-stream memory-controller model of
:mod:`repro.sim.mc` out to a system: a front-end crossbar arbitrating
N client streams per channel (:mod:`repro.system.crossbar` for the
clients, :meth:`repro.mc.controller.MemoryController.serve_streams`
for the grant logic) and :func:`~repro.system.sim.run_system`, which
shards M independent channels across the sweep process pool
(:mod:`repro.system.sim`).
"""

from repro.system.crossbar import (
    ATTACK_ROW_BASE,
    CHANNEL_SEED_STRIDE,
    CLIENT_SEED_STRIDE,
    STREAMABLE_ATTACKS,
    ClientSpec,
    attack_request_stream,
    client_requests,
)
from repro.system.sim import (
    ChannelShard,
    ClientMetrics,
    ClientShardStats,
    ShardResult,
    SystemResult,
    SystemRunConfig,
    execute_system_shard,
    run_system,
    system_config_payload,
)

__all__ = [
    "ATTACK_ROW_BASE",
    "CHANNEL_SEED_STRIDE",
    "CLIENT_SEED_STRIDE",
    "STREAMABLE_ATTACKS",
    "ChannelShard",
    "ClientMetrics",
    "ClientShardStats",
    "ClientSpec",
    "ShardResult",
    "SystemResult",
    "SystemRunConfig",
    "attack_request_stream",
    "client_requests",
    "execute_system_shard",
    "run_system",
    "system_config_payload",
]
