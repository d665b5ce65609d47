"""No-mitigation baseline policy."""

from __future__ import annotations

import math
from typing import List, Optional

from repro.mitigations.base import MitigationPolicy


class NullPolicy(MitigationPolicy):
    """Performs no tracking and no mitigation (unprotected DRAM)."""

    name = "none"
    act_floor = math.inf  # no ACT changes anything

    def on_activate(self, row: int, count: int) -> None:
        pass

    def select_proactive(self) -> Optional[int]:
        return None

    def select_reactive(self, max_rows: int) -> List[int]:
        return []
