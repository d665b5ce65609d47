"""ALERT-Back-Off (ABO) protocol model (JEDEC DDR5 extension, paper §2.6)."""

from repro.abo.protocol import AboConfig, AboProtocol

__all__ = ["AboConfig", "AboProtocol"]
