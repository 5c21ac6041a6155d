"""The live runtime's name for :func:`repro.protocols.default_live_config_for`.

The protocol registry serves both backends from :mod:`repro.protocols`;
this entry point keeps the old import path working.
"""

from repro.protocols import default_live_config_for

__all__ = ["default_live_config_for"]
