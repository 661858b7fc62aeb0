"""dB/dBm -> linear conversions.

Everything downstream of config parsing works in linear watts, joules and
seconds; decibel quantities appear only in scenario files and the values
of the delta_db sweep axis, and nothing converts back to them.
"""

__all__ = ["dbm_to_watt", "db_to_linear"]


def dbm_to_watt(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    """Convert a ratio in dB to linear scale."""
    return 10.0 ** (db / 10.0)
