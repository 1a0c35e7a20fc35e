"""BER simulation and closed-form evaluation for a surface-assisted
power-domain multiple-access downlink."""

__version__ = "0.1.0"
