"""Polarization-encoded BB84 over dispersive fiber: simulation and analysis.

The package splits along the physical chain: :mod:`fiberqkd.polarization`
for sphere arithmetic and the four-state encoder, :mod:`fiberqkd.channel`
for loss and polarization mode dispersion, :mod:`fiberqkd.emitter` for
source statistics and correlation histograms, :mod:`fiberqkd.protocol` for
the slot-level session engine, :mod:`fiberqkd.keyrate` for finite-key
analysis, :mod:`fiberqkd.documents` for every input file, and
:mod:`fiberqkd.config` plus :mod:`fiberqkd.cli` for scenarios and the command
line. Import each name from its module.
"""

__version__ = "0.1.0"
