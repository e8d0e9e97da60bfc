"""hypcert: hyperbolic-geometry toolkit.

Packing and covering numbers, four-point hyperbolicity estimation,
isometry classification, ping-pong free-group certificates, and
entropy/systole bound checks on two model spaces, the upper half-plane
and free-group Cayley trees, and finite metric graphs as metric tables.
"""

__version__ = "0.1.0"

# the absolute tolerance of every float comparison in the package
TOL = 1e-9
