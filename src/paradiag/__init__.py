"""Charged-string diagram calculus for qudits, with an LOCC protocol verifier.

Subpackages and modules:

* :mod:`paradiag.scalars` -- exact root-of-unity phase arithmetic;
* :mod:`paradiag.algebra` -- dense states/operators, Pauli/Fourier/Gauss
  matrices, resource states;
* :mod:`paradiag.diagrams` -- the layered diagram IR, two independent
  evaluators and the planar relation suite;
* :mod:`paradiag.compression` -- controlled-form predicates and
  decompositions;
* :mod:`paradiag.protocol` -- teleportation simulator that reads every
  measurement branch off one deferred-measurement pass;
* :mod:`paradiag.cli` -- the ``paradiag`` command line front end.
"""

from . import algebra, compression, diagrams, protocol, scalars

__all__ = ["algebra", "compression", "diagrams", "protocol", "scalars"]
__version__ = "0.1.0"
