"""framelab: finite-scale calculus for frames, semi-frames and reproducing pairs.

The package models a measure space as atoms plus density segments, renders it
finite through equal-mass quadrature, and provides the full operator calculus
of vector families over the resulting node sets: analysis and synthesis maps,
frame bounds and duals, redundancy accounting, splitting into discrete and
strictly continuous parts, reproducing kernels of analysis ranges, and the
resolution-operator machinery of reproducing pairs.  A gallery of named
constructions and a CLI make the bound-trend and refinement experiments
reproducible.  Each name is imported from its module, such as
``from framelab.frames import frame_bounds``.
"""

__version__ = "0.1.0"
