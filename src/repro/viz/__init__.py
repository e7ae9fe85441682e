"""Dependency-free SVG rendering of the paper's figures.

The environment ships no plotting library, so :mod:`repro.viz.svg`
implements a compact chart toolkit (line/scatter/bar charts, log axes,
legends) that emits standalone SVG, and :mod:`repro.viz.figures` maps
experiment-runner outputs onto those charts — ``python -m repro render
fig11 out/`` regenerates the paper's figures as image files.
"""
