"""Cross-face attribute transfer toolkit.

Submodules:
  tensor    - autograd engine, neural operators, Adam, checkpoint format
  tps       - thin-plate-spline solving, grids, warps, min-distance shift
  attention - landmark embedding, cross-face attention, attribute transfer
  spatial   - attention-predicted TPS warping gated by parsing masks
  pseudo_gt - pseudo-ground-truth generators (warp / histogram / blend)
  gan       - generator, discriminators, loss stack, training loop
  pyramid   - high-resolution detail reconstruction
  data      - synthetic face corpus and file formats
  cli       - command-line entry points
"""

__version__ = "0.1.0"
