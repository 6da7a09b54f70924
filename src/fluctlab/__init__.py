"""Seeded autoencoder training runs on synthetic 2D shapes, with full
per-epoch capture and per-neuron fluctuation analysis."""
