"""Desk-scale neural stack: connector, query compressor, trainer, gradcheck."""
