"""Benchmark of the confspace CLI; see README.md in this directory."""
