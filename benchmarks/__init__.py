"""Reproduction benchmarks.

A package, so that ``benchmarks/test_figures.py`` and
``tests/report/test_figures.py`` import under distinct module names.
"""
