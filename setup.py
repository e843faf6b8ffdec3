"""Setuptools shim.

The project metadata lives in setup.cfg; this file exists so that
``pip install -e .`` works in offline environments whose setuptools cannot
build PEP 517 editable wheels (no ``wheel`` package available).
"""
from setuptools import setup

setup()
