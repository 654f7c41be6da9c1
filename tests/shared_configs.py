"""Configs shared by the test modules, which import them by name.

They live here rather than in conftest.py: a `from conftest import ...`
resolves to whichever conftest module pytest imported last, so it breaks
when `tests` and `perfbench/tests` are collected in one run.
"""

import warnings

from twinstore import MdsCode, TwinConfig


def build_config(field, n1, n2, k, style="vandermonde"):
    """Both codes of one style; "explicit" wraps the Vandermonde
    generators as explicit codes, whose ranks come from elimination."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if style != "explicit":
            return TwinConfig.build(field, n1, n2, k, style=style)
        built = TwinConfig.build(field, n1, n2, k)
        return TwinConfig(*(MdsCode(code.generator, "explicit")
                            for code in (built.code1, built.code2)))
