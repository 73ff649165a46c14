"""``tests/unexecuted.py``'s statement listing, on a hand-made trace."""

from unexecuted import unexecuted

SOURCE = '''"""Module docstring."""
import os


@staticmethod
def f(x):
    """Docstring."""
    if x:
        return 1
    else:
        y = (
            2)
        return y


def g():
    try:
        pass
    except ValueError:
        raise
'''


def test_outermost_statements_never_run():
    # f ran through its decorator and took the if branch; g never ran
    assert unexecuted(SOURCE, {2, 5, 8, 9}) == [
        (11, 12, "y = ("), (13, 13, "return y"), (16, 20, "def g():"),
    ]


def test_an_inner_statement_marks_its_block_as_run():
    # the second line of a multi-line statement, and statements of a try
    # body and a handler, with no header line of the statements around them
    assert unexecuted(SOURCE, {2, 12, 13, 18, 20}) == [(9, 9, "return 1")]
