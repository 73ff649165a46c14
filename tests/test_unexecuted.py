"""``tests/unexecuted.py``'s statement listing and its ratchet, on
hand-made traces."""

from unexecuted import keys, ratchet, unexecuted

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



def test_a_new_unrun_statement_fails_the_ratchet(capsys):
    # the list is the first trace's; in the second f took the else
    # branch, so return 1 is new and the statements of that branch now run
    expected = keys("m.py", unexecuted(SOURCE, {2, 5, 8, 9}))
    assert ratchet(keys("m.py", unexecuted(SOURCE, {2, 5, 8, 9})), expected) == 0
    assert capsys.readouterr().out == ""
    assert ratchet(keys("m.py", unexecuted(SOURCE, {2, 5, 8, 12, 13})), expected) == 1
    assert capsys.readouterr().out.splitlines() == [
        "now run, drop it from the list: m.py: y = (",
        "now run, drop it from the list: m.py: return y",
        "never run, and not on the list: m.py: return 1",
    ]
